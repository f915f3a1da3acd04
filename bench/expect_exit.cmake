# cmake -DCMD=<exe> -DARGS="<args>" -DCODE=<n> -DREGEX=<re> -P expect_exit.cmake
# Runs CMD and fails unless it exits with CODE and its stdout+stderr
# match REGEX.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code STREQUAL "${CODE}" OR NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR
          "expected exit ${CODE} and output matching '${REGEX}', got exit "
          "'${code}':\n${out}")
endif()
