// Clean twin: emission goes through the guard macro defined in the
// exempt runtime-hook header.
#include "perfeng/common/trace_hook.hpp"

namespace pe {

void emit_guarded() { PE_TRACE_EMIT(1); }

}  // namespace pe
