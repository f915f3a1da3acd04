#pragma once
// Fixture stand-in for the runtime hook header: the one file allowed to
// spell a direct on_event() call, inside the guard macro.
namespace pe {

struct TraceHook {
  virtual ~TraceHook() = default;
  virtual void on_event(int kind) noexcept = 0;
};

inline TraceHook* g_hook = nullptr;

}  // namespace pe

#define PE_TRACE_EMIT(kind)                                      \
  do {                                                           \
    if (::pe::TraceHook* pe_hook_ = ::pe::g_hook)                \
      pe_hook_->on_event(kind);                                  \
  } while (0)
