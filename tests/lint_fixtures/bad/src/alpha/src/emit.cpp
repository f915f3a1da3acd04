// Fixture: trace emission that bypasses the guard macros — the
// trace-hook-guard pass must flag both direct on_event() calls.
namespace pe {

struct TraceHook {
  virtual ~TraceHook() = default;
  virtual void on_event(int kind) noexcept = 0;
};

TraceHook* g_hook = nullptr;

void emit_direct(TraceHook& hook) {
  if (g_hook != nullptr) g_hook->on_event(1);
  hook.on_event(2);
}

}  // namespace pe
