#pragma once
// ObsContext — the handle instrumented components carry. Observability is
// explicitly passed (no singletons): a component that should emit metrics or
// trace events receives an ObsContext holding non-owning pointers to a
// MetricsRegistry and/or a TraceRecorder; a default-constructed context is
// inert and every instrumentation site is written as
//
//   if (auto* m = obs_.metrics()) m->...;
//   if (auto* t = obs_.trace())   t->...;

namespace mvcom::obs {

/// Always true: every build compiles instrumentation in. perfbench's host
/// stamp records it.
inline constexpr bool kEnabled = true;

class MetricsRegistry;
class TraceRecorder;

struct ObsContext {
  constexpr ObsContext() noexcept = default;
  constexpr ObsContext(MetricsRegistry* metrics, TraceRecorder* trace) noexcept
      : metrics_(metrics), trace_(trace) {}

  [[nodiscard]] constexpr MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] constexpr TraceRecorder* trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] constexpr explicit operator bool() const noexcept {
    return metrics_ != nullptr || trace_ != nullptr;
  }

 private:
  MetricsRegistry* metrics_ = nullptr;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mvcom::obs
