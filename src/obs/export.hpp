#pragma once
// Exporters for the observability subsystem:
//
//  * Prometheus text exposition (v0.0.4) of a MetricsRegistry snapshot —
//    one HELP/TYPE header per family, `name{labels} value` samples,
//    histogram `_bucket`/`_sum`/`_count` expansion — plus a strict
//    line-grammar validator used by the tests and the CI smoke job.
//  * Chrome trace-event JSON of a TraceRecorder snapshot, loadable in
//    Perfetto (ui.perfetto.dev) or chrome://tracing. Events with a sim
//    timestamp land on pid 1 ("sim time"); events with wall time only land
//    on pid 2 ("wall clock"); each event carries the other clock in args.
//  * A minimal JSON well-formedness checker (validate_json) so writers can
//    self-verify output without external tooling.

#include <filesystem>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvcom::obs {

[[nodiscard]] std::string to_prometheus_text(const MetricsRegistry& registry);
/// Renders the registry once, checks the text with validate_prometheus_text,
/// and writes it to `path` only when it is valid. Returns false — with the
/// reason in `error` when non-null — for invalid text (nothing is written)
/// or a file that cannot be written.
[[nodiscard]] bool write_prometheus_text(const MetricsRegistry& registry,
                                         const std::filesystem::path& path,
                                         std::string* error = nullptr);

/// Strict syntax check of the Prometheus text format: every line must be a
/// comment, a HELP/TYPE header, or a `name{labels} value [timestamp]`
/// sample; the text must end with a newline. On failure returns false and,
/// when `error` is non-null, describes the first offending line.
[[nodiscard]] bool validate_prometheus_text(std::string_view text,
                                            std::string* error = nullptr);

[[nodiscard]] std::string to_chrome_trace_json(
    std::span<const TraceEvent> events);
/// The trace counterpart of write_prometheus_text: renders the recorder's
/// snapshot once, checks it with validate_json, and writes only valid JSON.
[[nodiscard]] bool write_chrome_trace_json(const TraceRecorder& recorder,
                                           const std::filesystem::path& path,
                                           std::string* error = nullptr);

/// Minimal recursive-descent JSON well-formedness check (objects, arrays,
/// strings with escapes, numbers, literals). Not a full RFC-8259 validator
/// of numeric grammar corner cases, but strict on structure.
[[nodiscard]] bool validate_json(std::string_view text,
                                 std::string* error = nullptr);

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace mvcom::obs
