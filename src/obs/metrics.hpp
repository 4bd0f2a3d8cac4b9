#pragma once
// Flight-recorder metrics stream: one JSON-Lines record per solver step
// (dt, conservation sums, cell counts, per-phase stopwatch deltas, ledger
// counters), preceded by a run manifest record, written to the file named
// by --metrics=<file>.
//
// Record discrimination is by the "type" field:
//   {"type":"manifest", ...}    once, at startup (see write_manifest)
//   {"type":"step", ...}        one per step, emitted by the driver loop
//   {"type":"diagnostic", ...}  structured numerical-health faults
//                               (obs/probe.hpp) — written before the
//                               corresponding exception is thrown
//
// The stream is process-global, like the trace session: the CLI layer
// opens it once and every solver/driver in the process appends. Writes
// are line-atomic under a mutex; the hot solver loops never touch the
// stream (drivers emit after step() returns), so this costs nothing when
// --metrics is off and one formatted line per step when on.

#include <cstdint>
#include <map>
#include <string>

#include "util/timing.hpp"

namespace tp::obs {

/// Process-global JSONL sink. All members are safe to call with the
/// stream closed (they become no-ops), so call sites need no gating.
class MetricsStream {
public:
    /// Open (truncate) `path`; throws std::runtime_error on failure.
    void open(const std::string& path);
    void close();
    [[nodiscard]] bool is_open() const;

    /// Append one pre-built JSON object as a line. No-op when closed.
    void write_line(const std::string& json_object);

    /// Lines written since open() (diagnostics/tests).
    [[nodiscard]] std::uint64_t lines_written() const;
};

/// The process-wide metrics stream.
[[nodiscard]] MetricsStream& metrics();

/// Run manifest: everything needed to attribute a metrics/trace file to
/// a build and configuration. `extra` carries app-specific fields
/// (precision policy, simd mode, grid size, ...). Writes a
/// {"type":"manifest"} record; no-op when the stream is closed.
void write_manifest(const std::string& program,
                    const std::map<std::string, std::string>& extra);

/// Helper for per-step phase timings: returns the delta of every
/// stopwatch total since `previous` (and updates `previous`), as a JSON
/// object mapping phase name to seconds. Registries only ever grow, so
/// the delta covers every phase that ran this step. A key whose Phase
/// declared a parent is written as `<parent>_<key>` unless it already
/// carries that prefix (flux_sweep -> finite_diff_flux_sweep), so the
/// rollup nests every sub-phase under its parent.
[[nodiscard]] std::string timer_delta_json(
    const util::StopwatchRegistry& timers,
    std::map<std::string, double>& previous);

}  // namespace tp::obs
