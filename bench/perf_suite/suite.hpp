#pragma once
// The suite's metric tables and its offline helpers: self time per span
// from a recorded trace, and the comparison of two sets of result files.

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perf_suite {

struct MetricDef {
    const char* name;
    const char* unit;
    bool higher_is_better;
};

/// What a user of the solvers sees; printed on every untraced run.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},
    {"run_s", "s", false},
    {"step_ms_p50", "ms", false},
    {"step_ms_p95", "ms", false},
    {"mupdates_per_s", "M/s", true},
    {"rss_mib", "MiB", false},
};

/// One layer each, named <layer>.<metric>; per step unless the name says
/// otherwise (mesh.*_ms per rezone, io.* per checkpoint). A workload that
/// does not run a layer reports 0 for it.
inline constexpr MetricDef kPerLayer[] = {
    {"shallow.cfl_ms", "ms", false},
    {"shallow.flux_sweep_ms", "ms", false},
    {"shallow.apply_ms", "ms", false},
    {"shallow.gflops", "GFLOP/s", true},
    {"shallow.flop_per_byte", "flop/B", true},
    {"mesh.rezones", "count", false},
    {"mesh.rezone_ms", "ms", false},
    {"mesh.flags_ms", "ms", false},
    {"mesh.adapt_ms", "ms", false},
    {"mesh.remap_ms", "ms", false},
    {"mesh.cache_ms", "ms", false},
    {"mesh.cells_touched", "count", false},
    {"mesh.resolved_frac", "ratio", false},
    {"mesh.cells_mean", "count", false},
    {"sem.volume_ms", "ms", false},
    {"sem.surface_ms", "ms", false},
    {"sem.rk_update_ms", "ms", false},
    {"sem.filter_ms", "ms", false},
    {"sem.cfl_ms", "ms", false},
    {"sem.volume_gflops", "GFLOP/s", true},
    {"sem.flop_per_byte", "flop/B", true},
    {"par.precompute_ms", "ms", false},
    {"par.interior_ms", "ms", false},
    {"par.boundary_ms", "ms", false},
    {"par.halo_pack_ms", "ms", false},
    {"par.halo_wait_ms", "ms", false},
    {"par.halo_kib", "KiB", false},
    {"par.imbalance_frac", "ratio", false},
    {"par.wait_frac", "ratio", false},
    {"io.ckpt_call_ms", "ms", false},
    {"io.stall_ms", "ms", false},
    {"io.writer_busy_ms", "ms", false},
    {"io.finish_ms", "ms", false},
    {"io.ckpt_kib", "KiB", false},
    {"io.checkpoint_mib", "MiB", false},
    {"compress.ratio", "ratio", true},
    {"compress.encode_ms", "ms", false},
    {"sum.total_mass_ms", "ms", false},
    {"mem.state_mib", "MiB", false},
    {"numerics.mass_drift_rel", "ratio", false},
    {"numerics.cut_l1_vs_full", "ratio", false},
    {"obs.trace_overhead_frac", "ratio", false},
    {"obs.trace_events", "count", false},
    {"obs.trace_dropped", "count", false},
    {"bench.unattributed_frac", "ratio", false},
    {"bench.failed_frac", "ratio", false},
};

/// A whole file parsed as one JSON document; nullopt when the file cannot
/// be read or does not parse.
inline std::optional<tp::obs::json::Value> read_json_file(
    const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream text;
    text << is.rdbuf();
    return tp::obs::json::parse(text.str());
}

/// Self time of one span name over a whole trace: its duration minus the
/// part its child spans (same track, nested in time) cover.
struct SpanSelf {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/// Parse a Chrome-trace file written by obs::trace_stop and return every
/// span name's self time, largest first. Throws std::runtime_error when
/// the file cannot be read or parsed.
[[nodiscard]] std::vector<SpanSelf> span_self_times(const std::string& path);

/// {"workload": ..., "spans": [{"name", "count", "total_ms", "self_ms"}]}
[[nodiscard]] std::string layers_json(const std::string& workload,
                                      const std::vector<SpanSelf>& spans);

/// Compare two sets of untraced result files (each a file or a directory
/// of them) under the bounds in `benchmark_json`; prints one row per
/// workload and returns 1 when any row is worse, 2 on unusable input.
int compare_results(const std::string& base, const std::string& cand,
                    const std::string& benchmark_json);

}  // namespace perf_suite
