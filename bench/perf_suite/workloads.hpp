#pragma once
// The suite's workloads: the paper's canonical runs (CLAMR dam break on
// adaptive and uniform meshes, with and without asynchronous compressed
// checkpoints; the SELF thermal bubble in single and double precision;
// the 8-rank distributed dam break), the seeded input generator, and one
// timed repeat of a workload as a closed loop over the solver's public
// API.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perf_suite {

enum class Family { Clamr, Sem, Dist };

/// Steps between total-mass diagnostics, as the example programs emit them.
inline constexpr int kDiagnosticInterval = 10;
/// Steps between asynchronous checkpoints in a checkpointing workload.
inline constexpr int kCheckpointInterval = 20;

struct WorkloadSpec {
    const char* name = "";
    const char* why = "";
    Family family = Family::Clamr;
    const char* precision = "";  ///< "minimum" | "mixed"
    int grid = 0;      ///< CLAMR coarse / dist global cells per side
    int levels = 0;    ///< CLAMR max AMR level
    int elements = 0;  ///< SEM elements per side
    int order = 0;     ///< SEM polynomial order
    int ranks = 0;     ///< dist virtual ranks
    int steps = 0;     ///< solver steps per repeat
    bool checkpoint = false;  ///< async drift checkpoint every 20 steps
    double mass_tol = 0.0;    ///< bound on |relative mass drift|
    double cut_tol = 0.0;     ///< bound on cut_l1_vs_full
    /// Final-state digest of one seed-0 repeat at these sizes on the
    /// reference host (hex). Compared for information only: another
    /// compiler or libm may legitimately change the bits.
    const char* canonical_digest = "";
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
/// The same workload at a size that runs in well under a second.
[[nodiscard]] WorkloadSpec quick_variant(WorkloadSpec w);

/// Initial-condition parameters in the order the solvers take them.
using Params = std::vector<std::pair<std::string, double>>;

/// Seed 0 gives the canonical inputs; any other seed scales each
/// parameter by an independent uniform draw in [0.95, 1.05).
[[nodiscard]] Params draw_params(const WorkloadSpec& w, std::uint64_t seed);

struct RepeatOptions {
    std::string trace_path;   ///< non-empty: record this repeat's trace
    std::string scratch_dir;  ///< checkpoint files of this repeat
    bool setup_only = false;  ///< stop after setup; only setup_s is set
};

/// Everything one repeat measured and checked. A repeat is setup
/// (construction plus initialisation) followed by the timed window
/// (w.steps closed-loop steps, the diagnostics, the checkpoints).
struct RepeatResult {
    double setup_s = 0.0;
    double wall_s = 0.0;                ///< whole timed window
    std::vector<double> step_s;         ///< each step() call
    double updates = 0.0;               ///< cell or node updates
    double rss_growth_bytes = 0.0;      ///< VmRSS end of window - before setup
    std::uint64_t trace_events = 0;     ///< traced repeats only
    // Checks on the final state.
    std::uint64_t digest = 0;
    bool finite = false;
    bool drained = true;        ///< dist: no unconsumed halo traffic
    bool readback_ok = true;    ///< checkpoint reads back within bound
    double mass_drift = 0.0;    ///< |relative drift| over the window
    std::vector<double> cut;    ///< centre line cut of the final state
    /// Per-layer metrics by name (see BENCHMARK.json's per_layer list).
    std::map<std::string, double> layer;
    /// Work counts that must repeat exactly from repeat to repeat.
    std::map<std::string, double> counts;
};

[[nodiscard]] RepeatResult run_repeat(const WorkloadSpec& w,
                                      const Params& params,
                                      const RepeatOptions& opt);

/// Centre line cut of a same-seed full-precision run of the same
/// workload (w.steps steps, untimed), the reference of cut_l1_vs_full.
[[nodiscard]] std::vector<double> reference_cut(const WorkloadSpec& w,
                                                const Params& params);

/// Resident set size of this process, bytes (0 where unavailable).
[[nodiscard]] double vmrss_bytes();

}  // namespace perf_suite
