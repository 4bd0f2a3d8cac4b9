#pragma once
// Offline analysis of flight-recorder metrics streams (tools/tp_report).
//
// The metrics JSONL contract (obs/metrics.hpp) discriminates records by
// their "type" field; this header turns one such stream into a
// RunSummary — per-phase time totals, step-time statistics, and the
// per-kernel shadow-divergence entries — and diffs two summaries under
// configurable regression thresholds. The logic lives here, not in the
// tp_report binary, so tests can drive the exact production paths with
// synthetic streams.
//
// Tolerance contract: a stream may end mid-line (the writer crashed) or
// carry record types this build does not know; summarize() counts both
// instead of failing, because a run-diffing tool that refuses to read a
// crashed run's stream is useless exactly when it is needed most.
//
// Schema: every record type is declared once, in record_types(): its
// fields (name, JSON kind, required flag), the value rules a field list
// cannot express, and how summarize() rolls it up. check_record() and
// check_trace() are the strict side that examples/obs_check gates CI on.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tp::obs::json {
class Value;
}

namespace tp::obs::report {

/// One {"type":"numerics"} record: accumulated divergence of a
/// (kernel, array) pair (see obs/numerics.hpp for field semantics).
struct NumericsEntry {
    std::uint64_t samples = 0;
    std::uint64_t exact = 0;
    std::uint64_t max_ulp = 0;
    double mean_ulp = 0.0;
    double max_rel = 0.0;  ///< 0 when the record carried null (infinite)
    bool max_rel_finite = true;
    double mean_rel = 0.0;
    double sum_abs_err = 0.0;
    double max_abs_ref = 0.0;
    std::vector<std::uint64_t> rel_hist;
    std::int64_t rel_hist_lo_exp = 0;
    std::uint64_t sample_stride = 0;
};

/// One {"type":"governor"} record: a runtime precision transition
/// (fp/governor.hpp) — the governor promoted a kernel to double when its
/// telemetry crossed the drift budget, or demoted it back to float after
/// enough clean steps.
struct GovernorEvent {
    std::int64_t step = 0;
    std::string kernel;
    std::string action;  ///< "promote" | "demote"
    std::string from, to;  ///< "float" / "double"
    std::uint64_t max_ulp = 0;
    double tail_frac = 0.0;
    std::uint64_t samples = 0;
};

/// One {"type":"dist"} record: the per-rank phase split of one
/// distributed step (examples/dam_break_dist). Vectors are indexed by
/// rank and share one length; `wait_s` is the rank's halo stall,
/// everything else is compute.
struct DistStep {
    std::int64_t step = 0;
    double wall_s = 0.0;
    std::vector<double> post_s, precompute_s, interior_s, wait_s,
        boundary_s;
    std::vector<std::uint64_t> halo_bytes;  ///< sent by rank, this step
    std::int64_t resplits = 0;  ///< balancer re-splits during this step

    [[nodiscard]] int ranks() const {
        return static_cast<int>(post_s.size());
    }
    [[nodiscard]] double compute(std::size_t r) const {
        return post_s[r] + precompute_s[r] + interior_s[r] + boundary_s[r];
    }
    [[nodiscard]] double total(std::size_t r) const {
        return compute(r) + wait_s[r];
    }
};

/// Everything tp_report needs from one metrics stream.
struct RunSummary {
    std::string program;
    /// String-valued manifest fields (precision, simd, grid, ...).
    std::map<std::string, std::string> manifest;

    std::int64_t steps = 0;
    double wall_s_total = 0.0;  ///< sum of per-step "wall_s" (0 if absent)
    std::int64_t wall_s_steps = 0;  ///< steps that carried "wall_s"
    double final_time = 0.0;
    std::uint64_t flops = 0;  ///< last cumulative "flops" value
    std::int64_t rezones = 0;  ///< last cumulative "rezones" value
    /// Per-phase wall seconds, summed from the per-step "phase_seconds"
    /// deltas. Includes sub-phases (names with a '_' after a parent
    /// prefix, e.g. rezone_remap under rezone, finite_diff_flux_sweep
    /// under finite_diff — the emitter writes each sub-phase under its
    /// declared parent's prefix, see obs::timer_delta_json).
    std::map<std::string, double> phase_seconds;
    /// key = "kernel/array" (e.g. "clamr.flux_sweep/dh").
    std::map<std::string, NumericsEntry> numerics;
    /// Precision-governor transitions, in stream (= step) order.
    std::vector<GovernorEvent> governor_events;

    std::int64_t checkpoints = 0;  ///< {"type":"checkpoint"} count
    std::uint64_t checkpoint_raw_bytes = 0;      ///< sum over writes
    std::uint64_t checkpoint_written_bytes = 0;  ///< sum over writes
    double checkpoint_write_s = 0.0;  ///< writer-side seconds, summed
    double checkpoint_stall_s = 0.0;  ///< solver-side stall (cumulative
                                      ///< in each record; last wins)

    /// Per-step distributed phase records, in stream (= step) order.
    std::vector<DistStep> dist_steps;

    bool has_trace_record = false;  ///< a {"type":"trace"} record appeared
    std::uint64_t trace_events = 0;  ///< events the trace file holds
    std::uint64_t trace_dropped_events = 0;  ///< lost to the buffer cap

    std::int64_t diagnostics = 0;  ///< {"type":"diagnostic"} count
    std::int64_t probes = 0;       ///< {"type":"probe"} count
    std::int64_t invalid_lines = 0;    ///< unparseable lines (crash tail)
    std::int64_t unknown_records = 0;  ///< valid JSON, unknown "type"

    [[nodiscard]] double mean_step_wall_s() const {
        return wall_s_steps == 0
                   ? 0.0
                   : wall_s_total / static_cast<double>(wall_s_steps);
    }

    /// Fraction of accounted phase time spent in the "rezone" phase.
    /// Sub-phases (rezone_flags, ...) nest inside their parent and are
    /// excluded from the denominator to avoid double counting.
    [[nodiscard]] double rezone_share() const;
};

/// JSON kind of a record field. `Name` is a non-empty string; `Real` is
/// a number or null (the builder writes a non-finite double as null).
enum class Kind { String, Name, Number, Real, Bool, Array, Object };

struct Field {
    const char* name;
    Kind kind;
    bool required;
};

/// One record type of the metrics stream.
struct RecordType {
    const char* type;
    std::vector<Field> fields;
    /// Value rules beyond the field kinds (may be null). They run only on
    /// a record whose fields all have their declared kinds, and append one
    /// problem per broken rule.
    void (*rules)(const json::Value& rec, std::vector<std::string>& problems);
    /// Fold the record into a summary (may be null: nothing to roll up).
    void (*digest)(const json::Value& rec, RunSummary& out);
};

/// The record types of the metrics stream: manifest, step, diagnostic,
/// probe, numerics, governor, table, checkpoint, dist, trace.
[[nodiscard]] const std::vector<RecordType>& record_types();

/// What is wrong with one parsed record: not an object, no or an unknown
/// "type", a required field missing, a field of the wrong kind, or a
/// broken value rule. Empty when the record is valid.
[[nodiscard]] std::vector<std::string> check_record(const json::Value& rec);

/// What is wrong with one parsed Chrome-trace document: no traceEvents
/// array, no span ("X" event) or a span without name/ts/dur/pid/tid, a
/// span name from `required_spans` that no event carries, or halo flow
/// events that do not pair up (unique ids, every start finished once, no
/// finish before its start, every rank reference a declared rank track).
[[nodiscard]] std::vector<std::string> check_trace(
    const json::Value& root, const std::vector<std::string>& required_spans);

/// Digest a metrics stream, one JSONL record per element of `lines`.
/// Never fails: malformed lines / unknown types are counted, not fatal.
/// With `problems`, also checks the stream: every line is a record that
/// passes check_record(), the first is a manifest, and at least one is a
/// step; each violation appends one "line N: ..." or stream-level entry.
/// A stream whose first record is a table is a bench-table stream
/// (TP_TABLE_JSON): there every record must be a table instead.
[[nodiscard]] RunSummary summarize(
    const std::vector<std::string>& lines,
    std::vector<std::string>* problems = nullptr);

/// Read `path` and summarize it. nullopt (with *error set) only when the
/// file cannot be opened — content problems are tolerated per summarize()
/// and listed in `*problems` when given.
[[nodiscard]] std::optional<RunSummary> load_metrics_file(
    const std::string& path, std::string* error,
    std::vector<std::string>* problems = nullptr);

/// Regression limits for diff_runs. A candidate fails when it exceeds
/// baseline * (1 + frac) for fractional limits, baseline * factor for
/// multiplicative ones, or baseline + pts for the share.
struct Thresholds {
    double step_time_frac = 0.20;   ///< mean step wall time: +20%
    double rezone_share_pts = 0.10; ///< rezone time share: +10 points
    double ulp_factor = 2.0;        ///< per-kernel max ULP drift: 2x
    /// Critical-path imbalance share growth: +15 points. Only applies
    /// when both runs carry {"type":"dist"} records.
    double imbalance_share_pts = 0.15;
};

/// One threshold violation. `metric` names what regressed
/// ("mean_step_wall_s", "rezone_share", "max_ulp[clamr.flux_sweep/dh]").
struct Regression {
    std::string metric;
    double baseline = 0.0;
    double candidate = 0.0;
    double limit = 0.0;
};

struct DiffResult {
    std::vector<Regression> regressions;
    /// Informational asymmetries (kernel present in only one run,
    /// step-time comparison skipped because wall_s is missing, ...).
    std::vector<std::string> notes;
    [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Compare candidate against baseline under `t`. Pure function of the
/// two summaries; tp_report turns a non-ok() result into exit code 1.
[[nodiscard]] DiffResult diff_runs(const RunSummary& baseline,
                                   const RunSummary& candidate,
                                   const Thresholds& t);

/// Row of the per-phase rollup table.
struct PhaseRow {
    std::string phase;
    double seconds = 0.0;  ///< inclusive (children counted)
    /// Exclusive time: seconds minus the direct children's seconds —
    /// what the phase itself spent, with nested sub-phase timers
    /// removed. Equals `seconds` for leaves.
    double self_seconds = 0.0;
    double share = 0.0;  ///< of the top-level (non-sub-phase) total
    bool sub_phase = false;
};

/// Phase table data, descending by seconds, sub-phases after their
/// parents. Shares are relative to the top-level phase total.
[[nodiscard]] std::vector<PhaseRow> phase_rollup(const RunSummary& run);

// ---------------------------------------------------------------------------
// Critical-path / imbalance analysis of the distributed pipeline
// (DESIGN.md §15). Consumes the per-step {"type":"dist"} records.
//
// Attribution model: ranks run concurrently between step barriers, so a
// step's attributed wall time is T = max_r(compute_r + wait_r) — the
// rank that bounds the step. That wall decomposes exactly:
//
//   T = mean_r(compute_r)            (compute everyone must do)
//     + mean_r(wait_r)               (halo stall everyone pays)
//     + [T - mean_r(total_r)]        (imbalance: the straggler's excess)
//
// Summed over steps and divided by the summed T, the three shares add to
// 1 by construction — tp_report gates on the imbalance share growing.

/// Per-rank accumulation across every dist step.
struct CriticalPathRank {
    double compute_s = 0.0;
    double wait_s = 0.0;
    std::uint64_t halo_bytes = 0;
    std::int64_t straggler_steps = 0;  ///< steps this rank bounded
};

struct CriticalPathReport {
    std::int64_t steps = 0;  ///< dist records consumed
    int ranks = 0;
    double attributed_s = 0.0;  ///< sum over steps of max-rank total
    double compute_share = 0.0;
    double wait_share = 0.0;
    double imbalance_share = 0.0;  ///< the three sum to 1 exactly
    int straggler_rank = -1;  ///< rank bounding the most steps
    std::vector<CriticalPathRank> per_rank;
    /// Load-balancer effectiveness: imbalance share over the steps
    /// before the first re-split vs. from it onward. Meaningful only
    /// when `resplit_steps > 0` and both windows are non-empty.
    std::int64_t resplit_steps = 0;  ///< steps that re-split the domain
    double imbalance_share_before = 0.0;
    double imbalance_share_after = 0.0;

    [[nodiscard]] bool empty() const { return steps == 0; }
    [[nodiscard]] double mean_attributed_step_s() const {
        return steps == 0 ? 0.0
                          : attributed_s / static_cast<double>(steps);
    }
};

/// Walk run.dist_steps and attribute wall time to compute vs. halo wait
/// vs. imbalance. Records with mismatched array lengths are skipped.
[[nodiscard]] CriticalPathReport critical_path(const RunSummary& run);

}  // namespace tp::obs::report
