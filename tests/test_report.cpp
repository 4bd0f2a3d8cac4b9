// Tests for the offline metrics analyzer (obs/report.hpp) that backs
// tools/tp_report: stream digestion (manifest/step/numerics records,
// crash-truncated tails, unknown types), the per-phase rollup, and the
// baseline-vs-candidate regression gate with its three thresholds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "obs/report.hpp"
#include "par/dist_shallow.hpp"
#include "shallow/solver.hpp"
#include "util/timing.hpp"

namespace report = tp::obs::report;
namespace json = tp::obs::json;
namespace obs = tp::obs;

namespace {

std::string manifest_line() {
    return json::Object()
        .field("type", "manifest")
        .field("program", "dam_break")
        .field("precision", "mixed")
        .field("grid", "32")
        .str();
}

std::string step_line(double wall_s, double rezone_s, double flux_s,
                      int rezones = 0) {
    const std::string phases = json::Object()
                                   .field("finite_diff", flux_s)
                                   .field("rezone", rezone_s)
                                   .field("rezone_remap", rezone_s * 0.5)
                                   .str();
    return json::Object()
        .field("type", "step")
        .field("t", 0.1)
        .field("dt", 0.01)
        .field("wall_s", wall_s)
        .field("rezones", rezones)
        .field("flops", std::uint64_t{1000})
        .field_raw("phase_seconds", phases)
        .str();
}

std::string numerics_line(const std::string& kernel,
                          const std::string& array, std::uint64_t max_ulp) {
    obs::DivergenceStats s;
    s.samples = 100;
    s.exact = 90;
    s.max_ulp = max_ulp;
    s.sum_ulp = static_cast<double>(max_ulp) * 10.0;
    s.max_rel = 1e-7;
    s.rel_hist[0] = 100;
    return obs::numerics_record_json(kernel, array, s);
}

// ------------------------------------------------------------- summarize

TEST(Summarize, DigestsManifestStepsAndNumerics) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.010, 0.002, 0.006, 1),
         step_line(0.020, 0.002, 0.006, 1),
         numerics_line("clamr.flux_sweep", "dh", 3)});
    EXPECT_EQ(run.program, "dam_break");
    EXPECT_EQ(run.manifest.at("precision"), "mixed");
    EXPECT_EQ(run.steps, 2);
    EXPECT_DOUBLE_EQ(run.wall_s_total, 0.030);
    EXPECT_DOUBLE_EQ(run.mean_step_wall_s(), 0.015);
    EXPECT_EQ(run.rezones, 1);
    EXPECT_DOUBLE_EQ(run.phase_seconds.at("finite_diff"), 0.012);
    ASSERT_EQ(run.numerics.count("clamr.flux_sweep/dh"), 1u);
    EXPECT_EQ(run.numerics.at("clamr.flux_sweep/dh").max_ulp, 3u);
    EXPECT_EQ(run.invalid_lines, 0);
    EXPECT_EQ(run.unknown_records, 0);
}

TEST(Summarize, ToleratesCrashTruncatedTailAndUnknownTypes) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.01, 0.0, 0.01),
         "{\"type\":\"wibble\",\"x\":1}", "{\"type\":\"step\",\"t\":0.2,"});
    EXPECT_EQ(run.steps, 1);
    EXPECT_EQ(run.unknown_records, 1);
    EXPECT_EQ(run.invalid_lines, 1);
}

TEST(Summarize, EmptyStreamYieldsEmptySummary) {
    const report::RunSummary run = report::summarize({});
    EXPECT_EQ(run.steps, 0);
    EXPECT_EQ(run.mean_step_wall_s(), 0.0);
    EXPECT_EQ(run.rezone_share(), 0.0);
    EXPECT_TRUE(report::phase_rollup(run).empty());
}

TEST(Summarize, NullMaxRelMarksInfiniteDivergence) {
    obs::DivergenceStats s;
    s.observe(1.0f, 0.0);  // rel = inf -> null in the record
    const report::RunSummary run =
        report::summarize({obs::numerics_record_json("k", "a", s)});
    ASSERT_EQ(run.numerics.count("k/a"), 1u);
    EXPECT_FALSE(run.numerics.at("k/a").max_rel_finite);
}

// ---------------------------------------------------------- phase rollup

TEST(PhaseRollup, SubPhasesNestAndSharesExcludeThem) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.01, 0.002, 0.006)});
    // rezone_share denominator is finite_diff + rezone (rezone_remap is a
    // sub-phase of rezone and must not double count).
    EXPECT_NEAR(run.rezone_share(), 0.002 / 0.008, 1e-12);
    const auto rows = report::phase_rollup(run);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].phase, "finite_diff");
    EXPECT_FALSE(rows[0].sub_phase);
    EXPECT_EQ(rows[1].phase, "rezone");
    EXPECT_EQ(rows[2].phase, "rezone_remap");
    EXPECT_TRUE(rows[2].sub_phase);
    EXPECT_NEAR(rows[0].share + rows[1].share, 1.0, 1e-12);
}

// Step records as dam_break and dam_break_dist write them: the step wall
// around step(), the phase deltas from timer_delta_json, and the running
// rezone total.
template <class Solver>
std::vector<std::string> example_step_records(Solver& solver, int steps) {
    std::vector<std::string> lines;
    std::map<std::string, double> previous;
    for (int k = 0; k < steps; ++k) {
        tp::util::WallTimer step_timer;
        solver.step();
        json::Object rec;
        rec.field("type", "step").field("wall_s", step_timer.elapsed_seconds());
        if constexpr (requires { solver.rezone_stats(); })
            rec.field("rezones", solver.rezone_stats().rezones);
        rec.field_raw("phase_seconds",
                      tp::obs::timer_delta_json(solver.timers(), previous));
        lines.push_back(std::move(rec).str());
    }
    return lines;
}

// The rollup of a real run: every sub-phase sits under its parent, and
// the top-level phases are disjoint, so they fit inside the step walls
// and their shares sum to one.
void expect_disjoint_top_level(const report::RunSummary& run) {
    double top_seconds = 0.0, top_share = 0.0;
    for (const report::PhaseRow& row : report::phase_rollup(run))
        if (!row.sub_phase) {
            top_seconds += row.seconds;
            top_share += row.share;
        }
    EXPECT_NEAR(top_share, 1.0, 1e-12);
    EXPECT_GT(top_seconds, 0.0);
    EXPECT_LE(top_seconds, run.wall_s_total);
}

TEST(PhaseRollup, RealClamrRunNestsFluxSweepAndCountsRezones) {
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 3};
    cfg.rezone_interval = 2;
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break({});
    const report::RunSummary run =
        report::summarize(example_step_records(solver, 12));

    EXPECT_EQ(run.rezones,
              static_cast<std::int64_t>(solver.rezone_stats().rezones));
    EXPECT_EQ(run.phase_seconds.count("flux_sweep"), 0u);
    EXPECT_EQ(run.phase_seconds.count("rezone_flags"), 1u);
    const auto rows = report::phase_rollup(run);
    const auto at = [&](const std::string& phase) {
        return std::find_if(rows.begin(), rows.end(),
                            [&](const report::PhaseRow& r) {
                                return r.phase == phase;
                            });
    };
    const auto parent = at("finite_diff");
    const auto sweep = at("finite_diff_flux_sweep");
    ASSERT_NE(parent, rows.end());
    ASSERT_NE(sweep, rows.end());
    EXPECT_FALSE(parent->sub_phase);
    EXPECT_TRUE(sweep->sub_phase);
    // Listed under its parent: after it, with no top-level row between.
    ASSERT_LT(parent, sweep);
    EXPECT_TRUE(std::all_of(parent + 1, sweep, [](const report::PhaseRow& r) {
        return r.sub_phase;
    }));
    EXPECT_LT(sweep->seconds, parent->seconds);
    expect_disjoint_top_level(run);
}

TEST(PhaseRollup, RealDistRunHasNoStepRow) {
    tp::par::DistConfig cfg;
    cfg.nx = cfg.ny = 32;
    cfg.ranks = 3;
    tp::par::DistributedShallowSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break();
    const report::RunSummary run =
        report::summarize(example_step_records(solver, 6));

    EXPECT_EQ(run.phase_seconds.count("step"), 0u);
    EXPECT_EQ(run.phase_seconds.count("interior"), 1u);
    expect_disjoint_top_level(run);
}

// ------------------------------------------------------------------ diff

report::RunSummary baseline_run() {
    return report::summarize({manifest_line(),
                              step_line(0.010, 0.001, 0.008),
                              step_line(0.010, 0.001, 0.008),
                              numerics_line("clamr.flux_sweep", "dh", 10)});
}

TEST(Diff, IdenticalRunsPass) {
    const auto base = baseline_run();
    const auto diff = report::diff_runs(base, base, {});
    EXPECT_TRUE(diff.ok()) << (diff.regressions.empty()
                                   ? ""
                                   : diff.regressions[0].metric);
}

TEST(Diff, StepTimeRegressionPastThresholdFails) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.013, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 10)});
    report::Thresholds t;
    t.step_time_frac = 0.20;
    const auto diff = report::diff_runs(base, cand, t);
    ASSERT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions[0].metric, "mean_step_wall_s");
    // +30% fails the 20% gate but passes a 50% one.
    t.step_time_frac = 0.50;
    EXPECT_TRUE(report::diff_runs(base, cand, t).ok());
}

TEST(Diff, UlpDriftPastFactorFails) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 21)});  // > 2 x 10
    const auto diff = report::diff_runs(base, cand, {});
    ASSERT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions[0].metric, "max_ulp[clamr.flux_sweep/dh]");
    EXPECT_EQ(diff.regressions[0].baseline, 10.0);
    EXPECT_EQ(diff.regressions[0].candidate, 21.0);
    // Exactly 2x is allowed.
    const auto cand2x = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 20)});
    EXPECT_TRUE(report::diff_runs(base, cand2x, {}).ok());
}

TEST(Diff, NewDriftWhereBaselineWasExactFails) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 0)});
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 1)});
    EXPECT_FALSE(report::diff_runs(base, cand, {}).ok());
}

TEST(Diff, RezoneShareGrowthPastPointsFails) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.009)});  // 10% share
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.003, 0.007)});  // 30% share
    report::Thresholds t;
    t.rezone_share_pts = 0.10;
    const auto diff = report::diff_runs(base, cand, t);
    ASSERT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions[0].metric, "rezone_share");
    t.rezone_share_pts = 0.25;
    EXPECT_TRUE(report::diff_runs(base, cand, t).ok());
}

TEST(Diff, KernelAsymmetryIsANoteNotARegression) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 10),
         numerics_line("sem.rhs", "rho", 5)});
    const auto diff = report::diff_runs(base, cand, {});
    EXPECT_TRUE(diff.ok());
    ASSERT_FALSE(diff.notes.empty());
    EXPECT_NE(diff.notes[0].find("sem.rhs/rho"), std::string::npos);
}

TEST(Diff, MissingWallSecondsSkipsStepTimeWithNote) {
    // Baseline steps carry phase timings (so the rezone-share gate is
    // comparable) but no wall_s — the step-time gate must skip, not trip.
    const std::string phases =
        json::Object().field("finite_diff", 0.008).field("rezone", 0.001)
            .str();
    const auto base = report::summarize(
        {manifest_line(), json::Object()
                              .field("type", "step")
                              .field("t", 0.1)
                              .field_raw("phase_seconds", phases)
                              .str(),
         numerics_line("clamr.flux_sweep", "dh", 10)});
    const auto cand = baseline_run();
    const auto diff = report::diff_runs(base, cand, {});
    EXPECT_TRUE(diff.ok());
    bool noted = false;
    for (const auto& note : diff.notes)
        if (note.find("wall_s") != std::string::npos) noted = true;
    EXPECT_TRUE(noted);
}

// ---------------------------------------------- dist digestion + critical path

// One {"type":"dist"} record. Per-rank compute seconds come from
// `compute`, per-rank wait from `wait`; post/interior/boundary are folded
// into compute via the post_s array to keep the arithmetic transparent.
std::string dist_line(const std::vector<double>& compute,
                      const std::vector<double>& wait,
                      std::int64_t resplits = 0, int step = 1) {
    auto arr = [](const std::vector<double>& v) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out.push_back(',');
            json::append_number(out, v[i]);
        }
        out.push_back(']');
        return out;
    };
    const std::vector<double> zero(compute.size(), 0.0);
    std::string bytes = "[";
    for (std::size_t i = 0; i < compute.size(); ++i) {
        if (i != 0) bytes.push_back(',');
        bytes += "1000";
    }
    bytes.push_back(']');
    double wall = 0.0;
    for (std::size_t r = 0; r < compute.size(); ++r)
        wall = std::max(wall, compute[r] + wait[r]);
    return json::Object()
        .field("type", "dist")
        .field("step", step)
        .field("ranks", static_cast<std::int64_t>(compute.size()))
        .field("wall_s", wall)
        .field_raw("post_s", arr(compute))
        .field_raw("precompute_s", arr(zero))
        .field_raw("interior_s", arr(zero))
        .field_raw("wait_s", arr(wait))
        .field_raw("boundary_s", arr(zero))
        .field_raw("halo_bytes", bytes)
        .field("resplits", resplits)
        .str();
}

TEST(Summarize, DigestsDistAndTraceRecords) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.004, 0.002}, {0.0, 0.001}),
         json::Object()
             .field("type", "trace")
             .field("events", std::uint64_t{42})
             .field("dropped", std::uint64_t{7})
             .str()});
    ASSERT_EQ(run.dist_steps.size(), 1u);
    EXPECT_EQ(run.dist_steps[0].ranks(), 2);
    EXPECT_DOUBLE_EQ(run.dist_steps[0].compute(0), 0.004);
    EXPECT_DOUBLE_EQ(run.dist_steps[0].total(1), 0.003);
    EXPECT_EQ(run.dist_steps[0].halo_bytes[0], 1000u);
    EXPECT_TRUE(run.has_trace_record);
    EXPECT_EQ(run.trace_events, 42u);
    EXPECT_EQ(run.trace_dropped_events, 7u);
    EXPECT_EQ(run.unknown_records, 0);
}

TEST(CriticalPath, SharesSumToOneAndNameTheStraggler) {
    // Rank 0 bounds every step: compute {4,2} ms, wait {0,1} ms.
    // Per step: T = 4 ms, mean compute = 3 ms, mean wait = 0.5 ms,
    // imbalance = 4 - 3.5 = 0.5 ms.
    const report::RunSummary run = report::summarize(
        {manifest_line(), dist_line({0.004, 0.002}, {0.0, 0.001}, 0, 1),
         dist_line({0.004, 0.002}, {0.0, 0.001}, 0, 2)});
    const auto cp = report::critical_path(run);
    ASSERT_FALSE(cp.empty());
    EXPECT_EQ(cp.steps, 2);
    EXPECT_EQ(cp.ranks, 2);
    EXPECT_NEAR(cp.attributed_s, 0.008, 1e-12);
    EXPECT_NEAR(cp.compute_share, 0.003 / 0.004, 1e-12);
    EXPECT_NEAR(cp.wait_share, 0.0005 / 0.004, 1e-12);
    EXPECT_NEAR(cp.imbalance_share, 0.0005 / 0.004, 1e-12);
    EXPECT_NEAR(
        cp.compute_share + cp.wait_share + cp.imbalance_share, 1.0, 1e-12);
    EXPECT_EQ(cp.straggler_rank, 0);
    ASSERT_EQ(cp.per_rank.size(), 2u);
    EXPECT_EQ(cp.per_rank[0].straggler_steps, 2);
    EXPECT_EQ(cp.per_rank[1].straggler_steps, 0);
    EXPECT_EQ(cp.per_rank[0].halo_bytes, 2000u);
}

TEST(CriticalPath, ResplitSplitsTheImbalanceWindows) {
    // Imbalanced before the re-split, perfectly balanced from it onward
    // (the re-split runs at the head of its step, so that step counts as
    // "after").
    const report::RunSummary run = report::summarize(
        {manifest_line(), dist_line({0.004, 0.002}, {0.0, 0.0}, 0, 1),
         dist_line({0.003, 0.003}, {0.0, 0.0}, 1, 2),
         dist_line({0.003, 0.003}, {0.0, 0.0}, 0, 3)});
    const auto cp = report::critical_path(run);
    EXPECT_EQ(cp.resplit_steps, 1);
    EXPECT_NEAR(cp.imbalance_share_before, 0.001 / 0.004, 1e-12);
    EXPECT_NEAR(cp.imbalance_share_after, 0.0, 1e-12);
}

TEST(CriticalPath, SkipsMalformedRecordsAndEmptyRuns) {
    EXPECT_TRUE(report::critical_path(report::summarize({})).empty());
    // A record whose arrays disagree with the run's rank count is skipped
    // by the analyzer; the valid one still contributes.
    const report::RunSummary run = report::summarize(
        {manifest_line(), dist_line({0.004, 0.002}, {0.0, 0.0}),
         "{\"type\":\"dist\",\"step\":2,\"ranks\":2,\"wall_s\":0.1,"
         "\"post_s\":[0.1],\"precompute_s\":[0.1],\"interior_s\":[0.1],"
         "\"wait_s\":[0.1],\"boundary_s\":[0.1],\"halo_bytes\":[1],"
         "\"resplits\":0}"});
    const auto cp = report::critical_path(run);
    EXPECT_EQ(cp.steps, 1);
}

TEST(PhaseRollup, SelfTimeExcludesDirectChildren) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.01, 0.002, 0.006)});
    const auto rows = report::phase_rollup(run);
    ASSERT_EQ(rows.size(), 3u);
    // rezone: 0.002 inclusive, child rezone_remap 0.001 -> self 0.001.
    EXPECT_EQ(rows[1].phase, "rezone");
    EXPECT_NEAR(rows[1].self_seconds, 0.001, 1e-12);
    // Leaves keep self == inclusive.
    EXPECT_NEAR(rows[0].self_seconds, rows[0].seconds, 1e-12);
    EXPECT_NEAR(rows[2].self_seconds, rows[2].seconds, 1e-12);
}

TEST(Diff, ImbalanceShareGrowthPastPointsFails) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.003, 0.003}, {0.0, 0.0})});  // balanced
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.006, 0.002}, {0.0, 0.0})});  // imbalance 1/3
    report::Thresholds t;
    t.imbalance_share_pts = 0.15;
    const auto diff = report::diff_runs(base, cand, t);
    bool found = false;
    for (const auto& r : diff.regressions)
        if (r.metric == "dist_imbalance_share") found = true;
    EXPECT_TRUE(found);
    // Inside the allowance it passes.
    report::Thresholds loose;
    loose.imbalance_share_pts = 0.50;
    EXPECT_TRUE(report::diff_runs(base, cand, loose).ok());
}

TEST(Diff, HaloByteDriftIsARegressionWhenComparable) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.003, 0.003}, {0.0, 0.0})});
    // Same shape, same (zero) resplits, different bytes: deterministic
    // traffic changed -> regression.
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         "{\"type\":\"dist\",\"step\":1,\"ranks\":2,\"wall_s\":0.003,"
         "\"post_s\":[0.003,0.003],\"precompute_s\":[0,0],"
         "\"interior_s\":[0,0],\"wait_s\":[0,0],\"boundary_s\":[0,0],"
         "\"halo_bytes\":[1000,999],\"resplits\":0}"});
    const auto diff = report::diff_runs(base, cand, {});
    bool found = false;
    for (const auto& r : diff.regressions)
        if (r.metric == "dist_halo_bytes") found = true;
    EXPECT_TRUE(found);

    // A resplit-count mismatch makes byte totals legitimately diverge
    // (block-solver traffic depends on the partition) -> note, not gate.
    const auto resplit_cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         "{\"type\":\"dist\",\"step\":1,\"ranks\":2,\"wall_s\":0.003,"
         "\"post_s\":[0.003,0.003],\"precompute_s\":[0,0],"
         "\"interior_s\":[0,0],\"wait_s\":[0,0],\"boundary_s\":[0,0],"
         "\"halo_bytes\":[1000,999],\"resplits\":1}"});
    const auto skipped = report::diff_runs(base, resplit_cand, {});
    for (const auto& r : skipped.regressions)
        EXPECT_NE(r.metric, "dist_halo_bytes");
}

TEST(Diff, DistPresentInOnlyOneRunIsANote) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.003, 0.003}, {0.0, 0.0})});
    const auto diff = report::diff_runs(base, cand, {});
    EXPECT_TRUE(diff.ok());
    bool noted = false;
    for (const auto& note : diff.notes)
        if (note.find("dist") != std::string::npos) noted = true;
    EXPECT_TRUE(noted);
}

TEST(Diff, InfiniteMaxRelAppearingIsARegression) {
    obs::DivergenceStats inf_stats;
    inf_stats.observe(1.0f, 0.0);
    const auto base = baseline_run();
    auto cand_lines = std::vector<std::string>{
        manifest_line(), step_line(0.010, 0.001, 0.008),
        obs::numerics_record_json("clamr.flux_sweep", "dh", inf_stats)};
    const auto cand = report::summarize(cand_lines);
    // max_ulp also regressed here (inf observation counts ULPs), so just
    // assert the infinite-rel regression is among them.
    const auto diff = report::diff_runs(base, cand, {});
    bool found = false;
    for (const auto& r : diff.regressions)
        if (r.metric.find("became infinite") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
}

}  // namespace
