#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fp/governor.hpp"
#include "obs/json.hpp"
#include "perf/counters.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "simd/pack.hpp"

using namespace tp;

namespace {

// Synthetic float-lattice telemetry: `max_ulp` drift, all samples in the
// finest relative-error bucket (no tail).
obs::DivergenceStats drift(std::uint64_t max_ulp,
                           std::uint64_t samples = 100) {
    obs::DivergenceStats s;
    s.samples = samples;
    s.max_ulp = max_ulp;
    s.sum_ulp = static_cast<double>(max_ulp * samples);
    s.exact = max_ulp == 0 ? samples : 0;
    s.rel_hist[0] = samples;
    return s;
}

// Telemetry whose ULP drift is negligible but whose relative-error tail
// (the top histogram bucket, >= 10^-6) holds `tail` of `samples`.
obs::DivergenceStats tailed(std::uint64_t tail, std::uint64_t samples) {
    obs::DivergenceStats s;
    s.samples = samples;
    s.max_ulp = 1;
    s.sum_ulp = static_cast<double>(samples);
    s.rel_hist[fp::kRelHistBuckets - 1] = tail;
    s.rel_hist[0] = samples - tail;
    return s;
}

fp::GovernorConfig enabled_config() {
    fp::GovernorConfig cfg;
    cfg.enabled = true;
    cfg.drift_budget_ulp = 10;
    cfg.tail_budget_frac = 0.01;
    cfg.hysteresis = 3;
    cfg.warmup = 2;
    return cfg;
}

// A budget every reduced step crosses: the governor promotes after the
// warmup step and demotes after each clean hysteresis window, so a run
// computes steps in both regimes.
fp::GovernorConfig zero_budget_config() {
    fp::GovernorConfig cfg;
    cfg.enabled = true;
    cfg.drift_budget_ulp = 0;
    cfg.tail_budget_frac = 0.0;
    cfg.warmup = 1;
    cfg.hysteresis = 3;
    return cfg;
}

// The governor's single kernel ran some observed steps reduced (float)
// and some promoted (double).
void expect_both_regimes(const fp::PrecisionGovernor& gov) {
    EXPECT_GT(gov.reduced_steps(0), 0u);
    EXPECT_LT(gov.reduced_steps(0), gov.observed_steps(0));
}

}  // namespace

// ------------------------------------------------------------- unit loop

TEST(Governor, StartsReducedAndRegistrationIsIdempotent) {
    fp::PrecisionGovernor gov(enabled_config());
    const int id = gov.register_kernel("clamr.flux_sweep");
    EXPECT_TRUE(gov.reduced(id));
    EXPECT_EQ(gov.register_kernel("clamr.flux_sweep"), id);
    EXPECT_NE(gov.register_kernel("sem.rhs"), id);
}

TEST(Governor, StaysDemotedUnderBudget) {
    fp::PrecisionGovernor gov(enabled_config());
    const int id = gov.register_kernel("k");
    for (int step = 1; step <= 20; ++step) {
        gov.observe(id, drift(10));  // exactly at budget, never over
        gov.end_step(step);
    }
    EXPECT_TRUE(gov.reduced(id));
    EXPECT_TRUE(gov.decisions().empty());
    EXPECT_EQ(gov.reduced_steps(id), 20u);
    EXPECT_EQ(gov.observed_steps(id), 20u);
}

TEST(Governor, PromotesOnUlpDriftAfterWarmup) {
    fp::PrecisionGovernor gov(enabled_config());  // warmup = 2
    const int id = gov.register_kernel("k");
    for (int step = 1; step <= 2; ++step) {
        gov.observe(id, drift(50));
        gov.end_step(step);
        EXPECT_TRUE(gov.reduced(id)) << "promoted during warmup";
    }
    gov.observe(id, drift(50));
    gov.end_step(3);
    EXPECT_FALSE(gov.reduced(id));
    ASSERT_EQ(gov.decisions().size(), 1u);
    EXPECT_EQ(gov.decisions()[0].action, "promote");
    EXPECT_EQ(gov.decisions()[0].step, 3);
    EXPECT_EQ(gov.decisions()[0].max_ulp, 50u);
}

TEST(Governor, PromotesOnRelativeErrorTail) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.drift_budget_ulp = 1000000;  // the tail must trigger on its own
    cfg.warmup = 0;
    fp::PrecisionGovernor gov(cfg);
    const int id = gov.register_kernel("k");
    gov.observe(id, tailed(2, 200));  // 1% tail: at budget, clean
    gov.end_step(1);
    EXPECT_TRUE(gov.reduced(id));
    gov.observe(id, tailed(5, 200));  // 2.5% tail: over budget
    gov.end_step(2);
    EXPECT_FALSE(gov.reduced(id));
    ASSERT_EQ(gov.decisions().size(), 1u);
    EXPECT_DOUBLE_EQ(gov.decisions()[0].tail_frac, 5.0 / 200.0);
}

TEST(Governor, TailFractionCountsConfiguredDecades) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.tail_exp = -6;  // top bucket only
    const fp::PrecisionGovernor gov(cfg);
    EXPECT_DOUBLE_EQ(gov.tail_fraction(tailed(3, 300)), 0.01);
    EXPECT_DOUBLE_EQ(gov.tail_fraction(drift(4, 100)), 0.0);
    EXPECT_DOUBLE_EQ(gov.tail_fraction(obs::DivergenceStats{}), 0.0);
}

TEST(Governor, HysteresisDemotesAfterCleanWindow) {
    fp::PrecisionGovernor gov(enabled_config());  // hysteresis = 3
    const int id = gov.register_kernel("k");
    gov.observe(id, drift(50));
    gov.end_step(1);
    gov.observe(id, drift(50));
    gov.end_step(2);
    gov.observe(id, drift(50));
    gov.end_step(3);  // promote
    ASSERT_FALSE(gov.reduced(id));
    for (int step = 4; step <= 5; ++step) {
        gov.observe(id, drift(0));
        gov.end_step(step);
        EXPECT_FALSE(gov.reduced(id)) << "demoted before the window";
    }
    gov.observe(id, drift(0));
    gov.end_step(6);  // third consecutive clean promoted step
    EXPECT_TRUE(gov.reduced(id));
    ASSERT_EQ(gov.decisions().size(), 2u);
    EXPECT_EQ(gov.decisions()[1].action, "demote");
    EXPECT_EQ(gov.decisions()[1].step, 6);
    EXPECT_EQ(gov.decisions()[1].clean_steps, 3);
}

TEST(Governor, NoisyPromotedStepResetsTheCleanWindow) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.warmup = 0;
    cfg.hysteresis = 2;
    fp::PrecisionGovernor gov(cfg);
    const int id = gov.register_kernel("k");
    gov.observe(id, drift(50));
    gov.end_step(1);  // promote
    ASSERT_FALSE(gov.reduced(id));
    gov.observe(id, drift(0));
    gov.end_step(2);  // clean 1/2
    gov.observe(id, drift(50));
    gov.end_step(3);  // noisy: window resets
    gov.observe(id, drift(0));
    gov.end_step(4);  // clean 1/2 again
    EXPECT_FALSE(gov.reduced(id));
    gov.observe(id, drift(0));
    gov.end_step(5);  // clean 2/2: demote
    EXPECT_TRUE(gov.reduced(id));
    ASSERT_EQ(gov.decisions().size(), 2u);
    EXPECT_EQ(gov.decisions()[1].step, 5);
}

TEST(Governor, IdleAndMultiObserveStepsAccumulateCorrectly) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.warmup = 0;
    fp::PrecisionGovernor gov(cfg);
    const int id = gov.register_kernel("k");
    gov.end_step(1);  // no telemetry: the step does not count
    EXPECT_EQ(gov.observed_steps(id), 0u);
    // Two observations in one step (several RK stages) merge before the
    // decision: 6 + 6 ULP stays under the budget of 10.
    gov.observe(id, drift(6));
    gov.observe(id, drift(6));
    gov.end_step(2);
    EXPECT_EQ(gov.observed_steps(id), 1u);
    EXPECT_TRUE(gov.reduced(id));
    // But the merged max-ULP is the max, and a single over-budget stage
    // promotes even if the other stage was clean.
    gov.observe(id, drift(0));
    gov.observe(id, drift(99));
    gov.end_step(3);
    EXPECT_FALSE(gov.reduced(id));
}

TEST(Governor, ReRegistrationResetsKernelState) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.warmup = 0;
    fp::PrecisionGovernor gov(cfg);
    int id = gov.register_kernel("k");
    gov.observe(id, drift(50));
    gov.end_step(1);
    ASSERT_FALSE(gov.reduced(id));
    id = gov.register_kernel("k");  // solver re-attached after re-init
    EXPECT_TRUE(gov.reduced(id));
    EXPECT_EQ(gov.observed_steps(id), 0u);
    EXPECT_EQ(gov.reduced_steps(id), 0u);
}

TEST(Governor, DisabledGovernorNeverDecides) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.enabled = false;
    fp::PrecisionGovernor gov(cfg);
    const int id = gov.register_kernel("k");
    for (int step = 1; step <= 10; ++step) {
        gov.observe(id, drift(1 << 20));
        gov.end_step(step);
    }
    EXPECT_TRUE(gov.reduced(id));
    EXPECT_TRUE(gov.decisions().empty());
}

TEST(Governor, TransitionRecordsAreValidJsonAndReachTheSink) {
    fp::GovernorConfig cfg = enabled_config();
    cfg.warmup = 0;
    cfg.hysteresis = 1;
    fp::PrecisionGovernor gov(cfg);
    std::vector<std::string> lines;
    gov.set_record_sink([&](const std::string& l) { lines.push_back(l); });
    const int id = gov.register_kernel("clamr.flux_sweep");
    gov.observe(id, drift(50));
    gov.end_step(7);  // promote
    gov.observe(id, drift(0));
    gov.end_step(8);  // demote
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string& l : lines) {
        EXPECT_TRUE(obs::json::valid(l)) << l;
        EXPECT_NE(l.find("\"type\":\"governor\""), std::string::npos);
        EXPECT_NE(l.find("\"kernel\":\"clamr.flux_sweep\""),
                  std::string::npos);
        EXPECT_NE(l.find("\"drift_budget_ulp\":10"), std::string::npos);
    }
    EXPECT_NE(lines[0].find("\"action\":\"promote\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"from\":\"float\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"to\":\"double\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"action\":\"demote\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"from\":\"double\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"to\":\"float\""), std::string::npos);
}

// --------------------------------------------- solver integration: CLAMR

namespace {

template <typename P>
std::string clamr_checkpoint(int grid, int levels, simd::Mode mode,
                             int steps, fp::PrecisionGovernor* gov,
                             perf::WorkLedger* ledger = nullptr) {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, grid, grid, levels};
    cfg.simd = mode;
    shallow::ShallowWaterSolver<P> s(cfg);
    if (gov != nullptr) s.set_governor(gov);
    s.initialize_dam_break({});
    for (int i = 0; i < steps; ++i) {
        s.step();
        if (gov != nullptr) gov->end_step(s.step_count());
    }
    if (ledger != nullptr) *ledger = s.ledger();
    std::ostringstream os;
    s.write_checkpoint(os);
    return os.str();
}

template <typename P>
void expect_off_governor_identical() {
    for (const simd::Mode mode : {simd::Mode::Native, simd::Mode::Scalar})
        for (const int grid : {12, 16}) {
            const int levels = grid == 12 ? 1 : 2;
            const std::string plain =
                clamr_checkpoint<P>(grid, levels, mode, 8, nullptr);
            fp::GovernorConfig off;  // enabled = false
            fp::PrecisionGovernor gov(off);
            const std::string governed =
                clamr_checkpoint<P>(grid, levels, mode, 8, &gov);
            EXPECT_EQ(governed, plain)
                << "policy=" << P::name << " simd=" << simd::to_string(mode)
                << " grid=" << grid;
        }
}

}  // namespace

// 12 configurations (3 policies x 2 simd x 2 grids): attaching a disabled
// governor must be bit-invisible — the --governor=off contract.
TEST(GovernorClamr, OffGovernorIsBitInvisibleAcrossConfigs) {
    expect_off_governor_identical<fp::MinimumPrecision>();
    expect_off_governor_identical<fp::MixedPrecision>();
    expect_off_governor_identical<fp::FullPrecision>();
}

// An enabled governor whose budget can never be crossed leaves a
// float-compute policy on its native kernels; the monitor only reads.
TEST(GovernorClamr, UncrossableBudgetIsBitInvisibleOnFloatCompute) {
    const std::string plain = clamr_checkpoint<fp::MinimumPrecision>(
        16, 2, simd::Mode::Native, 8, nullptr);
    fp::GovernorConfig cfg;
    cfg.enabled = true;
    cfg.drift_budget_ulp = ~std::uint64_t{0};
    cfg.tail_budget_frac = 2.0;
    fp::PrecisionGovernor gov(cfg);
    const std::string governed = clamr_checkpoint<fp::MinimumPrecision>(
        16, 2, simd::Mode::Native, 8, &gov);
    EXPECT_EQ(governed, plain);
    EXPECT_TRUE(gov.decisions().empty());
    EXPECT_EQ(gov.observed_steps(0), 8u);
    EXPECT_EQ(gov.reduced_steps(0), 8u);
}

// A zero budget must drive the full loop on a double-compute policy:
// the demoted float sweep drifts (promote), and the promoted double
// sweep scores zero drift on the float lattice (demote after the
// hysteresis window). The demote is the strong claim — it only happens
// if the promoted kernel reproduces the in-order double shadow
// reference bit-for-bit.
TEST(GovernorClamr, ZeroBudgetDrivesPromoteThenDemote) {
    fp::PrecisionGovernor gov(zero_budget_config());
    clamr_checkpoint<fp::MixedPrecision>(16, 2, simd::Mode::Native, 12,
                                         &gov);
    std::size_t promotes = 0;
    std::size_t demotes = 0;
    for (const auto& d : gov.decisions())
        (d.action == "promote" ? promotes : demotes) += 1;
    EXPECT_GE(promotes, 1u);
    EXPECT_GE(demotes, 1u);
}

// A governed sweep books its work in the precision it ran: a
// minimum-precision run's promoted sweeps compute in double, so the
// finite_diff ledger entry has a double column next to its float one,
// and conversions for the sweeps' float-to-double state loads.
TEST(GovernorClamr, GovernedSweepBooksFlopsInThePrecisionThatRan) {
    fp::PrecisionGovernor gov(zero_budget_config());
    perf::WorkLedger ledger;
    clamr_checkpoint<fp::MinimumPrecision>(16, 2, simd::Mode::Native, 12,
                                           &gov, &ledger);
    expect_both_regimes(gov);
    const perf::KernelWork* fd = ledger.find("finite_diff");
    ASSERT_NE(fd, nullptr);
    EXPECT_GT(fd->flops_sp, 0u);
    EXPECT_GT(fd->flops_dp, 0u);
    EXPECT_GT(fd->convert_ops, 0u);
}

// ----------------------------------------------- solver integration: SEM

namespace {

template <typename P>
std::string sem_fingerprint(int steps, fp::PrecisionGovernor* gov,
                            perf::WorkLedger* ledger = nullptr) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 3;
    sem::SpectralEulerSolver<P> s(cfg);
    if (gov != nullptr) s.set_governor(gov);
    s.initialize_thermal_bubble({});
    for (int i = 0; i < steps; ++i) {
        s.step();
        if (gov != nullptr)
            gov->end_step(static_cast<std::int64_t>(s.step_count()));
    }
    if (ledger != nullptr) *ledger = s.ledger();
    return s.state_fingerprint();
}

}  // namespace

TEST(GovernorSem, OffGovernorIsBitInvisible) {
    const std::string plain_single =
        sem_fingerprint<fp::MinimumPrecision>(8, nullptr);
    const std::string plain_double =
        sem_fingerprint<fp::FullPrecision>(8, nullptr);
    fp::GovernorConfig off;
    fp::PrecisionGovernor gov_single(off);
    fp::PrecisionGovernor gov_double(off);
    EXPECT_EQ(sem_fingerprint<fp::MinimumPrecision>(8, &gov_single),
              plain_single);
    EXPECT_EQ(sem_fingerprint<fp::FullPrecision>(8, &gov_double),
              plain_double);
}

TEST(GovernorSem, UncrossableBudgetIsBitInvisibleOnFloatCompute) {
    const std::string plain =
        sem_fingerprint<fp::MinimumPrecision>(8, nullptr);
    fp::GovernorConfig cfg;
    cfg.enabled = true;
    cfg.drift_budget_ulp = ~std::uint64_t{0};
    cfg.tail_budget_frac = 2.0;
    fp::PrecisionGovernor gov(cfg);
    EXPECT_EQ(sem_fingerprint<fp::MinimumPrecision>(8, &gov), plain);
    EXPECT_TRUE(gov.decisions().empty());
    EXPECT_EQ(gov.reduced_steps(0), 8u);
}

TEST(GovernorSem, ZeroBudgetDrivesPromoteThenDemote) {
    fp::PrecisionGovernor gov(zero_budget_config());
    sem_fingerprint<fp::FullPrecision>(12, &gov);
    std::size_t promotes = 0;
    std::size_t demotes = 0;
    for (const auto& d : gov.decisions())
        (d.action == "promote" ? promotes : demotes) += 1;
    EXPECT_GE(promotes, 1u);
    EXPECT_GE(demotes, 1u);
}

// The governed rhs kernels book their flops, conversions and lanes in
// the kernel scalar that ran: a full-precision run's float steps fill the
// float column and narrow double state loads to float, and the volume
// kernel's widest pack is float's.
TEST(GovernorSem, GovernedKernelsBookWorkInThePrecisionThatRan) {
    fp::PrecisionGovernor gov(zero_budget_config());
    perf::WorkLedger ledger;
    sem_fingerprint<fp::FullPrecision>(6, &gov, &ledger);
    expect_both_regimes(gov);
    for (const char* kernel : {"volume", "surface"}) {
        const perf::KernelWork* w = ledger.find(kernel);
        ASSERT_NE(w, nullptr) << kernel;
        EXPECT_GT(w->flops_sp, 0u) << kernel;
        EXPECT_GT(w->flops_dp, 0u) << kernel;
        EXPECT_GT(w->convert_ops, 0u) << kernel;
    }
    EXPECT_EQ(ledger.find("volume")->simd_lanes,
              static_cast<std::uint32_t>(simd::native_lanes<float>));
}
