#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fp/half_policy.hpp"
#include "fp/precision.hpp"
#include "perf/counters.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "sum/expansion.hpp"
#include "sum/parallel.hpp"
#include "util/cli.hpp"
#include "util/threads.hpp"
#include "util/rng.hpp"

namespace tf = tp::fp;
namespace tsh = tp::shallow;
namespace tsum = tp::sum;
namespace tutil = tp::util;

namespace {

/// Every test here mutates the global OpenMP team size; restore the
/// runtime default afterwards so test order can't matter.
class ThreadsTest : public ::testing::Test {
protected:
    void TearDown() override { tutil::set_threads(0); }
};

std::vector<double> reduction_workload(std::size_t n) {
    tp::util::Rng rng(1737);
    std::vector<double> xs(n);
    for (auto& v : xs)
        v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(0.0, 8.0));
    return xs;
}

}  // namespace

// ------------------------------------------------- parallel reductions
TEST_F(ThreadsTest, ParallelMinMaxMatchSerialGroundTruth) {
    // Sizes straddling the kReduceBlock boundary, including a ragged tail.
    for (const std::size_t n :
         {std::size_t{1}, tsum::kReduceBlock - 1, tsum::kReduceBlock,
          3 * tsum::kReduceBlock + 17}) {
        const auto xs = reduction_workload(n);
        const double lo = *std::min_element(xs.begin(), xs.end());
        const double hi = *std::max_element(xs.begin(), xs.end());
        const double inf = std::numeric_limits<double>::infinity();
        EXPECT_EQ(tsum::parallel_min(xs, inf), lo) << "n=" << n;
        EXPECT_EQ(tsum::parallel_max(xs, -inf), hi) << "n=" << n;
    }
}

TEST_F(ThreadsTest, ReductionsReturnIdentityOnEmptyInput) {
    const std::vector<double> none;
    EXPECT_EQ(tsum::parallel_min(none, 7.0), 7.0);
    EXPECT_EQ(tsum::parallel_max(none, -7.0), -7.0);
    EXPECT_EQ(tsum::parallel_sum_exact(none), 0.0);
}

TEST_F(ThreadsTest, ReductionsAreThreadCountInvariant) {
    // The tentpole contract: the same bits at every team size, including
    // team sizes that do not divide the input evenly.
    const auto xs = reduction_workload(5 * tsum::kReduceBlock + 311);
    const double inf = std::numeric_limits<double>::infinity();
    tutil::set_threads(1);
    const double min1 = tsum::parallel_min(xs, inf);
    const double max1 = tsum::parallel_max(xs, -inf);
    const double sum1 = tsum::parallel_sum_exact(xs);
    EXPECT_EQ(sum1, tsum::sum_exact(xs)) << "exact sum is correctly rounded";
    for (const int t : {2, 3, 5, 8}) {
        tutil::set_threads(t);
        EXPECT_EQ(tsum::parallel_min(xs, inf), min1) << "threads=" << t;
        EXPECT_EQ(tsum::parallel_max(xs, -inf), max1) << "threads=" << t;
        EXPECT_EQ(tsum::parallel_sum_exact(xs), sum1) << "threads=" << t;
    }
}

// ------------------------------------------- solver determinism (CLAMR)
namespace {

struct ShallowTrace {
    std::vector<double> dts;
    double mass = 0.0;
    std::vector<double> cut;
};

template <typename Policy>
ShallowTrace shallow_trace(int threads, int steps = 12) {
    tutil::set_threads(threads);
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 32, 32, 2};
    tsh::ShallowWaterSolver<Policy> s(cfg);
    s.initialize_dam_break({});
    ShallowTrace out;
    for (int k = 0; k < steps; ++k) out.dts.push_back(s.step());
    out.mass = s.total_mass();
    out.cut = s.sample_height_vertical(50.0, 33);
    return out;
}

}  // namespace

template <typename Policy>
class ShallowThreadDeterminism : public ThreadsTest {};

using AllPolicies =
    ::testing::Types<tf::MinimumPrecision, tf::MixedPrecision,
                     tf::FullPrecision, tf::HalfStoragePrecision>;
TYPED_TEST_SUITE(ShallowThreadDeterminism, AllPolicies);

TYPED_TEST(ShallowThreadDeterminism, StateBitwiseInvariantAcrossTeams) {
    // Per-cell updates are embarrassingly parallel and the two global
    // reductions (CFL min, mass sum) are thread-count-stable, so the full
    // physics — every dt, the final mass, a line-out through the wave —
    // must be bit-identical at any team size.
    const ShallowTrace base = shallow_trace<TypeParam>(1);
    for (const int t : {2, 4}) {
        const ShallowTrace got = shallow_trace<TypeParam>(t);
        EXPECT_EQ(got.dts, base.dts) << "threads=" << t;
        EXPECT_EQ(got.mass, base.mass) << "threads=" << t;
        EXPECT_EQ(got.cut, base.cut) << "threads=" << t;
    }
}

// -------------------------------------------- solver determinism (SELF)
namespace {

struct SemTrace {
    std::vector<double> dts;
    double mass = 0.0;
    std::vector<double> cut;
};

template <typename Policy>
SemTrace sem_trace(int threads, int steps = 3) {
    tutil::set_threads(threads);
    tp::sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 3;
    cfg.order = 4;
    tp::sem::SpectralEulerSolver<Policy> s(cfg);
    tp::sem::ThermalBubble bubble;
    s.initialize_thermal_bubble(bubble);
    SemTrace out;
    for (int k = 0; k < steps; ++k) out.dts.push_back(s.step());
    out.mass = s.total_mass_perturbation();
    out.cut = s.sample_density_anomaly_x(0.5 * cfg.ly, bubble.center_z, 65);
    return out;
}

}  // namespace

template <typename Policy>
class SemThreadDeterminism : public ThreadsTest {};

using SemPolicies = ::testing::Types<tf::MinimumPrecision,
                                     tf::MixedPrecision, tf::FullPrecision>;
TYPED_TEST_SUITE(SemThreadDeterminism, SemPolicies);

TYPED_TEST(SemThreadDeterminism, StateBitwiseInvariantAcrossTeams) {
    const SemTrace base = sem_trace<TypeParam>(1);
    for (const int t : {2, 4}) {
        const SemTrace got = sem_trace<TypeParam>(t);
        EXPECT_EQ(got.dts, base.dts) << "threads=" << t;
        EXPECT_EQ(got.mass, base.mass) << "threads=" << t;
        EXPECT_EQ(got.cut, base.cut) << "threads=" << t;
    }
}

// --------------------------------------------- accounting under threads
TEST_F(ThreadsTest, LedgerRecordsTeamSizeAndMergesWithMax) {
    tp::perf::WorkLedger a;
    a.record("finite_diff", 1.0, 100, 0, 800, 0, 0, 4);
    a.record("finite_diff", 1.0, 100, 0, 800, 0, 0, 2);  // later, smaller team
    const tp::perf::KernelWork* w = a.find("finite_diff");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->threads, 4u) << "threads is the largest team seen";
    EXPECT_EQ(w->invocations, 2u);
}

TEST_F(ThreadsTest, SolverLedgerReportsConfiguredTeam) {
    tutil::set_threads(2);
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    tsh::FullShallowSolver s(cfg);
    s.initialize_dam_break({});
    (void)s.step();
    const tp::perf::KernelWork* w = s.ledger().find("finite_diff");
    ASSERT_NE(w, nullptr);
    const auto want =
        static_cast<std::uint32_t>(tutil::openmp_enabled() ? 2 : 1);
    EXPECT_EQ(w->threads, want);
}

// ------------------------------------------------------------ CLI + env
TEST_F(ThreadsTest, ThreadsOptionAppliesAndReportsTeamSize) {
    tutil::ArgParser args("test", "threads option plumbing");
    tutil::add_threads_option(args);
    const char* argv[] = {"test", "--threads", "2"};
    ASSERT_TRUE(args.parse(3, argv));
    const int n = tutil::apply_threads_option(args);
    if (tutil::openmp_enabled()) {
        EXPECT_EQ(n, 2);
        EXPECT_EQ(tutil::max_threads(), 2);
    } else {
        EXPECT_EQ(n, 1);  // serial builds pin the team to one thread
    }
}

TEST_F(ThreadsTest, ThreadsOptionZeroKeepsRuntimeDefault) {
    const int before = tutil::max_threads();
    tutil::ArgParser args("test", "threads option default");
    tutil::add_threads_option(args);
    const char* argv[] = {"test"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(tutil::apply_threads_option(args), before);
    EXPECT_EQ(tutil::max_threads(), before);
}

TEST_F(ThreadsTest, SetThreadsZeroRestoresDefault) {
    const int def = tutil::max_threads();
    tutil::set_threads(3);
    if (tutil::openmp_enabled()) {
        EXPECT_EQ(tutil::max_threads(), 3);
    }
    tutil::set_threads(0);
    EXPECT_EQ(tutil::max_threads(), def);
    EXPECT_GE(tutil::hardware_threads(), 1);
}
