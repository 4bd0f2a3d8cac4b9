#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "fp/fenv.hpp"
#include "fp/half.hpp"
#include "fp/metrics.hpp"
#include "fp/precision.hpp"
#include "fp/ulp.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace tf = tp::fp;

// ---------------------------------------------------------------- policies
TEST(Precision, PolicyTypes) {
    static_assert(std::is_same_v<tf::MinimumPrecision::storage_t, float>);
    static_assert(std::is_same_v<tf::MinimumPrecision::compute_t, float>);
    static_assert(std::is_same_v<tf::MixedPrecision::storage_t, float>);
    static_assert(std::is_same_v<tf::MixedPrecision::compute_t, double>);
    static_assert(std::is_same_v<tf::FullPrecision::storage_t, double>);
    static_assert(std::is_same_v<tf::FullPrecision::compute_t, double>);
    static_assert(tf::PrecisionPolicy<tf::MinimumPrecision>);
    static_assert(tf::PrecisionPolicy<tf::MixedPrecision>);
    static_assert(tf::PrecisionPolicy<tf::FullPrecision>);
    EXPECT_EQ(tf::storage_bytes<tf::MinimumPrecision>, 4u);
    EXPECT_EQ(tf::storage_bytes<tf::MixedPrecision>, 4u);
    EXPECT_EQ(tf::storage_bytes<tf::FullPrecision>, 8u);
}

TEST(Precision, ForEachVisitsAllThreeModesInOrder) {
    std::vector<tf::PrecisionMode> seen;
    tf::for_each_precision([&]<typename P>() { seen.push_back(P::mode); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], tf::PrecisionMode::Minimum);
    EXPECT_EQ(seen[1], tf::PrecisionMode::Mixed);
    EXPECT_EQ(seen[2], tf::PrecisionMode::Full);
}

TEST(Precision, ModeNames) {
    EXPECT_EQ(tf::to_string(tf::PrecisionMode::Minimum), "minimum");
    EXPECT_EQ(tf::to_string(tf::PrecisionMode::Mixed), "mixed");
    EXPECT_EQ(tf::to_string(tf::PrecisionMode::Full), "full");
    EXPECT_EQ(tf::to_string(tf::PrecisionMode::Half), "half");
}

// -------------------------------------------------------------------- half
TEST(Half, ExactSmallIntegers) {
    for (int i = -2048; i <= 2048; ++i) {
        const tf::Half h(static_cast<float>(i));
        EXPECT_EQ(static_cast<float>(h), static_cast<float>(i)) << i;
    }
}

TEST(Half, KnownBitPatterns) {
    EXPECT_EQ(tf::Half(1.0f).bits(), 0x3C00u);
    EXPECT_EQ(tf::Half(-2.0f).bits(), 0xC000u);
    EXPECT_EQ(tf::Half(0.5f).bits(), 0x3800u);
    EXPECT_EQ(tf::Half(65504.0f).bits(), 0x7BFFu);  // max finite half
    EXPECT_EQ(tf::Half(0.0f).bits(), 0x0000u);
}

TEST(Half, OverflowToInfinity) {
    EXPECT_TRUE(tf::Half(1.0e6f).is_inf());
    EXPECT_TRUE(tf::Half(65520.0f).is_inf());  // rounds up past max
    EXPECT_FALSE(tf::Half(65504.0f).is_inf());
}

TEST(Half, SubnormalsRepresented) {
    // Smallest positive subnormal = 2^-24.
    const float tiny = std::ldexp(1.0f, -24);
    EXPECT_EQ(tf::Half(tiny).bits(), 0x0001u);
    EXPECT_EQ(static_cast<float>(tf::Half(tiny)), tiny);
    // Below half of the smallest subnormal flushes to zero.
    EXPECT_EQ(tf::Half(std::ldexp(1.0f, -26)).bits(), 0x0000u);
}

TEST(Half, NanPropagates) {
    const tf::Half h(std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(h.is_nan());
    EXPECT_TRUE(std::isnan(static_cast<float>(h)));
    EXPECT_FALSE(h == h);
}

TEST(Half, SignedZeroEquality) {
    EXPECT_TRUE(tf::Half(0.0f) == tf::Half(-0.0f));
    EXPECT_EQ(tf::Half(-0.0f).bits(), 0x8000u);
}

TEST(Half, RoundToNearestEven) {
    // 2049 is between 2048 and 2050 (spacing 2 in that binade); ties to
    // even mantissa -> 2048.
    EXPECT_EQ(static_cast<float>(tf::Half(2049.0f)), 2048.0f);
    EXPECT_EQ(static_cast<float>(tf::Half(2051.0f)), 2052.0f);
}

TEST(Half, ArithmeticRoundsThroughFloat) {
    const tf::Half a(1.5f), b(2.25f);
    EXPECT_EQ(static_cast<float>(a + b), 3.75f);
    EXPECT_EQ(static_cast<float>(a * b), 3.375f);
    EXPECT_EQ(static_cast<float>(-a), -1.5f);
}

TEST(Half, RoundTripAllFiniteBitPatterns) {
    // Every finite half converts to float and back to the identical bits.
    for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
        const auto h = tf::Half::from_bits(static_cast<std::uint16_t>(b));
        if (h.is_nan() || h.is_inf()) continue;
        const tf::Half rt(static_cast<float>(h));
        EXPECT_EQ(rt.bits(), h.bits()) << "bits=" << b;
    }
}

class HalfRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HalfRoundTrip, ConversionErrorWithinHalfUlp) {
    tp::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 2000; ++i) {
        const float f =
            static_cast<float>(rng.uniform(-60000.0, 60000.0));
        const float back = static_cast<float>(tf::Half(f));
        // Relative error bounded by 2^-11 (half has 11 mantissa bits).
        EXPECT_LE(std::fabs(back - f),
                  std::fabs(f) * 0x1.0p-11f + 0x1.0p-24f);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HalfRoundTrip, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------------- ulp
TEST(Ulp, AdjacentValuesAreOneApart) {
    const double x = 1.0;
    const double y = std::nextafter(x, 2.0);
    EXPECT_EQ(tf::ulp_distance(x, y), 1u);
    EXPECT_EQ(tf::ulp_distance(x, x), 0u);
}

TEST(Ulp, AcrossZero) {
    const float a = std::nextafter(0.0f, 1.0f);
    const float b = std::nextafter(0.0f, -1.0f);
    EXPECT_EQ(tf::ulp_distance(a, 0.0f), 1u);
    EXPECT_EQ(tf::ulp_distance(a, b), 2u);
}

TEST(Ulp, NanIsMaximallyDistant) {
    EXPECT_EQ(tf::ulp_distance(std::nan(""), 1.0),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Ulp, AlmostEqual) {
    const double x = 1.0 / 3.0;
    const double y = std::nextafter(std::nextafter(x, 1.0), 1.0);
    EXPECT_TRUE(tf::almost_equal_ulps(x, y, 2));
    EXPECT_FALSE(tf::almost_equal_ulps(x, y, 1));
}

TEST(Ulp, UlpAtScale) {
    EXPECT_DOUBLE_EQ(tf::ulp_at(1.0), 0x1.0p-52);
    EXPECT_DOUBLE_EQ(tf::ulp_at(2.0), 0x1.0p-51);
}

// ----------------------------------------------------------------- metrics
TEST(Metrics, ZeroDifference) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const auto m = tf::compare(a, a);
    EXPECT_EQ(m.l1, 0.0);
    EXPECT_EQ(m.l2, 0.0);
    EXPECT_EQ(m.linf, 0.0);
    EXPECT_EQ(m.digits_of_agreement(), 17.0);
}

TEST(Metrics, KnownNorms) {
    const std::vector<double> a{0.0, 0.0, 0.0, 4.0};
    const std::vector<double> b{1.0, -1.0, 1.0, 3.0};
    const auto m = tf::compare(a, b);
    EXPECT_DOUBLE_EQ(m.l1, 1.0);
    EXPECT_DOUBLE_EQ(m.l2, 1.0);
    EXPECT_DOUBLE_EQ(m.linf, 1.0);
    EXPECT_DOUBLE_EQ(m.ref_linf, 4.0);
    EXPECT_DOUBLE_EQ(m.rel_linf, 0.25);
}

TEST(Metrics, DigitsOfAgreementTracksMagnitude) {
    // Perturb at 1e-6 relative: ~6 digits agree (the paper's Figure 1
    // "five to six orders of magnitude" criterion).
    std::vector<double> ref(100), test(100);
    for (int i = 0; i < 100; ++i) {
        ref[static_cast<std::size_t>(i)] = 10.0 + i * 0.5;
        test[static_cast<std::size_t>(i)] =
            ref[static_cast<std::size_t>(i)] * (1.0 + 1e-6);
    }
    const auto m = tf::compare(ref, test);
    EXPECT_NEAR(m.digits_of_agreement(), 6.0, 0.2);
}

TEST(Metrics, MismatchedSizesThrow) {
    const std::vector<double> a{1.0};
    const std::vector<double> b{1.0, 2.0};
    EXPECT_THROW((void)tf::compare(a, b), std::invalid_argument);
    const std::vector<double> empty;
    EXPECT_THROW((void)tf::compare(empty, empty), std::invalid_argument);
}

// ------------------------------------------------------ flush-to-zero guard
#if defined(__SSE__)
namespace {

// MXCSR without its sticky exception flags (bits 0-5), which the product
// below sets.
constexpr std::uint32_t kMxcsrControl = ~std::uint32_t{0x3f};

struct ThreadFenv {
    std::uint32_t control = 0;
    bool flushed = false;
};

// Each thread of the default team reports its MXCSR control bits and
// whether a float product below the normal range comes out as zero,
// keyed by OS thread.
std::map<std::thread::id, ThreadFenv> team_fenv() {
    std::map<std::thread::id, ThreadFenv> out;
    std::mutex m;
#pragma omp parallel
    {
        const std::uint32_t control = _mm_getcsr() & kMxcsrControl;
        volatile float tiny = 1e-20f;
        const float product = tiny * tiny;  // 1e-40 is subnormal
        const std::lock_guard lock(m);
        out[std::this_thread::get_id()] = {control, product == 0.0f};
    }
    return out;
}

}  // namespace

TEST(FlushToZeroGuard, EveryTeamThreadFlushesThenGetsItsMxcsrBack) {
    if (!tp::util::openmp_enabled()) GTEST_SKIP() << "no OpenMP team";
    ASSERT_TRUE(tf::FlushToZeroGuard::supported());
    tp::util::set_threads(4);
    // A distinct rounding mode (MXCSR bits 13-14) per team thread, so each
    // thread has its own previous MXCSR to get back.
    std::map<std::thread::id, std::uint32_t> original;
    std::atomic<std::uint32_t> next{0};
    std::mutex m;
#pragma omp parallel
    {
        const std::uint32_t csr = _mm_getcsr();
        _mm_setcsr((csr & ~std::uint32_t{0x6000}) | ((next++ % 4) << 13));
        const std::lock_guard lock(m);
        original[std::this_thread::get_id()] = csr;
    }
    const auto before = team_fenv();
    std::map<std::thread::id, ThreadFenv> inside;
    {
        const tf::FlushToZeroGuard guard;
        inside = team_fenv();
    }
    const auto after = team_fenv();
    // Leave the team as it was before checking anything.
#pragma omp parallel
    {
        const std::lock_guard lock(m);
        const auto it = original.find(std::this_thread::get_id());
        if (it != original.end()) _mm_setcsr(it->second);
    }
    tp::util::set_threads(0);

    ASSERT_EQ(original.size(), 4u);
    ASSERT_EQ(before.size(), 4u);
    ASSERT_EQ(inside.size(), 4u);
    ASSERT_EQ(after.size(), 4u);
    for (const auto& [id, t] : before) {
        ASSERT_EQ(inside.count(id), 1u);
        EXPECT_EQ(inside.at(id).control, t.control | tf::kMxcsrFtzDaz);
        EXPECT_TRUE(inside.at(id).flushed);
        ASSERT_EQ(after.count(id), 1u);
        EXPECT_EQ(after.at(id).control, t.control);
        EXPECT_FALSE(after.at(id).flushed);
    }
}
#else
TEST(FlushToZeroGuard, ReportsUnsupportedOffX86) {
    EXPECT_FALSE(tf::FlushToZeroGuard::supported());
    EXPECT_THROW(tf::FlushToZeroGuard guard, std::runtime_error);
}
#endif

// ------------------------------------------------------------- half extras
TEST(Half, OrderingOperator) {
    EXPECT_TRUE(tf::Half(1.0f) < tf::Half(2.0f));
    EXPECT_FALSE(tf::Half(2.0f) < tf::Half(1.0f));
    EXPECT_TRUE(tf::Half(-1.0f) < tf::Half(0.5f));
}

TEST(Half, ArithmeticOverflowSaturatesToInf) {
    const tf::Half big(60000.0f);
    EXPECT_TRUE((big + big).is_inf());
    EXPECT_TRUE((big * big).is_inf());
}

TEST(Half, IntConstructor) {
    EXPECT_EQ(static_cast<float>(tf::Half(7)), 7.0f);
    EXPECT_EQ(static_cast<float>(tf::Half(-1024)), -1024.0f);
}

TEST(Half, DivisionAndNegativeZero) {
    const tf::Half a(1.0f), b(2.0f);
    EXPECT_EQ(static_cast<float>(a / b), 0.5f);
    const tf::Half nz = -tf::Half(0.0f);
    EXPECT_EQ(nz.bits(), 0x8000u);
    EXPECT_TRUE(nz == tf::Half(0.0f));
}

// ----------------------------------------------------------- format extras
#include "util/format.hpp"

TEST(FormatExtras, SpeedupBelowOneIsNegative) {
    EXPECT_EQ(tp::util::speedup_percent(0.91), "-9%");
}

TEST(FormatExtras, ScientificNegative) {
    EXPECT_EQ(tp::util::scientific(-2.5e4, 1), "-2.5e+04");
}
