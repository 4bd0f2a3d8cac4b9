// Tests for the explicit-SIMD kernel layer (simd/pack.hpp), the scratch
// arena (util/arena.hpp), and the end-to-end guarantee the layer is built
// around: within one precision policy, CLAMR's --simd=scalar and
// --simd=native paths produce bit-identical solutions. The SEM and
// distributed kernels run only at native width; tests/test_golden.cpp
// pins their bits, and a -DTP_ENABLE_SIMD=OFF build checks the W = 1
// instantiations against the same digests.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fp/precision.hpp"
#include "shallow/solver.hpp"
#include "simd/dispatch.hpp"
#include "simd/pack.hpp"
#include "util/arena.hpp"

namespace tsi = tp::simd;
namespace tu = tp::util;

// ------------------------------------------------------------------- packs

TEST(Pack, BroadcastLoadStoreRoundTrip) {
    constexpr int W = 8;
    std::array<double, W> in{};
    for (int i = 0; i < W; ++i) in[i] = 1.5 * i - 3.0;
    const auto p = tsi::pack<double, W>::load(in.data());
    std::array<double, W> out{};
    p.store(out.data());
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], in[i]);

    const auto b = tsi::pack<double, W>::broadcast(2.25);
    for (int i = 0; i < W; ++i) EXPECT_EQ(b[i], 2.25);
}

TEST(Pack, GatherMatchesIndexedLoads) {
    constexpr int W = 4;
    std::vector<float> base(64);
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = 0.25f * static_cast<float>(i);
    const std::int32_t idx[W] = {3, 17, 0, 42};
    const auto g = tsi::pack<float, W>::gather(base.data(), idx);
    for (int i = 0; i < W; ++i)
        EXPECT_EQ(g[i], base[static_cast<std::size_t>(idx[i])]);

    // Partial gather replicates the last live index into the dead lanes.
    const auto gp = tsi::pack<float, W>::gather_partial(base.data(), idx, 2);
    EXPECT_EQ(gp[0], base[3]);
    EXPECT_EQ(gp[1], base[17]);
    EXPECT_EQ(gp[2], base[17]);
    EXPECT_EQ(gp[3], base[17]);
}

TEST(Pack, MaskedTailLoadAndStore) {
    constexpr int W = 8;
    std::array<double, W> in{};
    for (int i = 0; i < W; ++i) in[i] = i + 1.0;
    const auto p = tsi::pack<double, W>::load_partial(in.data(), 3);
    // Live lanes hold the data, dead lanes replicate lane m-1 (a valid
    // value, so later arithmetic cannot fault or produce NaN surprises).
    EXPECT_EQ(p[0], 1.0);
    EXPECT_EQ(p[1], 2.0);
    EXPECT_EQ(p[2], 3.0);
    for (int i = 3; i < W; ++i) EXPECT_EQ(p[i], 3.0);

    std::array<double, W> out{};
    out.fill(-7.0);
    p.store_partial(out.data(), 3);
    EXPECT_EQ(out[0], 1.0);
    EXPECT_EQ(out[1], 2.0);
    EXPECT_EQ(out[2], 3.0);
    for (int i = 3; i < W; ++i) EXPECT_EQ(out[i], -7.0);  // untouched
}

TEST(Pack, FmaMatchesStdFmaPerLane) {
    constexpr int W = 4;
    std::array<double, W> a{1.1, -2.2, 3.3, 4.4};
    std::array<double, W> b{0.5, 0.25, -0.125, 8.0};
    std::array<double, W> c{1e-3, 1e3, -1e-3, 0.0};
    const auto r = tsi::fma(tsi::pack<double, W>::load(a.data()),
                            tsi::pack<double, W>::load(b.data()),
                            tsi::pack<double, W>::load(c.data()));
    for (int i = 0; i < W; ++i) EXPECT_EQ(r[i], std::fma(a[i], b[i], c[i]));
}

TEST(Pack, ConvertMatchesScalarCast) {
    constexpr int W = 4;
    std::array<double, W> in{1.0 / 3.0, -2.0e7, 5.0e-8, 1.0};
    const auto f = tsi::pack<double, W>::load(in.data()).convert<float>();
    for (int i = 0; i < W; ++i) EXPECT_EQ(f[i], static_cast<float>(in[i]));
    const auto d = f.convert<double>();
    for (int i = 0; i < W; ++i)
        EXPECT_EQ(d[i], static_cast<double>(static_cast<float>(in[i])));
}

TEST(Pack, ScalarFallbackIsSameTemplate) {
    // W = 1 is the same code path the flux_scalar TU runs.
    const auto p = tsi::pack<double, 1>::broadcast(3.5);
    const auto q = p * p + p;
    EXPECT_EQ(q[0], 3.5 * 3.5 + 3.5);
    EXPECT_EQ(tsi::reduce_add(q), q[0]);
}

TEST(Pack, ReduceAddIsFixedOrder) {
    constexpr int W = 8;
    std::array<double, W> in{1e16, 1.0, -1e16, 1.0, 0.5, 0.25, 0.125, 2.0};
    const auto p = tsi::pack<double, W>::load(in.data());
    double expect = 0.0;
    for (int i = 0; i < W; ++i) expect += in[i];  // same left-to-right order
    EXPECT_EQ(tsi::reduce_add(p), expect);
}

// ------------------------------------------------------------------- arena

TEST(ScratchArena, StopsAllocatingAfterWarmup) {
    tu::ScratchArena a(1u << 8);  // tiny: force spill blocks on round one
    for (int round = 0; round < 3; ++round) {
        double* x = a.alloc<double>(300);
        float* y = a.alloc<float>(700);
        x[0] = 1.0;
        y[0] = 2.0f;
        a.reset();
    }
    // After the first reset the spilled blocks coalesce into one, and
    // further rounds of the same footprint are pure pointer bumps.
    EXPECT_EQ(a.block_count(), 1u);
    const std::size_t peak = a.peak();
    double* x = a.alloc<double>(300);
    (void)x;
    float* y = a.alloc<float>(700);
    (void)y;
    EXPECT_EQ(a.block_count(), 1u);   // no new block
    EXPECT_EQ(a.peak(), peak);        // no new high-water mark
}

TEST(ScratchArena, AlignmentAndScopeRewind) {
    tu::ScratchArena a;
    double* x = a.alloc<double>(5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(x) %
                  tu::ScratchArena::kAlignment,
              0u);
    const std::size_t before = a.used();
    {
        tu::ArenaScope scope(a);
        float* y = a.alloc<float>(1000);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(y) %
                      tu::ScratchArena::kAlignment,
                  0u);
        EXPECT_GT(a.used(), before);
    }
    EXPECT_EQ(a.used(), before);  // LIFO rewind
}

// ----------------------------------------------- scalar/native equivalence

namespace {

template <typename P>
std::string clamr_bits(tsi::Mode mode, int levels, int rezone_interval = 4) {
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 24, 24, levels};
    cfg.simd = mode;
    cfg.rezone_interval = rezone_interval;
    tp::shallow::ShallowWaterSolver<P> s(cfg);
    s.initialize_dam_break({});
    s.run(25);
    // Level-run invariants while we are here: runs tile [0, num_cells)
    // and never mix levels (compute_dt depends on this).
    std::size_t covered = 0;
    for (const auto& run : s.level_runs()) {
        EXPECT_EQ(static_cast<std::size_t>(run.begin), covered);
        EXPECT_LT(run.begin, run.end);
        covered = static_cast<std::size_t>(run.end);
    }
    EXPECT_EQ(covered, s.mesh().num_cells());
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);
    return std::move(os).str();
}

}  // namespace

TEST(SimdEquivalence, ClamrAllPoliciesBitIdentical) {
    EXPECT_EQ(clamr_bits<tp::fp::MinimumPrecision>(tsi::Mode::Scalar, 2),
              clamr_bits<tp::fp::MinimumPrecision>(tsi::Mode::Native, 2));
    EXPECT_EQ(clamr_bits<tp::fp::MixedPrecision>(tsi::Mode::Scalar, 2),
              clamr_bits<tp::fp::MixedPrecision>(tsi::Mode::Native, 2));
    EXPECT_EQ(clamr_bits<tp::fp::FullPrecision>(tsi::Mode::Scalar, 2),
              clamr_bits<tp::fp::FullPrecision>(tsi::Mode::Native, 2));
    // Uniform grid too (single level-run, no tail blocks at W | n).
    EXPECT_EQ(clamr_bits<tp::fp::FullPrecision>(tsi::Mode::Scalar, 1),
              clamr_bits<tp::fp::FullPrecision>(tsi::Mode::Native, 1));
}

// Rezone-heavy deep-refinement workload (max_level 4, adapt every other
// step): the incremental rezone pipeline must keep scalar and native on
// the same bits for every policy.
TEST(SimdEquivalence, ClamrRezoneHeavyBitIdentical) {
    auto check = [&]<typename P>() {
        EXPECT_EQ(clamr_bits<P>(tsi::Mode::Scalar, 4, 2),
                  clamr_bits<P>(tsi::Mode::Native, 4, 2));
    };
    check.template operator()<tp::fp::MinimumPrecision>();
    check.template operator()<tp::fp::MixedPrecision>();
    check.template operator()<tp::fp::FullPrecision>();
}

TEST(SimdEquivalence, AutoFollowsBuildConfiguration) {
#if defined(TP_SIMD_FORCE_SCALAR)
    EXPECT_FALSE(tsi::use_native(tsi::Mode::Auto));
#else
    EXPECT_TRUE(tsi::use_native(tsi::Mode::Auto));
#endif
    EXPECT_FALSE(tsi::use_native(tsi::Mode::Scalar));
    EXPECT_GE(tsi::native_lanes<float>, tsi::native_lanes<double>);
}
