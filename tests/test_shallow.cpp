#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/linecut.hpp"
#include "fp/half_policy.hpp"
#include "shallow/solver.hpp"

namespace tsh = tp::shallow;
namespace tf = tp::fp;

namespace {

tsh::Config small_config(int n = 32, int levels = 2) {
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    return cfg;
}

template <typename Solver>
Solver make_run(const tsh::Config& cfg, int steps) {
    Solver s(cfg);
    s.initialize_dam_break({});
    s.run(steps);
    return s;
}

}  // namespace

// ------------------------------------------------------------ conservation
template <typename Policy>
class ShallowPolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<tf::MinimumPrecision, tf::MixedPrecision,
                                  tf::FullPrecision>;
TYPED_TEST_SUITE(ShallowPolicyTest, Policies);

TYPED_TEST(ShallowPolicyTest, MassConservedThroughRunAndRezone) {
    tsh::ShallowWaterSolver<TypeParam> s(small_config());
    s.initialize_dam_break({});
    const double m0 = s.total_mass();
    s.run(60);  // crosses several rezone intervals
    const double m1 = s.total_mass();
    // Conservative scheme + reflective walls + conservative remap: only
    // storage rounding remains (coarser for float storage).
    const double tol = sizeof(typename TypeParam::storage_t) == 4
                           ? 5e-5
                           : 1e-11;
    EXPECT_NEAR(m1 / m0, 1.0, tol);
}

TYPED_TEST(ShallowPolicyTest, LakeAtRestStaysAtRest) {
    tsh::ShallowWaterSolver<TypeParam> s(small_config(16, 1));
    tsh::DamBreak flat;
    flat.h_inside = 10.0;
    flat.h_outside = 10.0;  // no dam: constant state
    s.initialize_dam_break(flat);
    s.run(20);
    const auto cut = s.sample_height_vertical(50.03, 64);
    for (const double h : cut) EXPECT_NEAR(h, 10.0, 1e-5);
}

// Lake at rest on an adapted mesh: a uniform depth with zero momentum is
// an exact steady state of the scheme (each face carries the same
// pressure flux on both sides and no mass or tangential flux), so it must
// hold bit for bit across the level jumps of a dam-break-refined mesh and,
// with rezoning on, through the remap that coarsens it.
TYPED_TEST(ShallowPolicyTest, LakeAtRestHoldsExactlyOnAnAdaptedMesh) {
    using Solver = tsh::ShallowWaterSolver<TypeParam>;
    using storage_t = typename TypeParam::storage_t;
    tsh::Config cfg = small_config(12, 3);
    auto refined = make_run<Solver>(cfg, 12);
    std::stringstream buf;
    refined.write_checkpoint(buf);
    tsh::CheckpointData rest = Solver::read_checkpoint(buf);
    ASSERT_TRUE(std::any_of(rest.cells.begin(), rest.cells.end(),
                            [](const auto& c) { return c.level == 3; }));
    std::fill(rest.h.begin(), rest.h.end(), 7.3);
    std::fill(rest.hu.begin(), rest.hu.end(), 0.0);
    std::fill(rest.hv.begin(), rest.hv.end(), 0.0);
    const auto depth = static_cast<double>(static_cast<storage_t>(7.3));
    for (const int rezone : {0, 4}) {
        cfg.rezone_interval = rezone;
        Solver s(cfg);
        s.restore_checkpoint(rest);
        s.run(40);
        std::stringstream out;
        s.write_checkpoint(out);
        const auto d = Solver::read_checkpoint(out);
        if (rezone == 0)
            EXPECT_EQ(d.cells.size(), rest.cells.size());
        else
            EXPECT_LT(d.cells.size(), rest.cells.size());
        for (std::size_t c = 0; c < d.cells.size(); ++c) {
            ASSERT_EQ(d.h[c], depth) << "rezone " << rezone << ", cell " << c;
            ASSERT_EQ(d.hu[c], 0.0) << "rezone " << rezone << ", cell " << c;
            ASSERT_EQ(d.hv[c], 0.0) << "rezone " << rezone << ", cell " << c;
        }
    }
}

TYPED_TEST(ShallowPolicyTest, PositiveTimestep) {
    tsh::ShallowWaterSolver<TypeParam> s(small_config(16, 1));
    s.initialize_dam_break({});
    const double dt = s.step();
    EXPECT_GT(dt, 0.0);
    EXPECT_LT(dt, 1.0);
    EXPECT_EQ(s.step_count(), 1);
    EXPECT_GT(s.time(), 0.0);
}

TYPED_TEST(ShallowPolicyTest, MeshInvariantsHoldDuringRun) {
    tsh::ShallowWaterSolver<TypeParam> s(small_config(16, 2));
    s.initialize_dam_break({});
    for (int i = 0; i < 30; ++i) {
        s.step();
        std::string why;
        ASSERT_TRUE(s.mesh().check_invariants(&why)) << why;
    }
}

// ---------------------------------------------------------------- symmetry
TEST(Shallow, DoublePrecisionMirrorSymmetry) {
    auto s = make_run<tsh::FullShallowSolver>(small_config(), 80);
    // Sample at finest-grid cell centers: exact mirror mapping, never on a
    // face (see analysis::face_free_positions).
    const int fine = 32 << 2;
    const auto ys = tp::analysis::face_free_positions(0.0, 100.0, fine);
    double max_asym = 0.0;
    for (std::size_t k = 0; k < ys.size() / 2; ++k) {
        const double a = s.height_at(50.2, ys[k]);
        const double b = s.height_at(50.2, ys[ys.size() - 1 - k]);
        max_asym = std::max(max_asym, std::fabs(a - b));
    }
    EXPECT_LT(max_asym, 1e-10);  // rounding-level only
}

TEST(Shallow, ReducedPrecisionAmplifiesAsymmetryButStaysSmall) {
    // The paper's Figure 2 claim: minimum precision has larger mirror
    // asymmetry than full, but still >= 1e6x below the solution magnitude.
    auto smin = make_run<tsh::MinimumShallowSolver>(small_config(), 80);
    auto sful = make_run<tsh::FullShallowSolver>(small_config(), 80);
    const int fine = 32 << 2;
    const auto ys = tp::analysis::face_free_positions(0.0, 100.0, fine);
    auto max_asym = [&](auto& s) {
        double m = 0.0;
        for (std::size_t k = 0; k < ys.size() / 2; ++k)
            m = std::max(m, std::fabs(s.height_at(50.2, ys[k]) -
                                      s.height_at(50.2, ys[ys.size() - 1 - k])));
        return m;
    };
    const double a_min = max_asym(smin);
    const double a_full = max_asym(sful);
    EXPECT_GT(a_min, a_full);
    EXPECT_LT(a_min, 80.0 * 1e-3);  // far below solution magnitude
}

// ----------------------------------------------------- precision closeness
TEST(Shallow, PrecisionLevelsAgreeClosely) {
    // Figure 1: the three precision levels produce visually identical
    // slices; differences are orders of magnitude below the solution, and
    // |full - mixed| < |full - min|.
    const auto cfg = small_config();
    auto smin = make_run<tsh::MinimumShallowSolver>(cfg, 60);
    auto smix = make_run<tsh::MixedShallowSolver>(cfg, 60);
    auto sful = make_run<tsh::FullShallowSolver>(cfg, 60);

    const int fine = 32 << 2;
    const auto ys = tp::analysis::face_free_positions(0.0, 100.0, fine);
    auto cut = [&](auto& s) {
        std::vector<double> v;
        for (const double y : ys) v.push_back(s.height_at(50.2, y));
        return v;
    };
    const auto cmin = cut(smin);
    const auto cmix = cut(smix);
    const auto cful = cut(sful);

    const auto m_min = tf::compare(cful, cmin);
    const auto m_mix = tf::compare(cful, cmix);
    // Several digits of agreement even in the worst case.
    EXPECT_GT(m_min.digits_of_agreement(), 3.0);
    EXPECT_GT(m_mix.digits_of_agreement(), 3.0);
    // Mixed tracks full more closely than minimum does.
    EXPECT_LE(m_mix.linf, m_min.linf * 1.5);
}

TEST(Shallow, VectorizedAndScalarKernelsAgree) {
    auto cfg = small_config(16, 1);
    cfg.simd = tp::simd::Mode::Native;
    auto sv = make_run<tsh::FullShallowSolver>(cfg, 40);
    cfg.simd = tp::simd::Mode::Scalar;
    auto ss = make_run<tsh::FullShallowSolver>(cfg, 40);
    // Same arithmetic in the same per-element order: the pack contract
    // (simd/pack.hpp) makes the native and scalar sweeps bit-identical,
    // not merely close. test_simd.cpp checks the full checkpoint bits;
    // here a line-out must match exactly.
    const auto a = sv.sample_height_vertical(50.2, 101);
    const auto b = ss.sample_height_vertical(50.2, 101);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ------------------------------------------------------ floored height store
namespace {

/// The store floored_height replaced: floor in C, then round to S.
template <typename S, typename C>
S floor_then_round(C h) {
    const C hfloor = C(1e-8);
    return static_cast<S>(h < hfloor ? hfloor : h);
}

/// Heights around every edge of the floor, in C: NaN, signed zeros,
/// negatives, C's subnormals, exactly C(1e-8), and S(1e-8) with its S
/// neighbours and the C values either side of each.
template <typename S, typename C>
std::vector<C> floor_edge_inputs() {
    using lim = std::numeric_limits<C>;
    const S sfloor = static_cast<S>(C(1e-8));
    std::vector<C> in = {lim::quiet_NaN(),   -lim::quiet_NaN(),
                         C(0),               -C(0),
                         C(-1),              C(-1e-9),
                         C(-1e-8),           -lim::infinity(),
                         lim::denorm_min(),  -lim::denorm_min(),
                         lim::min() / C(4),  C(1e-8),
                         C(1),               lim::max(),
                         lim::infinity()};
    for (const S s : {std::nextafter(sfloor, S(0)), sfloor,
                      std::nextafter(sfloor, S(1))}) {
        const C c = static_cast<C>(s);
        in.insert(in.end(), {c, std::nextafter(c, C(0)),
                             std::nextafter(c, C(1))});
    }
    return in;
}

template <typename T>
auto bits_of(T v) {
    if constexpr (sizeof(T) == 4)
        return std::bit_cast<std::uint32_t>(v);
    else
        return std::bit_cast<std::uint64_t>(v);
}

/// The AMR apply at width W over `h`: one level run, dt * 1/area = 1 and
/// every height increment dh, so each cell stores h + dh.
template <typename S, typename C, int W>
std::vector<S> apply_heights(std::vector<S> h, const std::vector<C>& dh) {
    const auto n = h.size();
    std::vector<S> hu(n, S(0.0f));
    std::vector<S> hv(n, S(0.0f));
    std::vector<C> d = dh;
    std::vector<C> du(n, C(0));
    std::vector<C> dv(n, C(0));
    const tsh::detail::LevelRun run{0, static_cast<std::int32_t>(n), 0};
    const C inv_area[1] = {C(1)};
    tsh::detail::apply_update<S, C, W>({h.data(), hu.data(), hv.data(),
                                        d.data(), du.data(), dv.data(), &run,
                                        1, inv_area, C(1)});
    return h;
}

template <typename S, typename C>
void expect_floor_after_round_matches() {
    const std::vector<C> in = floor_edge_inputs<S, C>();
    for (const C x : in)
        EXPECT_EQ(bits_of(tsh::detail::floored_height<S>(x)),
                  bits_of(floor_then_round<S>(x)))
            << "h = " << x;
    // The apply loop at native width and at W = 1 stores the same bits:
    // h = -0 keeps -0 + dh == dh for every input.
    const std::vector<S> h0(in.size(), -S(0));
    const auto native =
        apply_heights<S, C, tp::simd::native_lanes<C>>(h0, in);
    const auto scalar = apply_heights<S, C, 1>(h0, in);
    for (std::size_t i = 0; i < in.size(); ++i) {
        const C sum = static_cast<C>(-S(0)) + in[i];
        EXPECT_EQ(bits_of(native[i]), bits_of(floor_then_round<S>(sum)))
            << "dh = " << in[i];
        EXPECT_EQ(bits_of(scalar[i]), bits_of(native[i])) << "dh = " << in[i];
    }
}

}  // namespace

TEST(FlooredHeight, FloatFromDoubleMatchesFloorBeforeRound) {
    expect_floor_after_round_matches<float, double>();
}

TEST(FlooredHeight, FloatFromFloatMatchesFloorBeforeRound) {
    expect_floor_after_round_matches<float, float>();
}

TEST(FlooredHeight, DoubleFromDoubleMatchesFloorBeforeRound) {
    expect_floor_after_round_matches<double, double>();
}

// Half(1e-8) is +0 and Half(-1e-9) is -0, so Half storage keeps the
// floor-first store: a height that lands at -1e-9 stores +0.
TEST(FlooredHeight, HalfStorageStoresPositiveZeroBelowTheFloor) {
    EXPECT_EQ(tf::Half(1e-8f).bits(), 0x0000u);
    EXPECT_EQ(tf::Half(-1e-9f).bits(), 0x8000u);
    EXPECT_EQ(tsh::detail::floored_height<tf::Half>(-1e-9f).bits(), 0x0000u);
    const std::vector<tf::Half> h0(3, tf::Half(0.0f));
    const std::vector<float> dh(3, -1e-9f);
    for (const tf::Half& h :
         apply_heights<tf::Half, float, tp::simd::native_lanes<float>>(h0,
                                                                       dh))
        EXPECT_EQ(h.bits(), 0x0000u);
    for (const tf::Half& h : apply_heights<tf::Half, float, 1>(h0, dh))
        EXPECT_EQ(h.bits(), 0x0000u);
}

// -------------------------------------------------------------- checkpoint
TEST(Shallow, CheckpointRoundTrip) {
    auto s = make_run<tsh::FullShallowSolver>(small_config(16, 1), 10);
    std::stringstream buf;
    s.write_checkpoint(buf);
    EXPECT_EQ(static_cast<std::uint64_t>(buf.str().size()),
              s.checkpoint_bytes());

    const auto d = tsh::FullShallowSolver::read_checkpoint(buf);
    EXPECT_EQ(d.cells.size(), s.mesh().num_cells());
    EXPECT_DOUBLE_EQ(d.time, s.time());
    EXPECT_EQ(d.step, s.step_count());
    // Spot-check state round-trip at cell centers.
    for (std::size_t c = 0; c < d.cells.size(); c += 7) {
        const auto& cell = d.cells[c];
        const double x = s.mesh().cell_center_x(cell);
        const double y = s.mesh().cell_center_y(cell);
        EXPECT_DOUBLE_EQ(d.h[c], s.height_at(x, y));
    }
}

TEST(Shallow, CheckpointSizeRatioIsTwoThirds) {
    // Table III: min/mixed checkpoints are ~2/3 the size of full ones
    // (86M vs 128M), because 12 bytes/cell of mesh metadata ride along
    // with 3 state arrays.
    const auto cfg = small_config(16, 1);
    tsh::MinimumShallowSolver smin(cfg);
    tsh::MixedShallowSolver smix(cfg);
    tsh::FullShallowSolver sful(cfg);
    smin.initialize_dam_break({});
    smix.initialize_dam_break({});
    sful.initialize_dam_break({});
    ASSERT_EQ(smin.mesh().num_cells(), sful.mesh().num_cells());
    const double ratio =
        static_cast<double>(smin.checkpoint_bytes()) /
        static_cast<double>(sful.checkpoint_bytes());
    EXPECT_NEAR(ratio, 2.0 / 3.0, 0.01);
    EXPECT_EQ(smin.checkpoint_bytes(), smix.checkpoint_bytes());
}

TEST(Shallow, CheckpointRejectsGarbage) {
    std::stringstream buf;
    buf << "not a checkpoint at all";
    EXPECT_THROW((void)tsh::FullShallowSolver::read_checkpoint(buf),
                 std::runtime_error);
}

// Round-trip through every storage width, including 2-byte half storage:
// every stored element widens losslessly to double, so the reader must
// reproduce height_at() bit-for-bit at each cell center.
template <typename Policy>
class CheckpointPolicyTest : public ::testing::Test {};

using CheckpointPolicies =
    ::testing::Types<tf::MinimumPrecision, tf::MixedPrecision,
                     tf::FullPrecision, tf::HalfStoragePrecision>;
TYPED_TEST_SUITE(CheckpointPolicyTest, CheckpointPolicies);

TYPED_TEST(CheckpointPolicyTest, RoundTripIsLossless) {
    auto s = make_run<tsh::ShallowWaterSolver<TypeParam>>(
        small_config(16, 1), 6);
    std::stringstream buf;
    s.write_checkpoint(buf);
    EXPECT_EQ(static_cast<std::uint64_t>(buf.str().size()),
              s.checkpoint_bytes());

    const auto d = tsh::FullShallowSolver::read_checkpoint(buf);
    ASSERT_EQ(d.cells.size(), s.mesh().num_cells());
    EXPECT_DOUBLE_EQ(d.time, s.time());
    EXPECT_EQ(d.step, s.step_count());
    EXPECT_EQ(d.geom.max_level, s.config().geom.max_level);
    for (std::size_t c = 0; c < d.cells.size(); ++c) {
        const auto& cell = d.cells[c];
        EXPECT_EQ(d.h[c], s.height_at(s.mesh().cell_center_x(cell),
                                      s.mesh().cell_center_y(cell)))
            << "cell " << c;
    }
}

namespace {

/// A well-formed checkpoint to corrupt, as raw bytes.
std::string valid_checkpoint() {
    auto s = make_run<tsh::FullShallowSolver>(small_config(16, 1), 3);
    std::stringstream buf;
    s.write_checkpoint(buf);
    return buf.str();
}

void expect_rejected(std::string bytes) {
    std::stringstream buf(std::move(bytes));
    EXPECT_THROW((void)tsh::FullShallowSolver::read_checkpoint(buf),
                 std::runtime_error);
}

/// Overwrite sizeof(T) bytes at `offset` in the serialized header.
template <typename T>
std::string patched(std::string bytes, std::size_t offset, T value) {
    std::memcpy(bytes.data() + offset, &value, sizeof value);
    return bytes;
}

// Header layout offsets (see write_checkpoint).
constexpr std::size_t kOffElemSize = 8;
constexpr std::size_t kOffCellCount = 16;
constexpr std::size_t kOffStep = 32;
constexpr std::size_t kOffMaxLevel = 80;

}  // namespace

TEST(Shallow, CheckpointRejectsTruncatedHeader) {
    const std::string good = valid_checkpoint();
    expect_rejected(good.substr(0, 20));  // cut inside the header
    expect_rejected(good.substr(0, 83));  // one byte short of a header
}

TEST(Shallow, CheckpointRejectsTruncatedPayload) {
    const std::string good = valid_checkpoint();
    // Header intact, arrays cut short: the seekable-stream size check
    // fires before any allocation happens.
    expect_rejected(good.substr(0, good.size() - 64));
    expect_rejected(good.substr(0, 84));  // header only, no cells at all
}

TEST(Shallow, CheckpointRejectsAbsurdCellCount) {
    const std::string good = valid_checkpoint();
    // A hostile header promising ~1e18 cells must be rejected from the
    // header fields alone, not by attempting an exabyte resize().
    expect_rejected(
        patched<std::uint64_t>(good, kOffCellCount, std::uint64_t{1} << 60));
    // Plausibly small but still more than the stream holds.
    expect_rejected(patched<std::uint64_t>(
        good, kOffCellCount,
        static_cast<std::uint64_t>(16 * 16 * 4) /* full refinement */));
    expect_rejected(patched<std::uint64_t>(good, kOffCellCount, 0));
}

TEST(Shallow, CheckpointRejectsCorruptCellMetadata) {
    // Payload validation: the header can be pristine while a cell record
    // is garbage. An out-of-range level or coordinate must be rejected at
    // read time, not flow into mesh rebuilds as a wild index. The cells
    // section starts at byte 84, 12 bytes (level, i, j as int32) per cell.
    const std::string good = valid_checkpoint();
    constexpr std::size_t kOffCells = 84;
    // level outside [0, max_level] (the run was built with max_level 1).
    expect_rejected(patched<std::int32_t>(good, kOffCells + 0, 2));
    expect_rejected(patched<std::int32_t>(good, kOffCells + 0, -1));
    // i / j outside the level-l grid (16 coarse cells per side).
    expect_rejected(patched<std::int32_t>(good, kOffCells + 4, 1 << 20));
    expect_rejected(patched<std::int32_t>(good, kOffCells + 4, -3));
    expect_rejected(patched<std::int32_t>(good, kOffCells + 8, 32));
    // The bound is per-level: j = 16 fits the level-1 grid (32 cells per
    // side) but not the level-0 grid.
    expect_rejected(patched<std::int32_t>(
        patched<std::int32_t>(good, kOffCells + 0, 0), kOffCells + 8, 16));
    std::stringstream fine(patched<std::int32_t>(
        patched<std::int32_t>(good, kOffCells + 0, 1), kOffCells + 8, 16));
    EXPECT_NO_THROW(
        (void)tsh::FullShallowSolver::read_checkpoint(fine));
}

TEST(Shallow, CheckpointRejectsBadHeaderFields) {
    const std::string good = valid_checkpoint();
    expect_rejected(patched<std::uint32_t>(good, kOffElemSize, 3));
    expect_rejected(patched<std::int64_t>(good, kOffStep, -1));
    expect_rejected(patched<std::int32_t>(
        good, kOffMaxLevel,
        tsh::FullShallowSolver::kMaxSupportedLevel + 1));
    expect_rejected(patched<std::int32_t>(good, kOffMaxLevel, -1));
}

// ------------------------------------------------------ config validation
TEST(Shallow, RejectsOutOfRangeConfig) {
    // Regression for the latent OOB in compute_dt: a solver constructed
    // with max_level > kMaxSupportedLevel used to index past the fixed
    // per-level spacing table on its first step.
    auto cfg = small_config(8, 0);
    cfg.geom.max_level = tsh::FullShallowSolver::kMaxSupportedLevel + 1;
    EXPECT_THROW((tsh::FullShallowSolver{cfg}), std::invalid_argument);
    cfg.geom.max_level = -1;
    EXPECT_THROW((tsh::FullShallowSolver{cfg}), std::invalid_argument);
    cfg = small_config(8, 0);
    cfg.geom.coarse_nx = 0;
    EXPECT_THROW((tsh::FullShallowSolver{cfg}), std::invalid_argument);
}

TEST(Shallow, AcceptsMaxSupportedLevel) {
    auto cfg = small_config(2, 0);
    cfg.geom.max_level = tsh::FullShallowSolver::kMaxSupportedLevel;
    tsh::FullShallowSolver s(cfg);
    s.initialize_dam_break({});
    EXPECT_GT(s.step(), 0.0);  // compute_dt's level table covers 0..15
}

// ----------------------------------------------------------- memory/ledger
TEST(Shallow, StateBytesReflectPrecision) {
    const auto cfg = small_config(16, 1);
    tsh::MinimumShallowSolver smin(cfg);
    tsh::FullShallowSolver sful(cfg);
    smin.initialize_dam_break({});
    sful.initialize_dam_break({});
    ASSERT_EQ(smin.mesh().num_cells(), sful.mesh().num_cells());
    EXPECT_LT(smin.state_bytes(), sful.state_bytes());
    EXPECT_DOUBLE_EQ(
        static_cast<double>(sful.state_bytes()) / smin.state_bytes(), 2.0);
}

TEST(Shallow, LedgerRecordsKernels) {
    auto s = make_run<tsh::FullShallowSolver>(small_config(16, 1), 8);
    const auto* fd = s.ledger().find("finite_diff");
    ASSERT_NE(fd, nullptr);
    EXPECT_EQ(fd->invocations, 8u);
    EXPECT_GT(fd->flops_dp, 0u);
    EXPECT_EQ(fd->flops_sp, 0u);
    EXPECT_GT(fd->bytes, 0u);
    const auto* cfl = s.ledger().find("cfl");
    ASSERT_NE(cfl, nullptr);
    EXPECT_EQ(cfl->invocations, 8u);
    // The rezone pipeline reports per-phase entries, not one aggregate.
    for (const char* phase :
         {"rezone_flags", "rezone_adapt", "rezone_remap", "rezone_cache"}) {
        const auto* w = s.ledger().find(phase);
        ASSERT_NE(w, nullptr) << phase;
        EXPECT_GT(w->invocations, 0u) << phase;
        EXPECT_GT(w->bytes, 0u) << phase;
        EXPECT_EQ(w->flops(), 0u) << phase;  // streaming/integer work
    }
    const auto rz = s.ledger().total_matching("rezone_");
    EXPECT_EQ(rz.invocations, 4 * s.rezone_stats().rezones);
    EXPECT_GT(s.timers().total("rezone"), 0.0);  // aggregate timer remains
    EXPECT_GT(s.timers().total("finite_diff"), 0.0);
}

// After the pre-refine passes and after a run full of rezones, the
// incrementally maintained slot tables must match a from-scratch
// face-scan rebuild bit-for-bit.
TYPED_TEST(ShallowPolicyTest, IncrementalCachesConsistentAfterRezones) {
    auto cfg = small_config(16, 3);
    cfg.rezone_interval = 2;
    tsh::ShallowWaterSolver<TypeParam> s(cfg);
    s.initialize_dam_break({});
    EXPECT_TRUE(s.topology_caches_consistent());
    s.run(30);
    EXPECT_GT(s.rezone_stats().rezones, 0u);
    EXPECT_TRUE(s.topology_caches_consistent());
}

// Rezone bookkeeping: every post-adapt cell is either translated through
// the span offset map or resolved from the mesh, never both or neither.
TEST(Shallow, RezoneStatsPartitionCells) {
    auto cfg = small_config(16, 3);
    cfg.rezone_interval = 2;
    auto s = make_run<tsh::FullShallowSolver>(cfg, 30);
    const auto& st = s.rezone_stats();
    ASSERT_GT(st.rezones, 0u);
    EXPECT_GT(st.copy_spans, 0u);
    EXPECT_GT(st.translated_cells, 0u);
    EXPECT_GT(st.resolved_cells, 0u);
    // cells_touched sums old + new cells per rezone; translated + resolved
    // partition the new cells, so together they are strictly less.
    EXPECT_LT(st.translated_cells + st.resolved_cells, st.cells_touched);
}

// A max_level-0 mesh never changes, so every rezone's plan is the
// identity: flags and adapt still run and are counted, while the state
// and the caches are left as they are — and stay exact. No cell is
// translated, and the remap and cache ledger entries carry no bytes.
TEST(Shallow, IdentityRezoneKeepsCachesAndCounts) {
    auto cfg = small_config(16, 0);
    cfg.rezone_interval = 2;
    auto s = make_run<tsh::FullShallowSolver>(cfg, 10);
    const auto& st = s.rezone_stats();
    EXPECT_EQ(st.rezones, 4u);
    EXPECT_EQ(st.cells_touched, 4u * 2 * 256);
    EXPECT_EQ(st.translated_cells, 0u);
    EXPECT_EQ(st.resolved_cells, 0u);
    EXPECT_TRUE(s.topology_caches_consistent());
    for (const char* phase : {"rezone_remap", "rezone_cache"}) {
        const auto* e = s.ledger().find(phase);
        ASSERT_NE(e, nullptr) << phase;
        EXPECT_EQ(e->bytes, 0u) << phase;
    }
}

TEST(Shallow, MixedModeRecordsConversions) {
    auto s = make_run<tsh::MixedShallowSolver>(small_config(16, 1), 4);
    const auto* fd = s.ledger().find("finite_diff");
    ASSERT_NE(fd, nullptr);
    EXPECT_GT(fd->convert_ops, 0u);
    EXPECT_GT(fd->flops_dp, 0u);  // mixed computes in double
    auto sm = make_run<tsh::MinimumShallowSolver>(small_config(16, 1), 4);
    EXPECT_EQ(sm.ledger().find("finite_diff")->convert_ops, 0u);
}

TEST(Shallow, HeightAtOutsideDomainThrows) {
    tsh::FullShallowSolver s(small_config(16, 1));
    s.initialize_dam_break({});
    EXPECT_THROW((void)s.height_at(-5.0, 50.0), std::out_of_range);
    EXPECT_THROW((void)s.height_at(50.0, 150.0), std::out_of_range);
}

// ------------------------------------------------- resolution trade (Fig 3)
TEST(Shallow, HigherResolutionResolvesSharperFront) {
    // Fig. 3's premise: a minimum-precision high-resolution run shows more
    // structure than a full-precision low-resolution run. Check the proxy:
    // the maximum height gradient along the cut grows with resolution.
    auto lo = make_run<tsh::FullShallowSolver>(small_config(16, 1), 40);
    auto hi = make_run<tsh::MinimumShallowSolver>(small_config(32, 2), 40);
    auto max_grad = [](const std::vector<double>& v) {
        double g = 0.0;
        for (std::size_t i = 1; i < v.size(); ++i)
            g = std::max(g, std::fabs(v[i] - v[i - 1]));
        return g;
    };
    const auto cl = lo.sample_height_vertical(50.2, 257);
    const auto ch = hi.sample_height_vertical(50.2, 257);
    EXPECT_GT(max_grad(ch), max_grad(cl));
}

// --------------------------------------------------- parameterized sweeps
class ShallowSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShallowSweep, MassConservedAcrossGeometries) {
    const auto [n, levels] = GetParam();
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    tsh::FullShallowSolver s(cfg);
    s.initialize_dam_break({});
    const double m0 = s.total_mass();
    s.run(30);
    EXPECT_NEAR(s.total_mass() / m0, 1.0, 1e-11)
        << "n=" << n << " levels=" << levels;
    std::string why;
    EXPECT_TRUE(s.mesh().check_invariants(&why)) << why;
}

TEST_P(ShallowSweep, TimestepRespectsCfl) {
    const auto [n, levels] = GetParam();
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    tsh::FullShallowSolver s(cfg);
    s.initialize_dam_break({});
    for (int k = 0; k < 10; ++k) {
        const double dt = s.step();
        // dt <= C * finest_dx / c_min where c_min >= sqrt(g*h_out).
        const double bound = cfg.courant * s.mesh().finest_dx() /
                             std::sqrt(cfg.gravity * 10.0);
        EXPECT_LE(dt, bound * 1.0001);
        EXPECT_GT(dt, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShallowSweep,
    ::testing::Combine(::testing::Values(16, 24, 40),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Shallow, InitialMassMatchesAnalyticArea) {
    // mass = pi r^2 (h_in - h_out) + A_domain h_out, up to the staircase
    // approximation of the circle at the finest level.
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 64, 64, 2};
    tsh::FullShallowSolver s(cfg);
    tsh::DamBreak ic;
    s.initialize_dam_break(ic);
    const double r = ic.radius_fraction * 100.0;
    const double analytic = 3.14159265358979 * r * r *
                                (ic.h_inside - ic.h_outside) +
                            100.0 * 100.0 * ic.h_outside;
    EXPECT_NEAR(s.total_mass() / analytic, 1.0, 5e-3);
}

TEST(Shallow, RunZeroStepsIsIdentity) {
    tsh::FullShallowSolver s(small_config(16, 1));
    s.initialize_dam_break({});
    const double m0 = s.total_mass();
    s.run(0);
    EXPECT_EQ(s.step_count(), 0);
    EXPECT_EQ(s.time(), 0.0);
    EXPECT_EQ(s.total_mass(), m0);
}

TEST(Shallow, ReinitializationResetsClock) {
    tsh::FullShallowSolver s(small_config(16, 1));
    s.initialize_dam_break({});
    s.run(5);
    EXPECT_GT(s.time(), 0.0);
    s.initialize_dam_break({});
    EXPECT_EQ(s.time(), 0.0);
    EXPECT_EQ(s.step_count(), 0);
}

TEST(Shallow, CheckpointCrossWidthRead) {
    // A minimum-precision checkpoint is readable through any solver class
    // (the reader dispatches on the stored element width).
    tsh::MinimumShallowSolver s(small_config(16, 1));
    s.initialize_dam_break({});
    s.run(5);
    std::stringstream buf;
    s.write_checkpoint(buf);
    const auto d = tsh::FullShallowSolver::read_checkpoint(buf);
    EXPECT_EQ(d.cells.size(), s.mesh().num_cells());
    // Values widen exactly (float -> double is lossless).
    const auto& cell = d.cells.front();
    EXPECT_EQ(d.h.front(),
              s.height_at(s.mesh().cell_center_x(cell),
                          s.mesh().cell_center_y(cell)));
}
