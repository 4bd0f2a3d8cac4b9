// Block-structured-AMR contracts (DESIGN.md §13) that need their own
// binary: the zero-steady-state-allocation guarantee of the blocked flux
// sweep is checked with a global operator-new counter (counters can't
// share a process with test_dist's), plus the blocked-vs-cell bitwise
// matrix, the BlockIndex lifecycle across rezones, and the
// fill-mask/fallback partition invariant.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "fp/half_policy.hpp"
#include "mesh/block_tree.hpp"
#include "shallow/solver.hpp"

using namespace tp;
namespace tsh = tp::shallow;

// ------------------------------------------------- allocation bookkeeping

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

tsh::Config amr_config(int n, int levels, simd::Mode mode, bool blocks,
                       int rezone_interval = 4) {
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    cfg.simd = mode;
    cfg.blocks = blocks;
    cfg.rezone_interval = rezone_interval;
    return cfg;
}

template <typename Policy>
std::string checkpoint_after(const tsh::Config& cfg, int steps) {
    tsh::ShallowWaterSolver<Policy> s(cfg);
    s.initialize_dam_break({});
    s.run(steps);
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);
    return std::move(os).str();
}

// --------------------------------------------- blocked-vs-cell bitwise

// The tile sweep groups cells into dense unit-stride blocks and the
// fallback list into gathered packs, but every lane still evaluates the
// identical per-cell flux expression — so for every policy, SIMD shape,
// and grid (rezoning throughout), the checkpoint must match the cell
// path's to the last bit.
template <typename Policy>
void blocked_matches_cell_matrix() {
    for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native}) {
        for (const int grid : {12, 16, 24}) {
            const int levels = grid <= 16 ? 3 : 2;
            const int steps = 30;
            const auto cell = checkpoint_after<Policy>(
                amr_config(grid, levels, mode, false), steps);
            const auto blocked = checkpoint_after<Policy>(
                amr_config(grid, levels, mode, true), steps);
            EXPECT_EQ(blocked, cell)
                << "grid " << grid << ", native="
                << (mode == simd::Mode::Native);
        }
    }
}

TEST(BlockedSweepBitwise, MinimumPrecision) {
    blocked_matches_cell_matrix<fp::MinimumPrecision>();
}
TEST(BlockedSweepBitwise, MixedPrecision) {
    blocked_matches_cell_matrix<fp::MixedPrecision>();
}
TEST(BlockedSweepBitwise, FullPrecision) {
    blocked_matches_cell_matrix<fp::FullPrecision>();
}
TEST(BlockedSweepBitwise, HalfStoragePrecision) {
    blocked_matches_cell_matrix<fp::HalfStoragePrecision>();
}

// ------------------------------------------------- block index lifecycle

// After any run's worth of incremental apply_remap updates, the index
// must be element-wise identical to a from-scratch rebuild — and the
// incremental path must actually be incremental (some blocks translated,
// not all rebuilt).
TEST(BlockIndex, StaysConsistentAcrossRezones) {
    auto cfg = amr_config(24, 3, simd::Mode::Native, true,
                          /*rezone_interval=*/2);
    tsh::ShallowWaterSolver<fp::MixedPrecision> s(cfg);
    s.initialize_dam_break({});
    s.run(40);
    std::string why;
    EXPECT_TRUE(s.block_index().consistent_with(s.mesh(), &why)) << why;
    const auto& st = s.block_index().stats();
    EXPECT_GT(st.remaps, 0u);
    EXPECT_GT(st.blocks_translated, 0u);
}

// Fill-mask correctness after rezones: member bits name exactly the
// leaves at the block's level, regular bits are members whose four side
// neighbors are in-domain and same-or-coarser, and the solver-side tile
// list plus fallback cells partition the mesh (every cell computed
// exactly once per sweep).
TEST(BlockIndex, MasksAndFallbackPartitionTheMesh) {
    auto cfg = amr_config(16, 3, simd::Mode::Native, true,
                          /*rezone_interval=*/3);
    tsh::ShallowWaterSolver<fp::FullPrecision> s(cfg);
    s.initialize_dam_break({});
    s.run(25);

    const auto& mesh = s.mesh();
    const auto& index = s.block_index();
    for (const auto& b : index.blocks()) {
        const auto src = index.src(b);
        EXPECT_EQ(std::popcount(b.member_mask), b.members);
        EXPECT_EQ(b.regular_mask & ~b.member_mask, 0u);
        for (int jj = 0; jj < mesh::kBlockSize; ++jj) {
            for (int ii = 0; ii < mesh::kBlockSize; ++ii) {
                const std::int32_t i = b.bi * mesh::kBlockSize + ii;
                const std::int32_t j = b.bj * mesh::kBlockSize + jj;
                const auto leaf = mesh.leaf_index(b.level, i, j);
                const bool member =
                    (b.member_mask >> mesh::block_bit(ii, jj)) & 1u;
                EXPECT_EQ(member, leaf >= 0)
                    << "level " << b.level << " (" << i << ", " << j << ")";
                if (member) {
                    EXPECT_EQ(src[static_cast<std::size_t>(
                                  mesh::block_padded(ii, jj))],
                              leaf);
                }
                if ((b.regular_mask >> mesh::block_bit(ii, jj)) & 1u) {
                    // Four side neighbors covered by same-or-coarser
                    // in-domain leaves, per the padded source map.
                    const int p = mesh::block_padded(ii, jj);
                    for (const int off : {-1, +1, -mesh::kBlockPad,
                                          +mesh::kBlockPad}) {
                        const auto n = src[static_cast<std::size_t>(p + off)];
                        ASSERT_GE(n, 0);
                        EXPECT_LE(mesh.cells()[static_cast<std::size_t>(n)]
                                      .level,
                                  b.level);
                    }
                }
            }
        }
    }

    // Partition: dense-tile regular members plus fallback cells cover
    // every cell exactly once.
    std::vector<int> covered(mesh.num_cells(), 0);
    std::size_t tile = 0;
    for (const auto& b : index.blocks()) {
        const bool dense =
            std::popcount(b.regular_mask) >=
            tsh::ShallowWaterSolver<fp::FullPrecision>::kMinTileRegular;
        if (!dense) continue;
        ASSERT_LT(tile, s.tile_blocks().size());
        const auto& t = s.tile_blocks()[tile++];
        EXPECT_EQ(t.regular, b.regular_mask);
        for (int jj = 0; jj < mesh::kBlockSize; ++jj)
            for (int ii = 0; ii < mesh::kBlockSize; ++ii)
                if ((t.regular >> mesh::block_bit(ii, jj)) & 1u)
                    ++covered[static_cast<std::size_t>(
                        t.src[mesh::block_padded(ii, jj)])];
    }
    EXPECT_EQ(tile, s.tile_blocks().size());
    for (const auto c : s.fallback_cells())
        ++covered[static_cast<std::size_t>(c)];
    for (std::size_t c = 0; c < covered.size(); ++c)
        EXPECT_EQ(covered[c], 1) << "cell " << c;
}

// --------------------------------------------- zero steady-state allocs

// With rezoning disabled the blocked sweep's steady state — gather,
// tile kernels, fallback packs, scatter — must perform zero heap
// allocations, exactly like the cell path it replaces.
TEST(BlockedAllocations, SteadyStateStepIsAllocationFree) {
    auto cfg = amr_config(24, 2, simd::Mode::Native, true,
                          /*rezone_interval=*/0);
    tsh::ShallowWaterSolver<fp::MixedPrecision> s(cfg);
    s.initialize_dam_break({});
    s.run(3);  // warm every lazy scratch buffer
    const std::uint64_t before = g_allocs.load();
    s.run(5);
    EXPECT_EQ(g_allocs.load(), before) << "blocked sweep allocated in "
                                          "steady state";
}

}  // namespace
