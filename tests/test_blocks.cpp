// Tiled-flux-sweep contracts (DESIGN.md §13) that need their own binary:
// the zero-steady-state-allocation guarantee of the flux sweep is checked
// with a global operator-new counter (counters can't share a process with
// test_dist's), plus the tile fill-mask/source-map/fallback partition
// invariant. The sweep's bits are pinned by Golden.ShallowCheckpointDigests.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "shallow/solver.hpp"
#include "util/threads.hpp"

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

tsh::Config amr_config(int n, int levels, int rezone_interval) {
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    cfg.simd = simd::Mode::Native;
    cfg.rezone_interval = rezone_interval;
    return cfg;
}

// ------------------------------------------------------ tile invariants

// Tile correctness on a 12^2 grid, whose level-0 tiles run off the domain
// edge: every leaf of the tile's level inside the tile is at its own
// source position, every regular bit names such a leaf (so every regular
// member sits at the tile's level), each regular member's four side
// positions hold the in-domain, same-or-coarser leaf covering them, and
// the tiles' regular members plus the fallback cells partition the mesh
// (every cell computed exactly once per sweep). Returns whether some dense
// tile runs off the domain.
template <typename Solver>
bool check_tiles(const Solver& s) {
    using tsh::detail::kTilePad;
    using tsh::detail::kTileSize;
    using tsh::detail::tile_padded;
    const auto& mesh = s.mesh();
    const auto& cells = mesh.cells();
    const auto& geom = mesh.geometry();
    EXPECT_FALSE(s.tile_blocks().empty());
    std::vector<int> covered(mesh.num_cells(), 0);
    bool straddles_edge = false;
    for (const auto& t : s.tile_blocks()) {
        EXPECT_GE(std::popcount(t.regular), Solver::kMinTileRegular);
        // The tile's coordinates, read off its first regular member, which
        // must sit at the tile's level.
        const int k0 = std::countr_zero(t.regular);
        const mesh::Cell& first = cells[static_cast<std::size_t>(
            t.src[tile_padded(k0 % kTileSize, k0 / kTileSize)])];
        const std::int32_t level = t.level;
        EXPECT_EQ(first.level, level);
        const std::int32_t i0 = first.i / kTileSize * kTileSize;
        const std::int32_t j0 = first.j / kTileSize * kTileSize;
        const std::int32_t nx = geom.coarse_nx << level;
        const std::int32_t ny = geom.coarse_ny << level;
        straddles_edge |= i0 + kTileSize > nx || j0 + kTileSize > ny;
        for (int jj = 0; jj < kTileSize; ++jj) {
            for (int ii = 0; ii < kTileSize; ++ii) {
                const int k = jj * kTileSize + ii;
                const int p = tile_padded(ii, jj);
                const std::int32_t i = i0 + ii;
                const std::int32_t j = j0 + jj;
                const auto leaf = mesh.leaf_index(level, i, j);
                if (leaf >= 0) {
                    EXPECT_EQ(t.src[p], leaf)
                        << "level " << level << " (" << i << ", " << j << ")";
                }
                if (((t.regular >> k) & 1u) == 0) continue;
                EXPECT_GE(leaf, 0)
                    << "regular bit off the level at level " << level
                    << " (" << i << ", " << j << ")";
                if (leaf < 0) continue;
                EXPECT_EQ(cells[static_cast<std::size_t>(leaf)].level, level);
                // Padded-position step and index offset per side W, E, S, N.
                const int sides[4][3] = {{-1, -1, 0},
                                         {+1, +1, 0},
                                         {-kTilePad, 0, -1},
                                         {+kTilePad, 0, +1}};
                for (const auto& side : sides) {
                    const std::int32_t ni = i + side[1];
                    const std::int32_t nj = j + side[2];
                    EXPECT_TRUE(ni >= 0 && ni < nx && nj >= 0 && nj < ny);
                    if (ni < 0 || ni >= nx || nj < 0 || nj >= ny) continue;
                    const auto n = t.src[p + side[0]];
                    EXPECT_EQ(n, mesh.covering_leaf(level, ni, nj));
                    if (n < 0) continue;
                    EXPECT_LE(cells[static_cast<std::size_t>(n)].level,
                              level);
                }
                ++covered[static_cast<std::size_t>(leaf)];
            }
        }
    }
    for (const auto c : s.fallback_cells())
        ++covered[static_cast<std::size_t>(c)];
    for (std::size_t c = 0; c < covered.size(); ++c)
        EXPECT_EQ(covered[c], 1) << "cell " << c;
    return straddles_edge;
}

// After rezones on a refined mesh (level-0 tiles thin out there and go
// to the fallback), and on a uniform one, where the edge tiles are dense.
TEST(FluxTiles, MasksAndFallbackPartitionTheMesh) {
    bool straddles_edge = false;
    for (const int levels : {3, 0}) {
        SCOPED_TRACE("max_level " + std::to_string(levels));
        tsh::ShallowWaterSolver<fp::FullPrecision> s(
            amr_config(12, levels, /*rezone_interval=*/3));
        s.initialize_dam_break({});
        s.run(25);
        straddles_edge |= check_tiles(s);
    }
    EXPECT_TRUE(straddles_edge) << "no dense tile runs off the domain";
}

// The pass splits its cells into one range per thread, so the tile list
// (order, masks, levels, source maps) and the fallback list must not
// depend on the team size.
TEST(FluxTiles, TileListIndependentOfTeamSize) {
    struct Tiles {
        std::vector<std::uint64_t> regular;
        std::vector<std::int32_t> level;
        std::vector<std::int32_t> src;
        std::vector<std::int32_t> fallback;
    };
    const auto tiles_at = [](int threads) {
        util::set_threads(threads);
        tsh::ShallowWaterSolver<fp::MixedPrecision> s(
            amr_config(40, 3, /*rezone_interval=*/3));
        s.initialize_dam_break({});
        s.run(20);
        Tiles t;
        for (const auto& b : s.tile_blocks()) {
            t.regular.push_back(b.regular);
            t.level.push_back(b.level);
            t.src.insert(t.src.end(), b.src,
                         b.src + tsh::detail::kTilePadCells);
        }
        t.fallback = s.fallback_cells();
        return t;
    };
    const Tiles one = tiles_at(1);
    for (const int threads : {2, 3, 4}) {
        const Tiles many = tiles_at(threads);
        EXPECT_EQ(many.regular, one.regular) << threads << " threads";
        EXPECT_EQ(many.level, one.level) << threads << " threads";
        EXPECT_EQ(many.src, one.src) << threads << " threads";
        EXPECT_EQ(many.fallback, one.fallback) << threads << " threads";
    }
    util::set_threads(0);
}

// --------------------------------------------- zero steady-state allocs

// With rezoning disabled the flux sweep's steady state — gather, tile
// kernels, fallback packs, scatter — must perform zero heap allocations.
TEST(BlockedAllocations, SteadyStateStepIsAllocationFree) {
    tsh::ShallowWaterSolver<fp::MixedPrecision> s(
        amr_config(24, 2, /*rezone_interval=*/0));
    s.initialize_dam_break({});
    s.run(3);  // warm every lazy scratch buffer
    const std::uint64_t before = g_allocs.load();
    s.run(5);
    EXPECT_EQ(g_allocs.load(), before) << "flux sweep allocated in "
                                          "steady state";
}

}  // namespace
