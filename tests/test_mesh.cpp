#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "mesh/amr_mesh.hpp"
#include "mesh/cell.hpp"

namespace tmsh = tp::mesh;

namespace {

tmsh::MeshGeometry geom(int n, int max_level) {
    tmsh::MeshGeometry g;
    g.xmin = 0.0;
    g.ymin = 0.0;
    g.width = 1.0;
    g.height = 1.0;
    g.coarse_nx = n;
    g.coarse_ny = n;
    g.max_level = max_level;
    return g;
}

std::string why(const tmsh::AmrMesh& m) {
    std::string w;
    EXPECT_TRUE(m.check_invariants(&w)) << w;
    return w;
}

}  // namespace

// ------------------------------------------------------------------- keys
TEST(CellKey, UniquePerCell) {
    std::set<std::uint64_t> keys;
    for (int l = 0; l < 4; ++l)
        for (int i = 0; i < 8; ++i)
            for (int j = 0; j < 8; ++j)
                EXPECT_TRUE(keys.insert(tmsh::cell_key(l, i, j)).second);
}

TEST(Morton, InterleavesCorrectly) {
    EXPECT_EQ(tmsh::morton2d(0, 0), 0u);
    EXPECT_EQ(tmsh::morton2d(1, 0), 1u);
    EXPECT_EQ(tmsh::morton2d(0, 1), 2u);
    EXPECT_EQ(tmsh::morton2d(1, 1), 3u);
    EXPECT_EQ(tmsh::morton2d(2, 0), 4u);
    EXPECT_EQ(tmsh::morton2d(0xFFFFFFFFu, 0xFFFFFFFFu),
              0xFFFFFFFFFFFFFFFFull);
}

TEST(Morton, AnchorsDistinguishLevels) {
    // A parent and its first child share an anchor only if levels differ;
    // leaves never overlap, so distinct leaves get distinct anchors.
    const tmsh::Cell parent{1, 2, 3};
    const tmsh::Cell child0{2, 4, 6};
    EXPECT_EQ(tmsh::morton_anchor(parent, 3), tmsh::morton_anchor(child0, 3));
    const tmsh::Cell child3{2, 5, 7};
    EXPECT_NE(tmsh::morton_anchor(parent, 3), tmsh::morton_anchor(child3, 3));
}

// ----------------------------------------------------------- construction
TEST(AmrMesh, CoarseGridConstruction) {
    tmsh::AmrMesh m(geom(8, 2));
    EXPECT_EQ(m.num_cells(), 64u);
    why(m);
    EXPECT_DOUBLE_EQ(m.cell_dx(0), 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(m.cell_dx(2), 1.0 / 32.0);
}

TEST(AmrMesh, RejectsBadGeometry) {
    auto g = geom(0, 2);
    EXPECT_THROW(tmsh::AmrMesh{g}, std::invalid_argument);
    g = geom(4, -1);
    EXPECT_THROW(tmsh::AmrMesh{g}, std::invalid_argument);
    g = geom(4, 16);
    EXPECT_THROW(tmsh::AmrMesh{g}, std::invalid_argument);
}

TEST(AmrMesh, NonSquareDomain) {
    tmsh::MeshGeometry g;
    g.width = 4.0;
    g.height = 1.0;
    g.coarse_nx = 8;
    g.coarse_ny = 2;
    g.max_level = 2;
    tmsh::AmrMesh m(g);
    EXPECT_EQ(m.num_cells(), 16u);
    why(m);
    EXPECT_DOUBLE_EQ(m.cell_dx(0), 0.5);
    EXPECT_DOUBLE_EQ(m.cell_dy(0), 0.5);
}

// -------------------------------------------------------------- refinement
TEST(AmrMesh, RefineOneCellMakesFourChildren) {
    tmsh::AmrMesh m(geom(4, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    flags[5] = tmsh::kRefineFlag;
    const auto plan = m.adapt(flags);
    EXPECT_EQ(m.num_cells(), 19u);  // 16 - 1 + 4
    EXPECT_EQ(plan.size(), m.num_cells());
    why(m);
    int refined = 0;
    for (const auto& e : plan)
        if (e.kind == tmsh::RemapKind::Refine) ++refined;
    EXPECT_EQ(refined, 4);
}

TEST(AmrMesh, RefineBeyondMaxLevelIgnored) {
    tmsh::AmrMesh m(geom(4, 0));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kRefineFlag);
    m.adapt(flags);
    EXPECT_EQ(m.num_cells(), 16u);
    why(m);
}

TEST(AmrMesh, CoarsenRequiresWholeSiblingGroup) {
    tmsh::AmrMesh m(geom(4, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    flags[0] = tmsh::kRefineFlag;
    m.adapt(flags);
    ASSERT_EQ(m.num_cells(), 19u);

    // Flag only 3 of the 4 children: nothing may coarsen.
    std::vector<std::int8_t> partial(m.num_cells(), tmsh::kKeepFlag);
    int marked = 0;
    for (std::size_t c = 0; c < m.num_cells(); ++c)
        if (m.cells()[c].level == 1 && marked < 3) {
            partial[c] = tmsh::kCoarsenFlag;
            ++marked;
        }
    m.adapt(partial);
    EXPECT_EQ(m.num_cells(), 19u);

    // Flag all 4: the group collapses back.
    std::vector<std::int8_t> all(m.num_cells(), tmsh::kKeepFlag);
    for (std::size_t c = 0; c < m.num_cells(); ++c)
        if (m.cells()[c].level == 1) all[c] = tmsh::kCoarsenFlag;
    const auto plan = m.adapt(all);
    EXPECT_EQ(m.num_cells(), 16u);
    why(m);
    int coarsened = 0;
    for (const auto& e : plan)
        if (e.kind == tmsh::RemapKind::Coarsen) ++coarsened;
    EXPECT_EQ(coarsened, 1);
}

TEST(AmrMesh, AdaptRejectsWrongFlagCount) {
    tmsh::AmrMesh m(geom(4, 1));
    std::vector<std::int8_t> flags(3, tmsh::kKeepFlag);
    EXPECT_THROW((void)m.adapt(flags), std::invalid_argument);
}

TEST(AmrMesh, BalanceEnforced) {
    // Refine one cell twice; its neighbors must be dragged to within one
    // level even though they were never flagged.
    tmsh::AmrMesh m(geom(8, 3));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    // Refine the cell containing (0.4, 0.4) repeatedly.
    for (int round = 0; round < 3; ++round) {
        flags.assign(m.num_cells(), tmsh::kKeepFlag);
        const auto idx = m.find_cell(0.4, 0.4);
        ASSERT_GE(idx, 0);
        flags[static_cast<std::size_t>(idx)] = tmsh::kRefineFlag;
        m.adapt(flags);
        why(m);
    }
    // At least one cell reached level 3 and no invariant (including 2:1
    // balance, verified inside check_invariants) is violated.
    int deepest = 0;
    for (const auto& c : m.cells()) deepest = std::max(deepest, c.level);
    EXPECT_EQ(deepest, 3);
}

TEST(AmrMesh, RemapPlanCoversEveryNewCell) {
    tmsh::AmrMesh m(geom(8, 2));
    std::vector<std::int8_t> flags(m.num_cells());
    for (std::size_t c = 0; c < m.num_cells(); ++c)
        flags[c] = (c % 3 == 0) ? tmsh::kRefineFlag : tmsh::kKeepFlag;
    const std::size_t before = m.num_cells();
    const auto plan = m.adapt(flags);
    ASSERT_EQ(plan.size(), m.num_cells());
    for (const auto& e : plan) {
        const int nsrc = e.kind == tmsh::RemapKind::Coarsen ? 4 : 1;
        for (int s = 0; s < nsrc; ++s) {
            EXPECT_GE(e.src[s], 0);
            EXPECT_LT(static_cast<std::size_t>(e.src[s]), before);
        }
    }
}

// An adapt that changes nothing (all keep, or coarsening the mesh cannot
// honor) yields the identity plan; any topology change does not, wherever
// in the Morton order it happens.
TEST(AmrMesh, IdentityPlanIffTopologyUnchanged) {
    tmsh::AmrMesh m(geom(8, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    EXPECT_TRUE(m.adapt(flags).is_identity());
    flags.assign(m.num_cells(), tmsh::kCoarsenFlag);  // level 0: no-op
    EXPECT_TRUE(m.adapt(flags).is_identity());
    for (const std::size_t c : {std::size_t{0}, m.num_cells() - 1}) {
        flags.assign(m.num_cells(), tmsh::kKeepFlag);
        flags[c] = tmsh::kRefineFlag;
        EXPECT_FALSE(m.adapt(flags).is_identity()) << "refine " << c;
    }
    flags.assign(m.num_cells(), tmsh::kKeepFlag);
    EXPECT_TRUE(m.adapt(flags).is_identity());
    flags.assign(m.num_cells(), tmsh::kCoarsenFlag);
    EXPECT_FALSE(m.adapt(flags).is_identity());
}

// --------------------------------------------------------- point location
TEST(AmrMesh, FindCellLocatesLeaves) {
    tmsh::AmrMesh m(geom(4, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    flags[static_cast<std::size_t>(m.find_cell(0.1, 0.1))] =
        tmsh::kRefineFlag;
    m.adapt(flags);
    // The refined region returns level-1 cells; elsewhere level 0.
    const auto idx_fine = m.find_cell(0.05, 0.05);
    ASSERT_GE(idx_fine, 0);
    EXPECT_EQ(m.cells()[static_cast<std::size_t>(idx_fine)].level, 1);
    const auto idx_coarse = m.find_cell(0.9, 0.9);
    ASSERT_GE(idx_coarse, 0);
    EXPECT_EQ(m.cells()[static_cast<std::size_t>(idx_coarse)].level, 0);
}

TEST(AmrMesh, FindCellOutsideDomain) {
    tmsh::AmrMesh m(geom(4, 1));
    EXPECT_EQ(m.find_cell(-0.1, 0.5), -1);
    EXPECT_EQ(m.find_cell(0.5, 1.5), -1);
}

TEST(AmrMesh, FindCellConsistentWithCenters) {
    tmsh::AmrMesh m(geom(8, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    for (std::size_t c = 0; c < m.num_cells(); c += 5)
        flags[c] = tmsh::kRefineFlag;
    m.adapt(flags);
    for (std::size_t c = 0; c < m.num_cells(); ++c) {
        const auto& cell = m.cells()[c];
        const auto found =
            m.find_cell(m.cell_center_x(cell), m.cell_center_y(cell));
        EXPECT_EQ(found, static_cast<std::int32_t>(c));
    }
}

// ------------------------------------------------------------------ faces
TEST(AmrMesh, UniformMeshFaceCounts) {
    tmsh::AmrMesh m(geom(4, 0));
    EXPECT_EQ(m.x_faces().size(), 12u);  // 3 interior columns x 4 rows
    EXPECT_EQ(m.y_faces().size(), 12u);
    EXPECT_EQ(m.boundary_faces().size(), 16u);
}

TEST(AmrMesh, FineCoarseFacesSplit) {
    tmsh::AmrMesh m(geom(2, 1));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    flags[0] = tmsh::kRefineFlag;
    m.adapt(flags);
    why(m);  // face closure checked inside invariants
    // The refined quadrant's right edge must carry two half-size faces.
    int half_faces = 0;
    for (const auto& f : m.x_faces())
        if (f.area < 0.3) ++half_faces;
    EXPECT_GE(half_faces, 2);
}

class MeshStress : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MeshStress, RandomAdaptCyclesKeepInvariants) {
    const auto [n, max_level, seed] = GetParam();
    tmsh::AmrMesh m(geom(n, max_level));
    std::uint64_t state = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
    auto next = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 8; ++round) {
        std::vector<std::int8_t> flags(m.num_cells());
        for (auto& f : flags) {
            const auto r = next() % 10;
            f = r < 3 ? tmsh::kRefineFlag
                      : (r < 6 ? tmsh::kCoarsenFlag : tmsh::kKeepFlag);
        }
        const auto plan = m.adapt(flags);
        EXPECT_EQ(plan.size(), m.num_cells());
        std::string w;
        ASSERT_TRUE(m.check_invariants(&w))
            << "round " << round << ": " << w;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshStress,
    ::testing::Combine(::testing::Values(4, 8), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2)));

namespace {

// Deterministic xorshift flag generator shared by the incremental-index
// tests below.
std::vector<std::int8_t> random_flags(std::size_t n, std::uint64_t& state) {
    std::vector<std::int8_t> flags(n);
    for (auto& f : flags) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const auto r = state % 10;
        f = r < 3 ? tmsh::kRefineFlag
                  : (r < 6 ? tmsh::kCoarsenFlag : tmsh::kKeepFlag);
    }
    return flags;
}

}  // namespace

// The sorted Morton index is maintained by splicing across adapt/balance,
// never rebuilt — so after any flag sequence the leaf list must still be
// strictly ordered by finest-level anchor code.
TEST(AmrMesh, AdaptKeepsCellsMortonSorted) {
    tmsh::AmrMesh m(geom(6, 3));
    std::uint64_t state = 12345;
    for (int round = 0; round < 6; ++round) {
        const auto flags = random_flags(m.num_cells(), state);
        (void)m.adapt(flags);
        const auto& cells = m.cells();
        for (std::size_t c = 1; c < cells.size(); ++c) {
            EXPECT_LT(tmsh::morton_anchor(cells[c - 1], 3),
                      tmsh::morton_anchor(cells[c], 3))
                << "round " << round << " at index " << c;
        }
    }
}

// The hinted (galloping) lookups must agree with the plain binary search
// for every hint, including worst-case far-away ones.
TEST(AmrMesh, HintedLookupsMatchPlainSearch) {
    tmsh::AmrMesh m(geom(6, 3));
    std::uint64_t state = 999;
    for (int round = 0; round < 3; ++round)
        (void)m.adapt(random_flags(m.num_cells(), state));
    const auto& cells = m.cells();
    const auto n = static_cast<std::int32_t>(cells.size());
    for (std::int32_t c = 0; c < n; ++c) {
        const auto& cell = cells[static_cast<std::size_t>(c)];
        if (cell.i == 0) continue;
        const std::int32_t want =
            m.covering_leaf(cell.level, cell.i - 1, cell.j);
        // Hints: self (the hot-path case), both extremes, and a rotation.
        for (const std::int32_t hint : {c, std::int32_t{0}, n - 1,
                                        (c * 7 + 13) % n}) {
            EXPECT_EQ(m.covering_leaf_near(hint, cell.level, cell.i - 1,
                                           cell.j),
                      want)
                << "cell " << c << " hint " << hint;
        }
    }
}

// Copy spans must (a) cover exactly the Copy entries, (b) carry the true
// constant shift, and (c) be maximal — no two adjacent spans can merge and
// no span can extend by one entry on either side.
TEST(AmrMesh, CopySpansExactMaximalSorted) {
    tmsh::AmrMesh m(geom(8, 3));
    std::uint64_t state = 777;
    for (int round = 0; round < 5; ++round) {
        const auto plan = m.adapt(random_flags(m.num_cells(), state));
        const auto& entries = plan.entries;
        const auto& spans = plan.copy_spans;
        std::vector<bool> in_span(entries.size(), false);
        std::int32_t prev_end = 0;
        for (std::size_t k = 0; k < spans.size(); ++k) {
            const auto& s = spans[k];
            ASSERT_LT(s.begin, s.end);
            ASSERT_GE(s.begin, prev_end);  // sorted and disjoint
            for (std::int32_t c = s.begin; c < s.end; ++c) {
                ASSERT_EQ(entries[static_cast<std::size_t>(c)].kind,
                          tmsh::RemapKind::Copy);
                ASSERT_EQ(c - entries[static_cast<std::size_t>(c)].src[0],
                          s.shift);
                in_span[static_cast<std::size_t>(c)] = true;
            }
            // Maximality: the entry just before/after is not a Copy
            // continuing the same shift (adjacent spans always differ in
            // shift, otherwise they would be one span).
            if (k > 0 && spans[k - 1].end == s.begin) {
                EXPECT_NE(spans[k - 1].shift, s.shift);
            }
            const auto before = s.begin - 1;
            if (before >= 0 && !in_span[static_cast<std::size_t>(before)]) {
                EXPECT_TRUE(entries[static_cast<std::size_t>(before)].kind !=
                                tmsh::RemapKind::Copy ||
                            before - entries[static_cast<std::size_t>(before)]
                                         .src[0] !=
                                s.shift);
            }
            prev_end = s.end;
        }
        for (std::size_t c = 0; c < entries.size(); ++c)
            EXPECT_EQ(in_span[c], entries[c].kind == tmsh::RemapKind::Copy)
                << "entry " << c << " round " << round;
    }
}

TEST(AmrMesh, MetadataBytesPerCell) {
    tmsh::AmrMesh m(geom(4, 1));
    EXPECT_EQ(m.metadata_bytes(), m.num_cells() * 12u);
    EXPECT_GT(m.resident_bytes(), m.metadata_bytes());
}

TEST(AmrMesh, FinestDxTracksRefinement) {
    tmsh::AmrMesh m(geom(4, 2));
    EXPECT_DOUBLE_EQ(m.finest_dx(), 0.25);
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    flags[0] = tmsh::kRefineFlag;
    m.adapt(flags);
    EXPECT_DOUBLE_EQ(m.finest_dx(), 0.125);
}

// ------------------------------------------------------ more properties
TEST(AmrMesh, RefineThenCoarsenRestoresMesh) {
    tmsh::AmrMesh m(geom(6, 2));
    const auto before = m.cells();
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kRefineFlag);
    m.adapt(flags);
    EXPECT_EQ(m.num_cells(), before.size() * 4);
    std::vector<std::int8_t> back(m.num_cells(), tmsh::kCoarsenFlag);
    m.adapt(back);
    EXPECT_EQ(m.cells().size(), before.size());
    for (std::size_t c = 0; c < before.size(); ++c)
        EXPECT_EQ(m.cells()[c], before[c]);
    why(m);
}

TEST(AmrMesh, CoarsenOnCoarseGridIsNoOp) {
    tmsh::AmrMesh m(geom(5, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kCoarsenFlag);
    const auto plan = m.adapt(flags);
    EXPECT_EQ(m.num_cells(), 25u);
    for (const auto& e : plan) EXPECT_EQ(e.kind, tmsh::RemapKind::Copy);
}

TEST(AmrMesh, FindCellContainsQueriedPoint) {
    // Property: the returned leaf geometrically contains the query point.
    tmsh::AmrMesh m(geom(8, 3));
    std::uint64_t state = 12345;
    auto next = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return static_cast<double>(state % 100000) / 100000.0;
    };
    // Random refinement to make the leaf structure irregular.
    for (int round = 0; round < 4; ++round) {
        std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
        for (auto& f : flags)
            if (next() < 0.3) f = tmsh::kRefineFlag;
        m.adapt(flags);
    }
    for (int k = 0; k < 500; ++k) {
        const double x = next();
        const double y = next();
        const auto idx = m.find_cell(x, y);
        ASSERT_GE(idx, 0);
        const auto& c = m.cells()[static_cast<std::size_t>(idx)];
        const double dx = m.cell_dx(c.level);
        const double dy = m.cell_dy(c.level);
        EXPECT_GE(x, c.i * dx - 1e-12);
        EXPECT_LT(x, (c.i + 1) * dx + 1e-12);
        EXPECT_GE(y, c.j * dy - 1e-12);
        EXPECT_LT(y, (c.j + 1) * dy + 1e-12);
    }
}

TEST(AmrMesh, FaceAreasSumToCrossSections) {
    // The total area of x-faces in any column band plus boundary faces
    // equals ncols * height; verified globally here.
    tmsh::AmrMesh m(geom(6, 2));
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kKeepFlag);
    flags[3] = tmsh::kRefineFlag;
    flags[10] = tmsh::kRefineFlag;
    m.adapt(flags);
    double xarea = 0.0;
    for (const auto& f : m.x_faces()) xarea += f.area;
    // 5 interior coarse column boundaries x height 1.0, plus one internal
    // child-column (height dy0 = 1/6) inside each of the two refined
    // cells.
    EXPECT_NEAR(xarea, 5.0 + 2.0 / 6.0, 1e-12);
}

TEST(AmrMesh, ResidentBytesGrowWithRefinement) {
    tmsh::AmrMesh m(geom(8, 2));
    const auto before = m.resident_bytes();
    std::vector<std::int8_t> flags(m.num_cells(), tmsh::kRefineFlag);
    m.adapt(flags);
    EXPECT_GT(m.resident_bytes(), before);
}
