#include "mesh/amr_mesh.hpp"

#include "util/arena.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace tp::mesh {

namespace {

constexpr std::array<std::pair<int, int>, 4> kChildOffsets = {
    {{0, 0}, {1, 0}, {0, 1}, {1, 1}}};

}  // namespace

AmrMesh::AmrMesh(const MeshGeometry& geom) : geom_(geom) {
    if (geom_.coarse_nx <= 0 || geom_.coarse_ny <= 0 || geom_.max_level < 0 ||
        geom_.max_level > 15 || geom_.width <= 0.0 || geom_.height <= 0.0)
        throw std::invalid_argument("AmrMesh: invalid geometry");
    dx0_ = geom_.width / geom_.coarse_nx;
    dy0_ = geom_.height / geom_.coarse_ny;

    cells_.reserve(static_cast<std::size_t>(geom_.coarse_nx) * geom_.coarse_ny);
    for (std::int32_t j = 0; j < geom_.coarse_ny; ++j)
        for (std::int32_t i = 0; i < geom_.coarse_nx; ++i)
            cells_.push_back(Cell{0, i, j});
    std::sort(cells_.begin(), cells_.end(),
              [this](const Cell& a, const Cell& b) {
                  return morton_anchor(a, geom_.max_level) <
                         morton_anchor(b, geom_.max_level);
              });
    rebuild_keys();
    build_boundary_faces();
}

AmrMesh::AmrMesh(const MeshGeometry& geom, std::vector<Cell> cells)
    : geom_(geom) {
    if (geom_.coarse_nx <= 0 || geom_.coarse_ny <= 0 || geom_.max_level < 0 ||
        geom_.max_level > 15 || geom_.width <= 0.0 || geom_.height <= 0.0)
        throw std::invalid_argument("AmrMesh: invalid geometry");
    dx0_ = geom_.width / geom_.coarse_nx;
    dy0_ = geom_.height / geom_.coarse_ny;

    cells_ = std::move(cells);
    std::sort(cells_.begin(), cells_.end(),
              [this](const Cell& a, const Cell& b) {
                  return morton_anchor(a, geom_.max_level) <
                         morton_anchor(b, geom_.max_level);
              });
    rebuild_keys();
    build_boundary_faces();
    std::string why;
    if (!check_invariants(&why))
        throw std::invalid_argument("AmrMesh: restored cell list invalid: " +
                                    why);
}

void AmrMesh::rebuild_keys() {
    keys_.resize(cells_.size());
    for (std::size_t idx = 0; idx < cells_.size(); ++idx)
        keys_[idx] = morton_anchor(cells_[idx], geom_.max_level);
}

void AmrMesh::validate_order() const {
#ifndef NDEBUG
    assert(keys_.size() == cells_.size());
    for (std::size_t idx = 0; idx < cells_.size(); ++idx) {
        assert(keys_[idx] == morton_anchor(cells_[idx], geom_.max_level));
        assert(idx == 0 || keys_[idx - 1] < keys_[idx]);
    }
#endif
}

double AmrMesh::finest_dx() const {
    std::int32_t finest = 0;
    for (const Cell& c : cells_) finest = std::max(finest, c.level);
    return std::min(cell_dx(finest), cell_dy(finest));
}

std::int32_t AmrMesh::covering_leaf(std::int32_t level, std::int32_t i,
                                    std::int32_t j) const {
    const auto shift = static_cast<std::uint32_t>(geom_.max_level - level);
    const std::uint64_t x = morton2d(static_cast<std::uint32_t>(i) << shift,
                                     static_cast<std::uint32_t>(j) << shift);
    // Leaves occupy disjoint Morton ranges aligned to their size, so the
    // leaf containing code x is the one with the largest anchor <= x.
    const auto it = std::upper_bound(keys_.begin(), keys_.end(), x);
    if (it == keys_.begin()) return -1;  // unreachable inside the domain
    return static_cast<std::int32_t>(it - keys_.begin()) - 1;
}

std::int32_t AmrMesh::gallop_last_le(std::int32_t hint, std::uint64_t x) const {
    const auto n = static_cast<std::int32_t>(keys_.size());
    std::int32_t step = 1;
    std::int32_t lo;  // keys_[lo] <= x (or lo == -1)
    std::int32_t hi;  // keys_[hi] > x (or hi == n)
    if (keys_[static_cast<std::size_t>(hint)] <= x) {
        lo = hint;
        hi = lo + 1;
        while (hi < n && keys_[static_cast<std::size_t>(hi)] <= x) {
            lo = hi;
            hi = lo + step;
            step <<= 1;
        }
        hi = std::min(hi, n);
    } else {
        hi = hint;
        lo = hi - 1;
        while (lo >= 0 && keys_[static_cast<std::size_t>(lo)] > x) {
            hi = lo;
            lo = hi - step;
            step <<= 1;
        }
        if (lo < 0) {
            lo = -1;
            if (hi == 0) return -1;
        }
    }
    const auto it = std::upper_bound(keys_.begin() + lo + 1,
                                     keys_.begin() + hi, x);
    return static_cast<std::int32_t>(it - keys_.begin()) - 1;
}

std::int32_t AmrMesh::covering_leaf_near(std::int32_t hint, std::int32_t level,
                                         std::int32_t i, std::int32_t j) const {
    const auto shift = static_cast<std::uint32_t>(geom_.max_level - level);
    const std::uint64_t x = morton2d(static_cast<std::uint32_t>(i) << shift,
                                     static_cast<std::uint32_t>(j) << shift);
    return gallop_last_le(hint, x);
}

std::int32_t AmrMesh::leaf_index_near(std::int32_t hint, std::int32_t level,
                                      std::int32_t i, std::int32_t j) const {
    const auto shift = static_cast<std::uint32_t>(geom_.max_level - level);
    const std::uint64_t x = morton2d(static_cast<std::uint32_t>(i) << shift,
                                     static_cast<std::uint32_t>(j) << shift);
    const std::int32_t r = gallop_last_le(hint, x);
    // Keys are strictly increasing, so an exact anchor match can only sit
    // at the last-<= position; anchor + level then pin the leaf uniquely.
    if (r < 0 || keys_[static_cast<std::size_t>(r)] != x ||
        cells_[static_cast<std::size_t>(r)].level != level)
        return -1;
    return r;
}

std::int32_t AmrMesh::leaf_index(std::int32_t level, std::int32_t i,
                                 std::int32_t j) const {
    const auto shift = static_cast<std::uint32_t>(geom_.max_level - level);
    const std::uint64_t x = morton2d(static_cast<std::uint32_t>(i) << shift,
                                     static_cast<std::uint32_t>(j) << shift);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), x);
    if (it == keys_.end() || *it != x) return -1;
    // A parent and its first child share an anchor, so the level must be
    // compared; anchor + level determine (i, j) uniquely.
    const auto idx = static_cast<std::int32_t>(it - keys_.begin());
    return cells_[static_cast<std::size_t>(idx)].level == level ? idx : -1;
}

std::int32_t AmrMesh::find_cell(double x, double y) const {
    const double fx = (x - geom_.xmin) / dx0_;
    const double fy = (y - geom_.ymin) / dy0_;
    if (fx < 0.0 || fy < 0.0 || fx >= geom_.coarse_nx || fy >= geom_.coarse_ny)
        return -1;
    // Locate the finest-level unit containing the point, then the covering
    // leaf via one binary search. Scaling by 2^l is exact in binary
    // floating point, so floor(f * 2^max) >> (max - l) == floor(f * 2^l):
    // this finds exactly the leaf the old per-level probe loop found.
    const double scale = static_cast<double>(1u << geom_.max_level);
    const auto fi = static_cast<std::int32_t>(fx * scale);
    const auto fj = static_cast<std::int32_t>(fy * scale);
    return covering_leaf(geom_.max_level, fi, fj);
}

bool AmrMesh::has_finer_cover(std::int32_t level, std::int32_t i,
                              std::int32_t j) const {
    // Exact tiling: the quadrant is either a leaf, covered by a coarser
    // leaf, or subdivided. When subdivided, the first finer leaf inside is
    // anchored exactly at the quadrant's anchor (finer blocks are aligned
    // to their size, which divides the quadrant's alignment); a coarser
    // cover is at the same anchor with level < `level`, or at an earlier
    // anchor. So one covering lookup decides all three cases.
    const std::int32_t q = covering_leaf(level, i, j);
    if (q < 0) return false;
    const auto shift = static_cast<std::uint32_t>(geom_.max_level - level);
    const std::uint64_t x = morton2d(static_cast<std::uint32_t>(i) << shift,
                                     static_cast<std::uint32_t>(j) << shift);
    return keys_[static_cast<std::size_t>(q)] == x &&
           cells_[static_cast<std::size_t>(q)].level > level;
}

RemapPlan AmrMesh::adapt(std::span<const std::int8_t> flags) {
    RemapPlan plan;
    adapt(flags, plan);
    return plan;
}

void AmrMesh::adapt(std::span<const std::int8_t> flags, RemapPlan& plan) {
    if (flags.size() != cells_.size())
        throw std::invalid_argument("adapt: flag count != cell count");

    const std::int32_t max_level = geom_.max_level;
    const std::int32_t nx0 = geom_.coarse_nx;
    const std::int32_t ny0 = geom_.coarse_ny;
    const auto n = static_cast<std::int64_t>(cells_.size());

    // --- Pass 1: approve coarsen groups --------------------------------
    // A sibling group (four leaves sharing a parent) coarsens only when all
    // four are flagged kCoarsenFlag and no adjacent leaf is finer than the
    // siblings (the parent would then break 2:1 balance), and no same-level
    // neighbor is about to refine. The four siblings of a complete group
    // are consecutive in Morton order (their parent block contains no other
    // leaf), so groups stream off the sorted list with no hashing; group
    // starts are disjoint 4-cell windows, so the scan threads safely.
    std::vector<std::uint8_t> coarsen_ok(cells_.size(), 0);
    auto inside = [&](std::int32_t l, std::int32_t i, std::int32_t j) {
        return i >= 0 && j >= 0 && i < (nx0 << l) && j < (ny0 << l);
    };
    auto neighbor_blocks_coarsen = [&](std::int32_t hint, std::int32_t l,
                                       std::int32_t i, std::int32_t j) {
        if (!inside(l, i, j)) return false;
        const std::int32_t q = covering_leaf_near(hint, l, i, j);
        const Cell& nb = cells_[static_cast<std::size_t>(q)];
        if (nb.level > l) return true;  // finer neighbor blocks the parent
        if (nb.level == l && nb.i == i && nb.j == j)
            return flags[static_cast<std::size_t>(q)] == kRefineFlag;
        return false;  // coarser neighbor never blocks
    };
    std::int64_t nrefine = 0;  // exact split count, for pass-2 reserves
#pragma omp parallel for schedule(static) reduction(+ : nrefine)
    for (std::int64_t idx = 0; idx < n; ++idx) {
        const Cell& c = cells_[static_cast<std::size_t>(idx)];
        if (flags[static_cast<std::size_t>(idx)] == kRefineFlag &&
            c.level < max_level)
            ++nrefine;
        // Only the slot-0 sibling (even i and j) opens a group window.
        if (flags[static_cast<std::size_t>(idx)] != kCoarsenFlag ||
            c.level == 0 || (c.i & 1) != 0 || (c.j & 1) != 0)
            continue;
        if (idx + 3 >= n) continue;
        bool complete = true;
        for (int s = 1; s < 4; ++s) {
            const Cell& m = cells_[static_cast<std::size_t>(idx + s)];
            const auto& [di, dj] = kChildOffsets[static_cast<std::size_t>(s)];
            if (m.level != c.level || m.i != c.i + di || m.j != c.j + dj ||
                flags[static_cast<std::size_t>(idx + s)] != kCoarsenFlag) {
                complete = false;
                break;
            }
        }
        if (!complete) continue;
        bool ok = true;
        for (int s = 0; s < 4 && ok; ++s) {
            const auto h = static_cast<std::int32_t>(idx + s);
            const Cell& m = cells_[static_cast<std::size_t>(idx + s)];
            if (neighbor_blocks_coarsen(h, m.level, m.i - 1, m.j) ||
                neighbor_blocks_coarsen(h, m.level, m.i + 1, m.j) ||
                neighbor_blocks_coarsen(h, m.level, m.i, m.j - 1) ||
                neighbor_blocks_coarsen(h, m.level, m.i, m.j + 1))
                ok = false;
        }
        if (ok)
            for (int s = 0; s < 4; ++s)
                coarsen_ok[static_cast<std::size_t>(idx + s)] = 1;
    }

    // --- Pass 2: emit the new cell list ---------------------------------
    // Processing in Morton order keeps the output Morton-ordered: the four
    // siblings of a coarsen group are contiguous, and refine children are
    // emitted in Morton child order inside their parent's span. keys_ is
    // emitted alongside, so no post-adapt sort or index rebuild exists.
    std::vector<Cell>& next = spare_cells_;
    std::vector<std::uint64_t>& next_keys = spare_keys_;
    std::vector<RemapEntry>& remap = plan.entries;
    next.clear();
    next_keys.clear();
    remap.clear();
    plan.copy_spans.clear();
    // Newly created children, recorded as balance-scan seeds: only their
    // neighborhoods can have lost 2:1 balance.
    std::vector<std::int32_t> seeds;
    // The emit buffers are reused across adapts; growing them with
    // headroom also leaves room for the balance refinements appended
    // below, which would otherwise reallocate all three lists.
    const std::size_t emit =
        cells_.size() + 3 * static_cast<std::size_t>(nrefine);
    util::reserve_for_refill(next, emit);
    util::reserve_for_refill(next_keys, emit);
    util::reserve_for_refill(remap, emit);
    seeds.reserve(4 * static_cast<std::size_t>(nrefine));
    // Unchanged cells dominate in steady state, so they move in bulk runs
    // (cells and keys via range insert, Copy entries via a tight fill)
    // flushed at each coarsen/refine site instead of cell-at-a-time.
    std::size_t run_begin = 0;
    auto flush_run = [&](std::size_t end) {
        if (run_begin >= end) return;
        next.insert(next.end(), cells_.begin() + run_begin,
                    cells_.begin() + end);
        next_keys.insert(next_keys.end(), keys_.begin() + run_begin,
                         keys_.begin() + end);
        const std::size_t base = remap.size();
        remap.resize(base + (end - run_begin));
        RemapEntry* r = remap.data() + base;
        for (std::size_t k = run_begin; k < end; ++k)
            r[k - run_begin] = RemapEntry{
                RemapKind::Copy, {static_cast<std::int32_t>(k), -1, -1, -1}};
    };
    for (std::size_t idx = 0; idx < cells_.size(); ++idx) {
        const Cell& c = cells_[idx];
        if (coarsen_ok[idx]) {
            flush_run(idx);
            run_begin = idx + 1;
            // Only the first sibling in Morton order (child slot 0 of the
            // group: even i and j) emits the parent; members are the four
            // consecutive cells starting at it.
            if ((c.i & 1) == 0 && (c.j & 1) == 0) {
                const Cell parent{c.level - 1, c.i >> 1, c.j >> 1};
                next.push_back(parent);
                next_keys.push_back(morton_anchor(parent, max_level));
                RemapEntry e{RemapKind::Coarsen, {}};
                for (int s = 0; s < 4; ++s)
                    e.src[s] = static_cast<std::int32_t>(idx) + s;
                remap.push_back(e);
            }
            continue;
        }
        if (flags[idx] == kRefineFlag && c.level < max_level) {
            flush_run(idx);
            run_begin = idx + 1;
            for (const auto& [di, dj] : kChildOffsets) {
                const Cell child{c.level + 1, 2 * c.i + di, 2 * c.j + dj};
                seeds.push_back(static_cast<std::int32_t>(next.size()));
                next.push_back(child);
                next_keys.push_back(morton_anchor(child, max_level));
                remap.push_back(RemapEntry{
                    RemapKind::Refine,
                    {static_cast<std::int32_t>(idx), -1, -1, -1}});
            }
            continue;
        }
    }
    flush_run(cells_.size());

    // The old list becomes the next adapt's emit buffer.
    cells_.swap(next);
    keys_.swap(next_keys);
    enforce_balance(remap, std::move(seeds));
    build_boundary_faces();
    faces_dirty_ = true;
    validate_order();

    // --- Digest: maximal constant-shift Copy spans -----------------------
    for (std::size_t idx = 0; idx < plan.entries.size();) {
        const RemapEntry& e = plan.entries[idx];
        if (e.kind != RemapKind::Copy) {
            ++idx;
            continue;
        }
        const std::int32_t begin = static_cast<std::int32_t>(idx);
        const std::int32_t shift = begin - e.src[0];
        ++idx;
        while (idx < plan.entries.size() &&
               plan.entries[idx].kind == RemapKind::Copy &&
               static_cast<std::int32_t>(idx) - plan.entries[idx].src[0] ==
                   shift)
            ++idx;
        plan.copy_spans.push_back(
            CopySpan{begin, static_cast<std::int32_t>(idx), shift});
    }
}

void AmrMesh::enforce_balance(std::vector<RemapEntry>& remap,
                              std::vector<std::int32_t>&& seeds) {
    // Balance violations only appear next to cells created this adapt: the
    // pre-adapt mesh was balanced, coarsening is blocked whenever a finer
    // (or refining) neighbor exists, and refinement deepens any edge
    // neighborhood by at most one level per pass. So instead of scanning
    // the full mesh every pass, scan only the edge neighbors of the cells
    // created in the previous round (`seeds`). A covering leaf two or more
    // levels coarser than a seed is a violated cell, and every violated
    // cell borders some seed, so the violated set — sorted, i.e. in Morton
    // order — matches what the historic full-mesh scan found, and the
    // splice below reproduces it bit-for-bit.
    const std::int32_t nx0 = geom_.coarse_nx;
    const std::int32_t ny0 = geom_.coarse_ny;
    auto inside = [&](std::int32_t l, std::int32_t i, std::int32_t j) {
        return i >= 0 && j >= 0 && i < (nx0 << l) && j < (ny0 << l);
    };

    std::vector<std::int32_t> violated;
    for (int pass = 0; pass <= geom_.max_level + 1; ++pass) {
        if (seeds.empty()) return;
        violated.clear();
        for (const std::int32_t s : seeds) {
            const Cell& f = cells_[static_cast<std::size_t>(s)];
            const std::int32_t l = f.level;
            auto check = [&](std::int32_t ni, std::int32_t nj) {
                if (!inside(l, ni, nj)) return;
                const std::int32_t q = covering_leaf_near(s, l, ni, nj);
                if (cells_[static_cast<std::size_t>(q)].level <= l - 2)
                    violated.push_back(q);
            };
            // Seeds are always created as complete sibling quads, so the
            // two sides facing the sibling block see a level-l leaf and
            // can never be violated; only the two outward sides (picked
            // by coordinate parity) need a lookup.
            check((f.i & 1) == 0 ? f.i - 1 : f.i + 1, f.j);
            check(f.i, (f.j & 1) == 0 ? f.j - 1 : f.j + 1);
        }
        std::sort(violated.begin(), violated.end());
        violated.erase(std::unique(violated.begin(), violated.end()),
                       violated.end());
        if (violated.empty()) return;

        // Expand the violated cells in place, walking backward so each
        // suffix block moves at most once (memmove) — the prefix before
        // the first violated index is never touched, keys stay sorted by
        // construction, and no index rebuild or re-sort happens. The new
        // children become the next pass's seeds.
        const std::size_t oldn = cells_.size();
        const std::size_t newn = oldn + 3 * violated.size();
        cells_.resize(newn);
        keys_.resize(newn);
        remap.resize(newn);
        seeds.clear();
        std::size_t src_end = oldn;
        std::size_t dst_end = newn;
        for (std::size_t k = violated.size(); k-- > 0;) {
            const auto v = static_cast<std::size_t>(violated[k]);
            const std::size_t len = src_end - (v + 1);
            if (len > 0) {
                std::memmove(cells_.data() + dst_end - len,
                             cells_.data() + v + 1, len * sizeof(Cell));
                std::memmove(keys_.data() + dst_end - len,
                             keys_.data() + v + 1,
                             len * sizeof(std::uint64_t));
                std::memmove(remap.data() + dst_end - len,
                             remap.data() + v + 1, len * sizeof(RemapEntry));
            }
            dst_end -= len;
            // Compose with the entry the parent already carries: a Copy
            // source becomes a Refine source; Refine stays (piecewise-
            // constant prolongation); Coarsen stays (the children inherit
            // the group average). Copy the parent out first: for the
            // first violated index the children land on top of it.
            const Cell c = cells_[v];
            RemapEntry e = remap[v];
            if (e.kind == RemapKind::Copy) e.kind = RemapKind::Refine;
            for (int s = 3; s >= 0; --s) {
                const auto& [di, dj] =
                    kChildOffsets[static_cast<std::size_t>(s)];
                const Cell child{c.level + 1, 2 * c.i + di, 2 * c.j + dj};
                const std::size_t p =
                    dst_end - 4 + static_cast<std::size_t>(s);
                cells_[p] = child;
                keys_[p] = morton_anchor(child, geom_.max_level);
                remap[p] = e;
                seeds.push_back(static_cast<std::int32_t>(p));
            }
            dst_end -= 4;
            src_end = v;
        }
    }
    throw std::logic_error("enforce_balance: failed to reach a fixed point");
}

void AmrMesh::build_boundary_faces() {
    bfaces_.clear();
    const std::int32_t nx0 = geom_.coarse_nx;
    const std::int32_t ny0 = geom_.coarse_ny;
    for (std::size_t idx = 0; idx < cells_.size(); ++idx) {
        const Cell& c = cells_[idx];
        const auto self = static_cast<std::int32_t>(idx);
        const std::int32_t l = c.level;
        const double dy = cell_dy(l);
        const double dx = cell_dx(l);
        // Per-cell emission order (+x, -x, +y, -y) matches the historic
        // face builder so boundary-flux accumulation order is unchanged.
        if (c.i + 1 >= (nx0 << l)) bfaces_.push_back({self, 1, dy});
        if (c.i == 0) bfaces_.push_back({self, 0, dy});
        if (c.j + 1 >= (ny0 << l)) bfaces_.push_back({self, 3, dx});
        if (c.j == 0) bfaces_.push_back({self, 2, dx});
    }
}

void AmrMesh::build_interior_faces() const {
    xfaces_.clear();
    yfaces_.clear();
    const std::int32_t nx0 = geom_.coarse_nx;
    const std::int32_t ny0 = geom_.coarse_ny;

    // Face ownership: the lower cell owns same-level +x/+y faces; the fine
    // side owns fine-coarse faces; 2:1 balance holds here, so a covering
    // lookup returns the neighbor at level l (same), l-1 (coarser), or
    // finer (that side then owns the face instead).
    for (std::size_t idx = 0; idx < cells_.size(); ++idx) {
        const Cell& c = cells_[idx];
        const auto self = static_cast<std::int32_t>(idx);
        const std::int32_t l = c.level;
        const double dy = cell_dy(l);
        const double dx = cell_dx(l);

        if (c.i + 1 < (nx0 << l)) {
            const std::int32_t q = covering_leaf_near(self, l, c.i + 1, c.j);
            const std::int32_t ql = cells_[static_cast<std::size_t>(q)].level;
            if (ql == l || ql == l - 1) xfaces_.push_back({self, q, dy});
            // else: finer neighbors own the face
        }
        if (c.i > 0) {
            const std::int32_t q = covering_leaf_near(self, l, c.i - 1, c.j);
            if (cells_[static_cast<std::size_t>(q)].level == l - 1)
                xfaces_.push_back({q, self, dy});
        }
        if (c.j + 1 < (ny0 << l)) {
            const std::int32_t q = covering_leaf_near(self, l, c.i, c.j + 1);
            const std::int32_t ql = cells_[static_cast<std::size_t>(q)].level;
            if (ql == l || ql == l - 1) yfaces_.push_back({self, q, dx});
        }
        if (c.j > 0) {
            const std::int32_t q = covering_leaf_near(self, l, c.i, c.j - 1);
            if (cells_[static_cast<std::size_t>(q)].level == l - 1)
                yfaces_.push_back({q, self, dx});
        }
    }
    faces_dirty_ = false;
}

std::uint64_t AmrMesh::resident_bytes() const {
    ensure_faces();
    return cells_.size() * sizeof(Cell) +
           keys_.size() * sizeof(std::uint64_t) +
           (xfaces_.size() + yfaces_.size()) * sizeof(Face) +
           bfaces_.size() * sizeof(BoundaryFace);
}

bool AmrMesh::check_invariants(std::string* why) const {
    auto fail = [&](const std::string& msg) {
        if (why != nullptr) *why = msg;
        return false;
    };

    // Exact tiling: each leaf covers 4^(max_level - level) finest units.
    const std::int32_t max_level = geom_.max_level;
    std::uint64_t covered = 0;
    for (const Cell& c : cells_) {
        if (c.level < 0 || c.level > max_level) return fail("bad level");
        if (c.i < 0 || c.j < 0 || c.i >= (geom_.coarse_nx << c.level) ||
            c.j >= (geom_.coarse_ny << c.level))
            return fail("cell outside domain");
        covered += std::uint64_t{1}
                   << (2 * static_cast<unsigned>(max_level - c.level));
    }
    const std::uint64_t want =
        static_cast<std::uint64_t>(geom_.coarse_nx) * geom_.coarse_ny *
        (std::uint64_t{1} << (2 * static_cast<unsigned>(max_level)));
    if (covered != want) return fail("leaves do not tile the domain");

    // Key-array consistency and strict Morton ordering (strictness also
    // proves anchor uniqueness, i.e. no duplicate or overlapping leaves).
    if (keys_.size() != cells_.size()) return fail("key array out of sync");
    for (std::size_t idx = 0; idx < cells_.size(); ++idx)
        if (keys_[idx] != morton_anchor(cells_[idx], max_level))
            return fail("key does not match cell anchor");
    for (std::size_t idx = 1; idx < cells_.size(); ++idx)
        if (keys_[idx - 1] >= keys_[idx])
            return fail("cells not in Morton order");

    // 2:1 balance across every face: levels of face-adjacent leaves differ
    // by at most one. (Face lists only produce diff<=1 pairs, so check
    // balance directly from geometry instead.)
    const std::int32_t nx0 = geom_.coarse_nx;
    const std::int32_t ny0 = geom_.coarse_ny;
    auto inside = [&](std::int32_t l, std::int32_t i, std::int32_t j) {
        return i >= 0 && j >= 0 && i < (nx0 << l) && j < (ny0 << l);
    };
    auto too_fine = [&](std::int32_t l, std::int32_t ni, std::int32_t nj,
                        std::int32_t pa_i, std::int32_t pa_j,
                        std::int32_t pb_i, std::int32_t pb_j) {
        if (!inside(l, ni, nj)) return false;
        if (!has_finer_cover(l, ni, nj)) return false;
        return has_finer_cover(l + 1, pa_i, pa_j) ||
               has_finer_cover(l + 1, pb_i, pb_j);
    };
    for (const Cell& c : cells_) {
        const std::int32_t l = c.level;
        if (too_fine(l, c.i - 1, c.j, 2 * c.i - 1, 2 * c.j, 2 * c.i - 1,
                     2 * c.j + 1) ||
            too_fine(l, c.i + 1, c.j, 2 * c.i + 2, 2 * c.j, 2 * c.i + 2,
                     2 * c.j + 1) ||
            too_fine(l, c.i, c.j - 1, 2 * c.i, 2 * c.j - 1, 2 * c.i + 1,
                     2 * c.j - 1) ||
            too_fine(l, c.i, c.j + 1, 2 * c.i, 2 * c.j + 2, 2 * c.i + 1,
                     2 * c.j + 2))
            return fail("2:1 balance violated");
    }

    // Face completeness: accumulated face area on every cell side must
    // equal the side length (or be claimed by a boundary face).
    const double tol = 1e-12 * std::max(geom_.width, geom_.height);
    std::vector<std::array<double, 4>> side(cells_.size(),
                                            {0.0, 0.0, 0.0, 0.0});
    for (const Face& f : x_faces()) {
        if (f.lo < 0 || f.hi < 0 ||
            f.lo >= static_cast<std::int32_t>(cells_.size()) ||
            f.hi >= static_cast<std::int32_t>(cells_.size()))
            return fail("x-face index out of range");
        side[static_cast<std::size_t>(f.lo)][1] += f.area;  // +x of lo
        side[static_cast<std::size_t>(f.hi)][0] += f.area;  // -x of hi
    }
    for (const Face& f : y_faces()) {
        if (f.lo < 0 || f.hi < 0 ||
            f.lo >= static_cast<std::int32_t>(cells_.size()) ||
            f.hi >= static_cast<std::int32_t>(cells_.size()))
            return fail("y-face index out of range");
        side[static_cast<std::size_t>(f.lo)][3] += f.area;  // +y of lo
        side[static_cast<std::size_t>(f.hi)][2] += f.area;  // -y of hi
    }
    for (const BoundaryFace& b : bfaces_) {
        if (b.cell < 0 || b.cell >= static_cast<std::int32_t>(cells_.size()) ||
            b.side < 0 || b.side > 3)
            return fail("boundary face out of range");
        side[static_cast<std::size_t>(b.cell)]
            [static_cast<std::size_t>(b.side)] += b.area;
    }
    for (std::size_t idx = 0; idx < cells_.size(); ++idx) {
        const Cell& c = cells_[idx];
        const double sx = cell_dy(c.level);  // x-normal side length
        const double sy = cell_dx(c.level);
        if (std::fabs(side[idx][0] - sx) > tol ||
            std::fabs(side[idx][1] - sx) > tol ||
            std::fabs(side[idx][2] - sy) > tol ||
            std::fabs(side[idx][3] - sy) > tol) {
            std::ostringstream os;
            os << "face areas do not close around cell " << idx << " (level "
               << c.level << ", i " << c.i << ", j " << c.j << ")";
            return fail(os.str());
        }
    }
    return true;
}

}  // namespace tp::mesh
