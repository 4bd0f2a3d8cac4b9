#pragma once
// Cell-based adaptive mesh refinement on a 2-D box — the mesh substrate
// underneath the CLAMR-analogue shallow-water solver.
//
// Responsibilities:
//   * hold the leaf-cell list in Morton (Z-) order;
//   * adapt topology from per-cell flags (refine / keep / coarsen) while
//     enforcing the 2:1 level balance CLAMR relies on;
//   * hand the solver a RemapPlan describing how to carry state across an
//     adapt step;
//   * build interior face lists (x- and y-directed) and boundary face
//     lists for finite-volume flux sweeps;
//   * answer point-location queries for line-cut sampling.
//
// The mesh is geometry + topology only: it knows nothing about physical
// state, so any cell-centered solver can sit on top of it.
//
// Indexing model: the leaf list is kept sorted by the Morton code of each
// cell's finest-level anchor (lower-left corner), and `keys_` mirrors that
// code per cell. Because quadtree leaves occupy disjoint, aligned Morton
// ranges, the leaf covering any finest-level code x is simply
// `upper_bound(keys_, x) - 1` — one binary search replaces the per-level
// hash probes of a `(level,i,j) -> index` map, and adapt/balance maintain
// `keys_` by splicing instead of rebuilding.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mesh/cell.hpp"

namespace tp::mesh {

/// Static description of the mesh domain and resolution limits.
struct MeshGeometry {
    double xmin = 0.0;
    double ymin = 0.0;
    double width = 1.0;   ///< domain extent in x
    double height = 1.0;  ///< domain extent in y
    std::int32_t coarse_nx = 16;  ///< level-0 cells across
    std::int32_t coarse_ny = 16;
    std::int32_t max_level = 2;   ///< maximum refinement depth
};

/// An interior face between two leaf cells. `lo` is the left (x-faces) or
/// bottom (y-faces) cell; `area` is the extent of the shared segment, which
/// equals the finer side's cell width at fine-coarse interfaces.
struct Face {
    std::int32_t lo;
    std::int32_t hi;
    double area;
};

/// A face on the domain boundary, owned by `cell`. `side` is the outward
/// direction: 0 = -x, 1 = +x, 2 = -y, 3 = +y.
struct BoundaryFace {
    std::int32_t cell;
    std::int32_t side;
    double area;
};

/// How one post-adapt cell obtains its state from pre-adapt cells.
enum class RemapKind : std::uint8_t {
    Copy,     ///< same cell survived; src[0] is its old index
    Refine,   ///< child of a refined cell; src[0] is the old parent
    Coarsen,  ///< parent of 4 coarsened cells; src[0..3] are the children
};

struct RemapEntry {
    RemapKind kind;
    std::int32_t src[4];
};

/// A maximal run of consecutive Copy entries whose old->new index shift is
/// constant: new indices [begin, end) map to old indices [begin-shift,
/// end-shift). Everything outside the spans is a refine/coarsen "dirty"
/// region; consumers can translate surviving per-cell data span-wise and
/// recompute only the dirty remainder.
struct CopySpan {
    std::int32_t begin;  ///< first new index in the span
    std::int32_t end;    ///< one past the last new index
    std::int32_t shift;  ///< new_index - old_index, constant over the span
};

/// State-remap plan for one adapt() call: one entry per *new* cell (same
/// order as the new cell list) plus the copy-span digest of the entries.
/// Iteration and indexing forward to the entries, so plan consumers that
/// only need per-cell sources treat it like the entry vector.
struct RemapPlan {
    std::vector<RemapEntry> entries;
    std::vector<CopySpan> copy_spans;

    [[nodiscard]] std::size_t size() const { return entries.size(); }
    /// True when the adapt changed nothing: one copy span covering every
    /// new cell with shift 0. (Every old cell either survives as a Copy or
    /// feeds a Refine/Coarsen entry, so an all-Copy plan is the old mesh.)
    [[nodiscard]] bool is_identity() const {
        return copy_spans.size() == 1 && copy_spans[0].begin == 0 &&
               copy_spans[0].end == static_cast<std::int32_t>(size()) &&
               copy_spans[0].shift == 0;
    }
    [[nodiscard]] const RemapEntry& operator[](std::size_t idx) const {
        return entries[idx];
    }
    [[nodiscard]] auto begin() const { return entries.begin(); }
    [[nodiscard]] auto end() const { return entries.end(); }
};

/// Flag values accepted by adapt().
inline constexpr std::int8_t kCoarsenFlag = -1;
inline constexpr std::int8_t kKeepFlag = 0;
inline constexpr std::int8_t kRefineFlag = 1;

class AmrMesh {
public:
    explicit AmrMesh(const MeshGeometry& geom);

    /// Reconstruct a mesh from a checkpointed leaf list. The cells may be
    /// in any order (they are re-sorted into Morton order); the full
    /// structural invariant set — exact tiling, 2:1 balance, key
    /// consistency — is verified and std::invalid_argument is thrown on
    /// violation, so a corrupt or truncated cell list cannot produce a
    /// structurally broken mesh.
    AmrMesh(const MeshGeometry& geom, std::vector<Cell> cells);

    // --- Geometry queries -------------------------------------------------
    [[nodiscard]] const MeshGeometry& geometry() const { return geom_; }
    [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
    [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }

    [[nodiscard]] double cell_dx(std::int32_t level) const {
        return dx0_ / static_cast<double>(1u << level);
    }
    [[nodiscard]] double cell_dy(std::int32_t level) const {
        return dy0_ / static_cast<double>(1u << level);
    }
    [[nodiscard]] double cell_center_x(const Cell& c) const {
        return geom_.xmin + (c.i + 0.5) * cell_dx(c.level);
    }
    [[nodiscard]] double cell_center_y(const Cell& c) const {
        return geom_.ymin + (c.j + 0.5) * cell_dy(c.level);
    }
    [[nodiscard]] double cell_area(const Cell& c) const {
        return cell_dx(c.level) * cell_dy(c.level);
    }
    /// Smallest cell spacing currently present (for CFL limits).
    [[nodiscard]] double finest_dx() const;

    /// Index of the leaf containing (x, y); -1 outside the domain. One
    /// Morton binary search over the sorted leaf list — no hash probing.
    [[nodiscard]] std::int32_t find_cell(double x, double y) const;

    /// Index of the leaf exactly matching (level, i, j); -1 if absent.
    [[nodiscard]] std::int32_t leaf_index(std::int32_t level, std::int32_t i,
                                          std::int32_t j) const;

    /// Index of the leaf covering quadrant (level, i, j), which may be the
    /// quadrant itself, a coarser ancestor, or (when subdivided) the first
    /// finer leaf inside it. Quadrant must lie inside the domain.
    [[nodiscard]] std::int32_t covering_leaf(std::int32_t level,
                                             std::int32_t i,
                                             std::int32_t j) const;

    /// covering_leaf with a position hint: gallops outward from `hint`
    /// before binary-searching the bracketed range. Edge neighbors sit a
    /// handful of entries away in Morton order, so hinted lookups from the
    /// querying cell's own index are near-O(1). Result is identical to
    /// covering_leaf for any hint.
    [[nodiscard]] std::int32_t covering_leaf_near(std::int32_t hint,
                                                  std::int32_t level,
                                                  std::int32_t i,
                                                  std::int32_t j) const;

    /// leaf_index with the same hinted search; identical result.
    [[nodiscard]] std::int32_t leaf_index_near(std::int32_t hint,
                                               std::int32_t level,
                                               std::int32_t i,
                                               std::int32_t j) const;

    // --- Topology ---------------------------------------------------------
    /// Apply per-cell adaptation flags. Coarsening happens only when all
    /// four siblings are flagged and no neighbor would violate 2:1 balance;
    /// refinement beyond max_level is ignored; extra cells are refined as
    /// needed to restore 2:1 balance. Returns the state-remap plan, one
    /// entry per *new* cell (same order as the new cell list).
    RemapPlan adapt(std::span<const std::int8_t> flags);
    /// The same, written into `plan` and reusing its storage: a caller that
    /// keeps one plan across rezones stops allocating per adapt once the
    /// mesh stops growing.
    void adapt(std::span<const std::int8_t> flags, RemapPlan& plan);

    /// Interior faces are rebuilt lazily: adapt() only marks them stale, so
    /// steady-state consumers that resolve neighbors per cell never pay for
    /// face-list construction. First access after an adapt rebuilds.
    [[nodiscard]] const std::vector<Face>& x_faces() const {
        ensure_faces();
        return xfaces_;
    }
    [[nodiscard]] const std::vector<Face>& y_faces() const {
        ensure_faces();
        return yfaces_;
    }
    /// Boundary faces are maintained eagerly (every step needs them).
    [[nodiscard]] const std::vector<BoundaryFace>& boundary_faces() const {
        return bfaces_;
    }

    /// Bytes of per-cell metadata a checkpoint must carry (level, i, j as
    /// 32-bit integers — 12 bytes/cell, matching CLAMR's file layout).
    [[nodiscard]] std::uint64_t metadata_bytes() const {
        return static_cast<std::uint64_t>(cells_.size()) * 12u;
    }

    /// Resident bytes of the mesh structure itself (cells + keys + faces).
    [[nodiscard]] std::uint64_t resident_bytes() const;

    /// Verify structural invariants (exact tiling of the domain, 2:1
    /// balance, key-array consistency, Morton ordering, face completeness).
    /// Returns true when all hold; otherwise fills `why` if non-null.
    [[nodiscard]] bool check_invariants(std::string* why = nullptr) const;

private:
    /// Refine cells (in Morton order) until 2:1 balance holds, composing
    /// remap entries for the newly created children and splicing `keys_`
    /// incrementally (no full index rebuild per pass). Violation scans are
    /// seeded from the cells created in the previous pass (or by adapt):
    /// a balanced mesh can only lose balance next to a newly refined cell,
    /// so no pass ever walks the full mesh.
    void enforce_balance(std::vector<RemapEntry>& remap,
                         std::vector<std::int32_t>&& seeds);
    void build_boundary_faces();
    void build_interior_faces() const;
    void ensure_faces() const {
        if (faces_dirty_) build_interior_faces();
    }
    /// Rebuild keys_ from cells_ (constructor only; adapt maintains it).
    void rebuild_keys();
    /// Debug-only: assert cells_/keys_ are consistent and Morton-sorted.
    void validate_order() const;
    /// True when the quadrant of (level,i,j) is covered by finer leaves.
    [[nodiscard]] bool has_finer_cover(std::int32_t level, std::int32_t i,
                                       std::int32_t j) const;
    /// Largest index with keys_[idx] <= x (-1 if none), galloping outward
    /// from `hint` — the shared engine of the *_near lookups.
    [[nodiscard]] std::int32_t gallop_last_le(std::int32_t hint,
                                              std::uint64_t x) const;

    MeshGeometry geom_;
    double dx0_;
    double dy0_;
    std::vector<Cell> cells_;
    /// morton_anchor(cells_[idx], max_level), strictly increasing — the
    /// sorted index all lookups binary-search instead of hashing.
    std::vector<std::uint64_t> keys_;
    /// The cell list and keys from before the last adapt: the next adapt
    /// emits into them, reusing already-touched storage instead of
    /// allocating a fresh mesh-sized list per adapt.
    std::vector<Cell> spare_cells_;
    std::vector<std::uint64_t> spare_keys_;
    mutable std::vector<Face> xfaces_;
    mutable std::vector<Face> yfaces_;
    mutable bool faces_dirty_ = true;
    std::vector<BoundaryFace> bfaces_;
};

}  // namespace tp::mesh
