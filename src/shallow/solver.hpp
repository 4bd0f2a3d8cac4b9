#pragma once
// Shallow-water finite-volume solver on the cell-based AMR mesh — the
// CLAMR-analogue mini-app (DESIGN.md §2).
//
// The solver is a template over a fp::PrecisionPolicy:
//   * the persistent state arrays (height h, momenta hu/hv) are stored in
//     Policy::storage_t — this is what "minimum" vs "mixed" vs "full"
//     changes about memory footprint and checkpoint size;
//   * every kernel-local temporary, flux, and accumulator uses
//     Policy::compute_t — "mixed" promotes these to double, exactly the
//     CRAFT-derived CLAMR configuration the paper describes.
//
// The hot loop is `finite_diff` (named after CLAMR's kernel): a
// cell-centric Rusanov flux computation — each cell gathers its (2:1
// balanced) face neighbors, computes all face fluxes, and updates only
// itself — followed by the conservative cell update. Both adjacent cells
// evaluate the identical flux expression for a shared face, so the scheme
// stays exactly conservative while the loop carries no scatter
// dependencies. The sweep runs over dense 8x8 same-level tiles derived
// from the neighbor-slot tables, with the cells the tiles cannot take
// gathered through the slot tables (flux_kernel.hpp, DESIGN.md §13).
// Both kernels are width-templated: the W == 1 instantiations, driven
// from a translation unit with the auto-vectorizer disabled, are the
// paper's scalar baseline; the W == native_lanes instantiations are the
// vector path. The two are bit-identical per cell, selected at runtime by
// Config::simd (Table III's vectorization study from one binary). A
// runtime governor (set_governor) picks the sweep's arithmetic type per
// step; either type runs the same sweep over the same buffers.

#include <array>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fp/precision.hpp"
#include "io/checkpoint.hpp"
#include "mesh/amr_mesh.hpp"
#include "perf/counters.hpp"
#include "shallow/config.hpp"
#include "shallow/flux_kernel.hpp"
#include "simd/dispatch.hpp"
#include "sum/expansion.hpp"
#include "sum/reproducible.hpp"
#include "util/timing.hpp"

namespace tp::fp {
class PrecisionGovernor;  // fp/governor.hpp
}  // namespace tp::fp

namespace tp::shallow {

/// Raw contents of a checkpoint file, for inspection and round-trip tests.
struct CheckpointData {
    mesh::MeshGeometry geom;
    double time = 0.0;
    std::int64_t step = 0;
    std::vector<mesh::Cell> cells;
    std::vector<double> h, hu, hv;  // widened to double on read
};

/// Reusable state snapshot for the asynchronous checkpoint writer:
/// everything a checkpoint write needs, copied off the solver in one
/// cheap pass so serialization and compression can run on another thread.
/// State is held as raw storage-precision bytes; the slots in
/// io::AsyncCheckpointer reuse their capacity across checkpoints.
struct CheckpointSnapshot {
    std::uint32_t elem = 0;      ///< sizeof(storage_t)
    int storage_digits = 0;      ///< significand bits of storage_t
    double time = 0.0;
    std::int64_t step = 0;
    mesh::MeshGeometry geom;
    std::vector<mesh::Cell> cells;
    std::vector<std::uint8_t> h, hu, hv;
};

template <fp::PrecisionPolicy Policy>
class ShallowWaterSolver {
public:
    using storage_t = typename Policy::storage_t;
    using compute_t = typename Policy::compute_t;

    /// Deepest AMR level the solver supports. compute_dt keeps a
    /// per-level spacing lookup of this size in L1, so the limit is
    /// enforced against the configured geometry at construction time.
    static constexpr std::int32_t kMaxSupportedLevel = 15;

    /// The *other* compute precision, for the runtime governor: a
    /// float-compute policy can be promoted to a double flux sweep mid-run
    /// and a double-compute policy can be demoted to float. Storage
    /// precision never changes — only the kernel-local arithmetic does, so
    /// switching is just instantiating the sweep at the other type (its
    /// native width is simd::native_lanes of that type).
    using alt_compute_t =
        std::conditional_t<std::is_same_v<compute_t, float>, double, float>;

    /// Throws std::invalid_argument when the geometry is unusable
    /// (non-positive coarse grid or max_level outside
    /// [0, kMaxSupportedLevel]).
    explicit ShallowWaterSolver(const Config& config);

    /// Set the cylindrical dam-break state and pre-refine the mesh around
    /// the initial discontinuity (one adapt pass per allowed level, with
    /// the analytic state re-evaluated on the refined mesh each pass).
    void initialize_dam_break(const DamBreak& ic);

    /// Advance one time step (CFL-limited). Returns the dt taken.
    double step();

    /// Advance `n` steps.
    void run(int n);

    // --- Observables -------------------------------------------------------
    [[nodiscard]] double time() const { return time_; }
    [[nodiscard]] std::int64_t step_count() const { return step_count_; }
    [[nodiscard]] const mesh::AmrMesh& mesh() const { return mesh_; }
    [[nodiscard]] const Config& config() const { return config_; }

    /// Height at the cell containing (x, y); throws outside the domain.
    [[nodiscard]] double height_at(double x, double y) const;

    /// Sample height along the vertical line x = x0 at n equally spaced
    /// points — the paper's Figure 1/2 line-cut.
    [[nodiscard]] std::vector<double> sample_height_vertical(double x0,
                                                             int n) const;
    /// y coordinates matching sample_height_vertical.
    [[nodiscard]] std::vector<double> sample_positions_vertical(int n) const;

    /// Total water volume, via the exact (order-independent) expansion sum.
    [[nodiscard]] double total_mass() const;

    /// Resident bytes of the three state arrays (current + update buffers).
    [[nodiscard]] std::uint64_t state_bytes() const;

    /// Size in bytes a checkpoint of the current state occupies (v1).
    [[nodiscard]] std::uint64_t checkpoint_bytes() const;

    /// Exact on-disk size of a checkpoint written under `opt`, including
    /// per-array rate resolution for v2 — what the S3 cost model and
    /// Table III reproduction must report. Matches the stream byte for
    /// byte (tested against the actual write across policies and levels).
    [[nodiscard]] std::uint64_t checkpoint_bytes(
        const io::CheckpointOptions& opt) const;

    /// Write/read a binary checkpoint. v1 (the default) stores cells +
    /// state in raw storage precision; under a compressed `opt` the v2
    /// layout replaces each state array with a fixed-rate stream
    /// ([u32 rate][u64 payload bytes][payload]) whose rate comes from the
    /// options (fixed, or derived from the ULP-drift budget). Throws
    /// std::runtime_error if the stream fails at any point.
    void write_checkpoint(std::ostream& os) const;
    io::CheckpointWriteInfo write_checkpoint(
        std::ostream& os, const io::CheckpointOptions& opt) const;
    static CheckpointData read_checkpoint(std::istream& is);

    /// Async-writer hooks (io::AsyncCheckpointer): snapshot on the solver
    /// thread, serialize/compress/write anywhere. write_checkpoint is
    /// exactly snapshot_checkpoint + write_snapshot, so asynchronous
    /// files are byte-identical to synchronous ones by construction.
    using Snapshot = CheckpointSnapshot;
    void snapshot_checkpoint(Snapshot& snap) const;
    static io::CheckpointWriteInfo write_snapshot(
        const Snapshot& snap, std::ostream& os,
        const io::CheckpointOptions& opt = {});

    /// Adopt a checkpoint's topology and state: the solver must have been
    /// constructed with the identical mesh geometry; the cell list is
    /// validated structurally (exact tiling, 2:1 balance) and state is
    /// narrowed back to storage precision. Throws std::invalid_argument
    /// on any mismatch.
    void restore_checkpoint(const CheckpointData& d);

    // --- Instrumentation ---------------------------------------------------
    [[nodiscard]] const perf::WorkLedger& ledger() const { return ledger_; }
    [[nodiscard]] const util::StopwatchRegistry& timers() const {
        return timers_;
    }

    /// Same-level Morton runs compute_dt iterates (rebuilt on every
    /// topology change; exposed for the SIMD binning tests).
    [[nodiscard]] const std::vector<detail::LevelRun>& level_runs() const {
        return level_runs_;
    }

    /// Dense tiles the flux sweep computes, plus the sorted fallback cell
    /// list covering every cell the tiles leave to the slot tables.
    /// Rebuilt on every topology change; exposed for tests.
    [[nodiscard]] const std::vector<detail::TileBlock>& tile_blocks() const {
        return tile_blocks_;
    }
    [[nodiscard]] const std::vector<std::int32_t>& fallback_cells() const {
        return fallback_cells_;
    }
    /// A tile with fewer than this many regular cells is not worth
    /// gathering; its members join the fallback list instead (a
    /// topology-only threshold, so the sweep sees the same iteration space
    /// at either width and either arithmetic type). Public so tests can
    /// mirror the partition.
    static constexpr int kMinTileRegular = 16;

    /// Rezone bookkeeping accumulated across the run. Phase wall times
    /// live under timers() ("rezone_flags" / "rezone_adapt" /
    /// "rezone_remap" / "rezone_cache" plus the "rezone" aggregate) and in
    /// the ledger under the same phase names.
    struct RezoneStats {
        std::uint64_t rezones = 0;
        std::uint64_t cells_touched = 0;     ///< old + new cells, summed
        std::uint64_t translated_cells = 0;  ///< slots index-shifted
        std::uint64_t resolved_cells = 0;    ///< slots recomputed from mesh
        std::uint64_t copy_spans = 0;        ///< clean spans seen
    };
    [[nodiscard]] const RezoneStats& rezone_stats() const {
        return rezone_stats_;
    }

    /// Recompute the slot tables and their areas from scratch by a scan of
    /// the mesh face lists and compare them bit-for-bit with the live index
    /// planes and the areas slot_area derives from them; check the level
    /// runs too. Test hook for the incremental update.
    [[nodiscard]] bool topology_caches_consistent() const;

    /// Attach (or detach, with nullptr) a runtime precision governor
    /// (fp/governor.hpp). While attached and enabled, the flux sweep is
    /// governed: it runs in the reduced lattice (float) while the
    /// per-step divergence monitor stays under budget and in the promoted
    /// lattice (double) otherwise. A disabled or detached governor leaves
    /// every code path — and every bit of output — identical to an
    /// ungoverned build. The caller owns the governor and must call
    /// fp::PrecisionGovernor::end_step() once per solver step.
    void set_governor(fp::PrecisionGovernor* governor);
    [[nodiscard]] fp::PrecisionGovernor* governor() const {
        return governor_;
    }

private:
    void apply_ic(const DamBreak& ic);
    /// Scatter-free threaded flags: each cell takes the max relative
    /// height jump over its own neighbor slots (every interior face
    /// appears in both endpoint cells' slots and the jump measure is
    /// symmetric, so this equals a face scan bit-for-bit).
    void compute_refinement_flags(std::vector<std::int8_t>& flags) const;
    void rezone();
    void remap_state(const mesh::RemapPlan& plan);
    /// Resolve all kSlots neighbor slots of one cell directly from the
    /// sorted mesh, reproducing the face-scan slot order.
    void resolve_cell_slots(std::int32_t c, std::int32_t* idx) const;
    /// Resolve one side (slot pair base/base+1, base in {0,2,4,6}) of one
    /// cell; `idx` receives exactly the two slots of that side.
    void resolve_cell_side(std::int32_t c, int base, std::int32_t* idx) const;
    /// From-scratch threaded per-cell rebuild (constructor / init).
    void rebuild_topology_caches();
    /// Dirty-span incremental update: translate surviving cells' slots
    /// through the copy-span prefix-offset map, resolve only cells whose
    /// neighborhood changed. Returns the number of cells resolved.
    std::size_t update_topology_caches(const mesh::RemapPlan& plan);
    /// Rebuild level_runs_ and the tiles and size the increment buffers
    /// for the current mesh (shared tail of every cache builder).
    void rebuild_iteration_space();
    /// Derive tile_blocks_/fallback_cells_ from the slot tables in one
    /// pass over the cells (part of rebuild_iteration_space).
    void rebuild_tiles();
    /// One thread's share of the pass: dense tiles (src pointers unset),
    /// their source maps, and the sorted fallback cells of its range.
    struct TilePart {
        std::vector<detail::TileBlock> blocks;
        std::vector<std::int32_t> src;
        std::vector<std::int32_t> fallback;
    };
    void derive_tiles(std::size_t begin, std::size_t end, TilePart& part);
    [[nodiscard]] double compute_dt();
    void finite_diff(double dt);
    [[nodiscard]] detail::FluxArgs<storage_t, compute_t> flux_args();
    [[nodiscard]] detail::TileSweepArgs<storage_t, compute_t> tile_args();
    // The flux sweep (detail::flux_sweep) at arithmetic type K, compute_t
    // or alt_compute_t, into dh_/dhu_/dhv_ either way. flux_sweep<K> runs
    // it at Config::simd's width and returns the lanes it ran at; the
    // W == 1 sweep lives in flux_scalar.cpp, a TU compiled with the
    // auto-vectorizer off, so it measures true scalar issue.
    template <typename K>
    int flux_sweep();
    template <typename K>
    void flux_sweep_scalar();
    /// Governor telemetry: observe a strided sample of flux increments on
    /// the float lattice against an in-order double reference and feed the
    /// stats to the attached governor.
    void governed_monitor_flux();
    void boundary_fluxes();
    // The conservative update (detail::apply_update) at the sweep's width:
    // native, or its W == 1 form in flux_scalar.cpp (apply_update_scalar)
    // when Config::simd runs the sweep scalar.
    void apply_update(double dt);
    void apply_update_scalar(double dt);
    [[nodiscard]] detail::ApplyArgs<storage_t, compute_t> apply_args(
        double dt);
    /// Ledger entry of one finite_diff whose sweep computed in K: the
    /// sweep's flops in K's column and its conversions charged by K (state
    /// loads from storage_t, increment stores to compute_t); the boundary
    /// and update flops and the apply's conversions by compute_t.
    template <typename K>
    void account_finite_diff(double seconds, int lanes);
    // --shadow-profile hooks (obs/numerics.hpp): re-execute a strided
    // sample of the kernel's work in double precision and record the
    // production result's divergence. All are cold paths, entered only
    // when the relaxed-load gate at the call site fires.
    void shadow_profile_cfl() const;
    void shadow_profile_flux_sweep();
    void shadow_capture_apply_update();
    void shadow_observe_apply_update(double dt) const;
    void shadow_profile_remap(const mesh::RemapPlan& plan,
                              const storage_t* nh, const storage_t* nhu,
                              const storage_t* nhv) const;

    Config config_;
    mesh::AmrMesh mesh_;
    std::vector<storage_t> h_, hu_, hv_;      // persistent state (storage_t)
    // Remap double buffers: rezone writes the post-adapt state here and
    // swaps, so steady-state refinement churns no allocations.
    std::vector<storage_t> h_back_, hu_back_, hv_back_;
    std::vector<compute_t> dh_, dhu_, dhv_;   // per-step increments
    // Per-level geometry, filled once by the constructor from the double
    // expressions the mesh's face builder evaluates: the x-face width
    // cell_dy(l) and the y-face width cell_dx(l) for levels up to
    // max_level + 1 (a cell's finer neighbors), and 1/cell_area. A sweep
    // at either arithmetic type casts these compute_t widths, so a
    // governed sweep sees the widths the static policy rounded.
    static constexpr std::size_t kLevelTable = kMaxSupportedLevel + 2;
    std::array<compute_t, kLevelTable> width_x_{};
    std::array<compute_t, kLevelTable> width_y_{};
    std::array<compute_t, kLevelTable> inv_area_by_level_{};
    // Cell-centric neighbor tables (CLAMR's finite_diff shape): for each
    // cell, up to two sub-face neighbors per side in fixed slots
    // (W0,W1,E0,E1,S0,S1,N0,N1), slot-major SoA. Empty slots point at the
    // cell itself, keeping the SIMD loop branch-free. A slot's area
    // follows from the planes and the cell's level (detail::slot_area).
    // Each cell recomputes its face fluxes and writes only its own
    // increments — redundant arithmetic that vectorizes cleanly, the same
    // trade CLAMR makes.
    static constexpr int kSlots = 8;
    std::vector<std::int32_t> nbr_idx_;    // kSlots * ncells
    // Double buffer + prefix-offset map for the incremental cache update;
    // kept as members so steady-state rezones allocate nothing.
    std::vector<std::int32_t> nbr_idx_back_;
    std::vector<std::int32_t> old_to_new_;
    std::vector<std::uint8_t> slot_dirty_;  // per-cell "needs resolve" flag
    mesh::RemapPlan plan_;  // adapt output, storage reused across rezones
    // Same-level runs for compute_dt and apply_update (rebuilt with the
    // neighbor tables).
    std::vector<detail::LevelRun> level_runs_;
    // Flux-sweep iteration space (rebuilt with the neighbor tables): the
    // dense tiles over their padded source maps, and the sorted list of
    // cells the tiles leave to the flux_block_gather fallback (packed W to
    // a gather, so scattered singletons cost ~1/W of a pack each). A tile
    // with fewer than kMinTileRegular regular cells is not worth
    // gathering, so all its members join the fallback instead — a
    // topology-only decision, so every sweep sees the same iteration
    // space (kMinTileRegular, declared with the accessors above).
    std::vector<detail::TileBlock> tile_blocks_;
    std::vector<std::int32_t> tile_src_;  // kTilePadCells per dense tile
    std::vector<TilePart> tile_parts_;    // per-thread rebuild_tiles output
    std::vector<std::int32_t> fallback_cells_;
    std::vector<std::uint8_t> fallback_flag_;
    // Governed-path state (see set_governor); -1 id = not governed.
    fp::PrecisionGovernor* governor_ = nullptr;
    int gov_flux_id_ = -1;
    std::vector<compute_t> cfl_buf_;       // per-cell dt candidates
    std::vector<std::int8_t> flags_scratch_;  // refinement flags, reused
    // Shadow-profile capture scratch (cell indices + pre-update state),
    // reused across steps so profiling allocates nothing after warmup.
    std::vector<std::int32_t> shadow_idx_;
    std::vector<double> shadow_vals_;
    double time_ = 0.0;
    std::int64_t step_count_ = 0;
    RezoneStats rezone_stats_;
    perf::WorkLedger ledger_;
    util::StopwatchRegistry timers_;
};

using MinimumShallowSolver = ShallowWaterSolver<fp::MinimumPrecision>;
using MixedShallowSolver = ShallowWaterSolver<fp::MixedPrecision>;
using FullShallowSolver = ShallowWaterSolver<fp::FullPrecision>;

extern template class ShallowWaterSolver<fp::MinimumPrecision>;
extern template class ShallowWaterSolver<fp::MixedPrecision>;
extern template class ShallowWaterSolver<fp::FullPrecision>;
// Extension: 16-bit storage (fp/half_policy.hpp), instantiated for the
// storage-width ablation.

}  // namespace tp::shallow
