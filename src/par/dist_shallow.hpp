#pragma once
// Distributed-memory shallow-water solver on a uniform grid — the "hybrid
// MPI" face of CLAMR, run over simulated ranks (par/comm.hpp).
//
// Row-stripe decomposition with one ghost row per side and mirror ghost
// columns on the x walls. Each step runs an overlapped pipeline (DESIGN.md
// §12): boundary rows are posted nonblocking; while the exchange is in
// flight every rank precomputes its owned rows' face quantities on the
// OpenMP thread pool (one rank per task), folding the CFL wavespeed max
// as it goes — so dt is known before any flux work and the historic
// second full-grid dt sweep is gone. The interior rows then run the
// fused flux + apply kernel (shallow/flux_kernel.hpp's dist_update_row,
// at native pack width) into persistent double-buffered state,
// the two ghost-adjacent rows per rank finish after receipt, and the
// buffers swap — no increment arrays, no separate apply sweep, and zero
// steady-state allocations.
//
// Because every cell update reads only its four neighbors, the exchanged
// ghost values are bit-identical to the owner's values, ranks are
// independent given their ghosts, and the wavespeed max is order-free, the
// *state* evolution is bitwise independent of the rank count, the thread
// count, the overlap mode, and the row partition — which
// is what lets measured-cost dynamic load balancing re-split the stripes
// mid-run without touching a bit of the solution. The *diagnostics* are
// only as reproducible as their reduction algorithm — precisely the
// separation the paper's §III.C is about.
//
// Like every solver here, it is templated on a precision policy.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fp/precision.hpp"
#include "io/checkpoint.hpp"
#include "par/comm.hpp"
#include "par/reduce.hpp"
#include "perf/counters.hpp"
#include "util/timing.hpp"

namespace tp::par {

struct DistConfig {
    int nx = 128;           ///< global cells in x
    int ny = 128;           ///< global cells in y
    double width = 100.0;
    double height = 100.0;
    double gravity = 9.80665;
    double courant = 0.2;
    int ranks = 4;
    ReduceAlgorithm mass_algorithm = ReduceAlgorithm::Naive;
    /// Overlapped pipeline (post / interior / complete / boundary) when
    /// true, classic BSP (exchange, then all rows) when false. Bitwise
    /// identical either way; BSP is the measured baseline.
    bool overlap = true;
    /// Re-split the row stripes by measured per-rank cost every this many
    /// steps (0 = keep the static partition). Bitwise invisible in the
    /// solution state: the re-split carries rows over exactly.
    int lb_interval = 0;
};

/// Per-rank wall seconds of one step's pipeline phases (cross-rank
/// flight recorder, DESIGN.md §15). `post` and `wait` accrue on the
/// serial communication loop, the other three on the rank's OpenMP
/// task; `wait` is the rank's halo stall, everything else is compute.
struct RankPhaseSeconds {
    double post = 0.0;
    double precompute = 0.0;
    double interior = 0.0;
    double wait = 0.0;
    double boundary = 0.0;
    [[nodiscard]] double compute() const {
        return post + precompute + interior + boundary;
    }
    [[nodiscard]] double total() const { return compute() + wait; }
};

template <fp::PrecisionPolicy Policy>
class DistributedShallowSolver {
public:
    using storage_t = typename Policy::storage_t;
    using compute_t = typename Policy::compute_t;

    explicit DistributedShallowSolver(const DistConfig& config);

    /// Cylindrical dam break centered in the global domain.
    void initialize_dam_break(double h_inside = 80.0,
                              double h_outside = 10.0,
                              double radius_fraction = 0.2);

    /// One step: halo post, precompute + fused CFL fold (overlapped with
    /// the exchange), interior fused flux + apply, boundary rows after
    /// receipt, buffer swap.
    double step();
    void run(int n);

    [[nodiscard]] double time() const { return time_; }
    [[nodiscard]] std::int64_t step_count() const { return step_count_; }
    [[nodiscard]] int ranks() const { return cfg_.ranks; }

    /// Total halo payload bytes shipped so far. Scales with
    /// sizeof(storage_t): a float-storage policy moves half the halo
    /// traffic of a double one.
    [[nodiscard]] std::uint64_t halo_bytes_sent() const {
        return comm_.bytes_sent();
    }

    /// Halo payload bytes sent by one rank (deterministic for a fixed
    /// partition — the flight recorder's per-edge bytes sum to this).
    [[nodiscard]] std::uint64_t halo_bytes_sent(int rank) const {
        return comm_.bytes_sent(rank);
    }

    /// Last step()'s per-rank phase seconds — the raw material of the
    /// {"type":"dist"} metrics record and the critical-path analysis.
    [[nodiscard]] const std::vector<RankPhaseSeconds>& rank_phase_seconds()
        const {
        return rank_phase_;
    }

    /// True when no posted or pending message is left unconsumed — every
    /// run must end drained, or the simulated schedule leaked traffic.
    [[nodiscard]] bool comm_drained() const { return comm_.drained(); }

    /// Global mass via the configured reduction algorithm — this is the
    /// quantity whose bitwise value depends on the decomposition unless
    /// the algorithm is order-free.
    [[nodiscard]] double total_mass() const {
        return total_mass(cfg_.mass_algorithm);
    }
    [[nodiscard]] double total_mass(ReduceAlgorithm algo) const;

    /// Gather the full height field in row-major global order (for
    /// rank-count-invariance checks against another decomposition).
    [[nodiscard]] std::vector<double> gather_height() const;

    // --- Sharded restart ---------------------------------------------------
    /// Write a sharded restart set: `basepath.manifest` plus one
    /// `basepath.shardK` per rank, each covering that rank's current row
    /// stripe — the layout a real MPI job gets from every rank writing
    /// its own file. Arrays are raw storage precision (restart format v1,
    /// the default) or fixed-rate compressed (v2) per `opt`, using the
    /// same per-array drift-derived rates as the single-node checkpoints.
    /// Returns aggregate bytes and per-array rates for the
    /// {"type":"checkpoint"} metrics record. Throws std::runtime_error
    /// when any stream cannot be opened or written.
    io::CheckpointWriteInfo write_restart(
        const std::string& basepath,
        const io::CheckpointOptions& opt = {}) const;

    /// Adopt the state of a write_restart set. The global grid and
    /// physics config must match the writer's exactly, but the rank
    /// count may differ: shard row ranges are re-scattered across this
    /// solver's stripes, so a 4-rank run restarts on 3 or 7 ranks with
    /// bitwise the same state (and hence the same continuation — the
    /// solver's rank-count invariance). Corrupt or inconsistent manifest
    /// and shard files are rejected with std::runtime_error before any
    /// solver state is modified.
    void restore_restart(const std::string& basepath);

    // --- Load balancing ----------------------------------------------------
    /// Re-split the row stripes so each rank's predicted cost (the prefix
    /// share of `row_cost`, one entry per global row) is as even as the
    /// one-row granularity allows; every rank keeps >= 1 row. State moves
    /// with its row bit-for-bit, so the solution is unaffected. The
    /// periodic path feeds this from the measured per-rank ledger; tests
    /// call it directly with forced skews. A uniform `row_cost` reproduces
    /// the constructor's partition, making the re-split a no-op.
    void rebalance(std::span<const double> row_cost);

    struct LoadBalanceStats {
        std::uint64_t evaluations = 0;  ///< re-split decisions taken
        std::uint64_t resplits = 0;     ///< decisions that moved rows
        std::uint64_t rows_moved = 0;   ///< rows that changed owner
    };
    [[nodiscard]] const LoadBalanceStats& lb_stats() const {
        return lb_stats_;
    }

    /// Current (row0, rows) stripe per rank.
    [[nodiscard]] std::vector<std::pair<int, int>> row_partition() const;

    /// Measured update seconds per rank since the last re-split (the
    /// ledger the balancer consumes).
    [[nodiscard]] std::vector<double> rank_cost_seconds() const;

    // --- Instrumentation ---------------------------------------------------
    /// Accumulated per-phase wall times: "halo_pack", "precompute",
    /// "halo_wait", "interior", "boundary", "rebalance".
    [[nodiscard]] const util::StopwatchRegistry& timers() const {
        return timers_;
    }
    [[nodiscard]] const perf::WorkLedger& ledger() const { return ledger_; }

private:
    struct Rank {
        int row0 = 0;   ///< first owned global row
        int rows = 0;   ///< owned row count
        // (rows + 2) x (nx + 2) including ghost rows at local row 0 and
        // rows + 1 and mirror ghost columns at 0 and nx + 1. Double
        // buffered: h/hu/hv is the current state, h2/hu2/hv2 receives the
        // fused sweep's writes, and the two swap (a pointer swap — no
        // allocation) at the end of the step. Because the current state
        // is never written mid-step, the boundary rows still read exact
        // old neighbor values after the interior has "applied".
        std::vector<storage_t> h, hu, hv;
        std::vector<storage_t> h2, hu2, hv2;
        // Per-cell face quantities, full padded pitch: floored depth,
        // velocities and the per-direction wavespeeds |u|+c / |v|+c.
        // Written once per cell per step (flux_kernel.hpp's dist_pre_row),
        // so the update pays no divide or square root; it forms each face
        // side's momentum fluxes from these and the state.
        std::vector<compute_t> hf, u, v, sx, sy;
        double cost_seconds = 0.0;   ///< measured sweep time since re-split
        compute_t wavespeed = 0;     ///< this step's max face wavespeed
    };

    [[nodiscard]] std::size_t idx(int local_row, int i) const {
        return static_cast<std::size_t>(local_row) *
                   static_cast<std::size_t>(cfg_.nx + 2) +
               static_cast<std::size_t>(i);
    }
    void allocate_rank(Rank& rk) const;
    /// Mirror the x-wall ghost columns of one local row of the given
    /// field triple (h and hv copied, hu negated — exact in every
    /// storage precision).
    void mirror_ghost_columns(std::vector<storage_t>& h,
                              std::vector<storage_t>& hu,
                              std::vector<storage_t>& hv, int local_row);
    /// Pack boundary rows and send them (nonblocking post in overlap
    /// mode, BSP enqueue otherwise).
    void post_halos();
    /// Deliver and unpack the ghost rows (BSP: exchange() first) and
    /// mirror the y-wall ghost rows of the edge ranks.
    void complete_halos();
    /// Precompute the face quantities of local rows [j0, j1] of one rank
    /// (full padded width, ghost columns included), folding the rows' max
    /// wavespeed into rk.wavespeed.
    void precompute_rows(Rank& rk, int j0, int j1);
    /// Owned-row precompute + CFL fold, one rank per task; reads only
    /// owned state, so it overlaps the in-flight exchange.
    void precompute_interior();
    /// Fused flux + apply over local rows [j0, j1] of one rank, writing
    /// the next-state buffers. Requires rows [j0 - 1, j1 + 1]
    /// precomputed and the state rows [j0 - 1, j1 + 1] valid.
    void update_rows(Rank& rk, int j0, int j1, double dt);
    /// Rows that read no ghost row (local 2..rows-1), one rank per task.
    void update_interior(double dt);
    /// Ghost-row precompute plus the <= 2 ghost-adjacent rows per rank,
    /// after receipt; then the buffer swap.
    void update_boundary(double dt);
    /// Fused CFL bound from the precompute's wavespeed partials
    /// (order-free max, so rank/thread count cannot leak into dt).
    [[nodiscard]] double fused_dt();
    void maybe_rebalance();
    void apply_partition(const std::vector<int>& new_rows);

    DistConfig cfg_;
    double dx_, dy_;
    VirtualComm comm_;
    std::vector<Rank> ranks_;
    double time_ = 0.0;
    std::int64_t step_count_ = 0;
    LoadBalanceStats lb_stats_;
    util::StopwatchRegistry timers_;
    perf::WorkLedger ledger_;
    // Persistent scratch: wavespeed partials for the fused CFL fold, the
    // balancer's per-row cost vector, the re-split state carry buffers,
    // and the mass diagnostic's per-rank slices. Members so the steady
    // state of step() — and of total_mass() — allocates nothing.
    std::vector<RankPhaseSeconds> rank_phase_;  ///< last step, per rank
    std::vector<double> ws_scratch_;
    std::vector<double> row_cost_scratch_;
    std::vector<int> split_scratch_;
    std::vector<storage_t> carry_h_, carry_hu_, carry_hv_;
    mutable std::vector<double> mass_scratch_;
    mutable std::vector<std::span<const double>> mass_slices_;
};

using DistMinimumSolver = DistributedShallowSolver<fp::MinimumPrecision>;
using DistFullSolver = DistributedShallowSolver<fp::FullPrecision>;

extern template class DistributedShallowSolver<fp::MinimumPrecision>;
extern template class DistributedShallowSolver<fp::MixedPrecision>;
extern template class DistributedShallowSolver<fp::FullPrecision>;

}  // namespace tp::par
