#pragma once
// Nodal discontinuous Galerkin spectral element solver for the 3-D
// compressible Euler/Navier-Stokes equations on a structured hexahedral
// box — the SELF analogue (DESIGN.md §2).
//
// Discretization (Kopriva-style DGSEM, the formulation SELF implements):
//   * Gauss-Lobatto-Legendre collocation of order N per direction;
//   * strong-form volume derivatives via the collocation derivative
//     matrix, applied as tensor-product line contractions;
//   * Rusanov (local Lax-Friedrichs) numerical flux across element faces,
//     lifted into the boundary nodes with the 1/w scaling;
//   * Williamson low-storage 3rd-order Runge-Kutta in time (SELF's
//     integrator, "3rd-order Runge-Kutta ... 100 times" in the paper);
//   * exponential modal filter for stabilization (SELF's spectral
//     filtering module).
//
// Thermodynamics: perturbation (well-balanced) form about a hydrostatic
// constant-theta base state. State variables are
//   q = (rho', m_x, m_y, m_z, E')
// with full density rho = rho_bar(z) + rho' and full total energy
// E = E_bar(z) + E'. All fluxes vanish identically for the unperturbed
// atmosphere, so the base state is preserved to rounding — which is what
// lets single-precision runs resolve a ~1e-2 kg/m^3 density anomaly.
//
// Precision: persistent state arrays use Policy::storage_t, kernel
// arithmetic uses Policy::compute_t (the paper's SELF study compares
// minimum [float/float] and full [double/double]; mixed works here too and
// is exercised as this repo's extension experiment). Table IV's two
// compilers differ only in the subnormal mode the kernels run under
// (fp/fenv.hpp), not in the kernel code.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fp/precision.hpp"
#include "io/checkpoint.hpp"
#include "perf/counters.hpp"
#include "sem/config.hpp"
#include "sem/operators.hpp"
#include "sem/quadrature.hpp"
#include "util/timing.hpp"

namespace tp::fp {
class PrecisionGovernor;  // fp/governor.hpp
}  // namespace tp::fp

namespace tp::obs {
struct DivergenceStats;  // obs/numerics.hpp
}  // namespace tp::obs

namespace tp::sem {

/// Conserved perturbation variable indices.
enum Var : int { RHO = 0, MX = 1, MY = 2, MZ = 3, EN = 4 };
inline constexpr int kVars = 5;

/// Raw contents of a SEM checkpoint file, for inspection and round-trip
/// tests. Discretization geometry travels with the state so a restore
/// into a mismatched solver fails loudly.
struct SemCheckpointData {
    int nx = 0, ny = 0, nz = 0, order = 0;
    double lx = 0.0, ly = 0.0, lz = 0.0;
    double time = 0.0;
    std::int64_t step = 0;
    std::vector<double> q[kVars];  // widened to double on read
};

/// Reusable state snapshot for the asynchronous checkpoint writer — the
/// SEM counterpart of shallow::CheckpointSnapshot.
struct SemCheckpointSnapshot {
    std::uint32_t elem = 0;  ///< sizeof(storage_t)
    int storage_digits = 0;  ///< significand bits of storage_t
    double time = 0.0;
    std::int64_t step = 0;
    int nx = 0, ny = 0, nz = 0, order = 0;
    double lx = 0.0, ly = 0.0, lz = 0.0;
    std::vector<std::uint8_t> q[kVars];
};

namespace detail {
// Pointer views handed to the fused tensor-product micro-kernels; defined
// in sem/tensor_kernel.hpp (only the kernel TUs need the bodies).
template <typename Sto, typename C>
struct VolumeArgs;
template <typename Sto, typename C>
struct GradientArgs;
template <typename Sto, typename C>
struct FilterArgs;
}  // namespace detail

template <fp::PrecisionPolicy Policy>
class SpectralEulerSolver {
public:
    using storage_t = typename Policy::storage_t;
    using compute_t = typename Policy::compute_t;

    explicit SpectralEulerSolver(const SemConfig& config);

    /// Install the hydrostatic base state and the warm-bubble perturbation.
    void initialize_thermal_bubble(const ThermalBubble& bubble);

    /// Install the hydrostatic base state plus a caller-supplied
    /// perturbation: `fn(x, y, z, q)` fills the 5 perturbation variables
    /// (rho', m_x, m_y, m_z, E') at each node. Used by the viscous
    /// validation tests and free to use for custom scenarios.
    void initialize_custom(
        const std::function<void(double, double, double, double*)>& fn);

    /// Volume integral of the resolved kinetic energy (from perturbation
    /// momenta over full density) — decays under viscosity.
    [[nodiscard]] double kinetic_energy() const;

    /// One RK3 step at the CFL-limited dt. Returns the dt taken.
    double step();
    void run(int nsteps);

    // --- Observables -------------------------------------------------------
    [[nodiscard]] double time() const { return time_; }
    [[nodiscard]] std::int64_t step_count() const { return step_count_; }
    [[nodiscard]] const SemConfig& config() const { return cfg_; }
    [[nodiscard]] std::size_t num_nodes() const {
        return static_cast<std::size_t>(nelem_) * npts_;
    }
    [[nodiscard]] std::size_t degrees_of_freedom() const {
        return num_nodes() * kVars;
    }

    /// Tensor-product Lagrange interpolation of one variable at (x, y, z).
    [[nodiscard]] double interpolate(int var, double x, double y,
                                     double z) const;

    /// Density anomaly rho' sampled along the x line through (y, z) at n
    /// points — the paper's Figure 4/5 line-out.
    [[nodiscard]] std::vector<double> sample_density_anomaly_x(
        double y, double z, int n) const;
    [[nodiscard]] std::vector<double> sample_positions_x(int n) const;

    /// Integral of rho' over the domain (exact quadrature + exact sum) —
    /// conserved to rounding by the DG scheme with wall boundaries.
    [[nodiscard]] double total_mass_perturbation() const;

    /// Max |value| of one variable over all nodes.
    [[nodiscard]] double max_abs(int var) const;

    /// Resident bytes of the state + integrator arrays.
    [[nodiscard]] std::uint64_t state_bytes() const;

    /// Bytes of one output snapshot (5 fields in storage precision).
    [[nodiscard]] std::uint64_t snapshot_bytes() const {
        return 64 + num_nodes() * kVars * sizeof(storage_t);
    }

    /// Exact on-disk checkpoint size: v1 (80-byte header + 5 raw arrays),
    /// or the v2 compressed layout under `opt` including per-array rate
    /// resolution. Matches the written stream byte for byte.
    [[nodiscard]] std::uint64_t checkpoint_bytes() const;
    [[nodiscard]] std::uint64_t checkpoint_bytes(
        const io::CheckpointOptions& opt) const;

    /// Write/read a binary checkpoint; same format contract as the
    /// shallow solver (v1 raw storage arrays, v2 fixed-rate compressed
    /// records under a compressed `opt`). Throws std::runtime_error when
    /// the stream fails at any point.
    void write_checkpoint(std::ostream& os) const;
    io::CheckpointWriteInfo write_checkpoint(std::ostream& os,
                          const io::CheckpointOptions& opt) const;
    static SemCheckpointData read_checkpoint(std::istream& is);

    /// Async-writer hooks (io::AsyncCheckpointer); write_checkpoint is
    /// exactly snapshot_checkpoint + write_snapshot.
    using Snapshot = SemCheckpointSnapshot;
    void snapshot_checkpoint(Snapshot& snap) const;
    static io::CheckpointWriteInfo write_snapshot(
        const Snapshot& snap, std::ostream& os,
        const io::CheckpointOptions& opt = {});

    /// Adopt a checkpoint's state. The solver must have been constructed
    /// with the identical discretization (nx/ny/nz/order/extents);
    /// anything else throws std::invalid_argument.
    void restore_checkpoint(const SemCheckpointData& d);

    /// Exact bit pattern of the five state fields, as raw bytes. Two runs
    /// whose fingerprints compare equal produced bitwise-identical
    /// solutions (tests/golden/sem_state.txt pins their digests).
    [[nodiscard]] std::string state_fingerprint() const {
        std::string bits;
        bits.reserve(num_nodes() * kVars * sizeof(storage_t));
        for (const auto& field : q_)
            bits.append(reinterpret_cast<const char*>(field.data()),
                        field.size() * sizeof(storage_t));
        return bits;
    }

    // --- Instrumentation ---------------------------------------------------
    [[nodiscard]] const perf::WorkLedger& ledger() const { return ledger_; }
    [[nodiscard]] const util::StopwatchRegistry& timers() const {
        return timers_;
    }

    /// Attach (or detach, with nullptr) a runtime precision governor
    /// (fp/governor.hpp). While attached and enabled, the rhs kernels run
    /// with a governed kernel scalar: float while the per-step divergence
    /// monitor stays under budget, double otherwise. The governed path is
    /// inviscid-only (the monitor's interior-node reference is the pure
    /// volume contribution). A disabled or detached governor leaves every
    /// code path — and every bit of output — unchanged. The caller owns
    /// the governor and calls fp::PrecisionGovernor::end_step() per step.
    void set_governor(fp::PrecisionGovernor* governor);
    [[nodiscard]] fp::PrecisionGovernor* governor() const {
        return governor_;
    }

private:
    template <typename S>
    void volume_kernel();
    template <typename S>
    void surface_kernel();
    template <typename S>
    void gradient_kernel();
    template <typename S>
    void viscous_kernel();
    [[nodiscard]] detail::VolumeArgs<storage_t, compute_t> volume_args();
    [[nodiscard]] detail::GradientArgs<storage_t, compute_t> gradient_args();
    [[nodiscard]] detail::FilterArgs<storage_t, compute_t> filter_args();
    void compute_rhs();
    void rk_stage(double a, double b, double dt);
    void apply_filter();
    [[nodiscard]] double compute_dt();
    // --shadow-profile hooks (obs/numerics.hpp): double-precision
    // re-execution of a strided sample, cold paths behind the relaxed-load
    // gate at each call site.
    void shadow_profile_cfl() const;
    void shadow_profile_rhs();
    /// Shared body of the rhs shadow hook and the governor monitor: the
    /// interior-node double reference, observed per variable either in
    /// compute precision (shadow telemetry) or on the float lattice
    /// (governor signal — promoted double sweeps score zero there).
    void rhs_divergence_stats(obs::DivergenceStats* stats,
                              bool float_lattice);
    void governed_monitor_rhs();
    void shadow_profile_rk_capture(double a, double b, double dt);
    void shadow_profile_rk_observe() const;
    void shadow_profile_filter_capture();
    void shadow_profile_filter_observe();
    /// Ledger entry for one kernel call whose flops ran in K (a governed
    /// rhs kernel's kernel scalar, compute_t for the rest).
    template <typename K = compute_t>
    void account(const std::string& kernel, double seconds,
                 std::uint64_t flops, std::uint64_t bytes,
                 std::uint64_t converts, std::uint64_t bytes_compute = 0,
                 std::uint32_t simd_lanes = 0);

    [[nodiscard]] std::size_t elem_index(int ex, int ey, int ez) const {
        return (static_cast<std::size_t>(ez) * cfg_.ny + ey) * cfg_.nx + ex;
    }
    [[nodiscard]] std::size_t node_index(std::size_t e, int i, int j,
                                         int k) const {
        return e * npts_ +
               (static_cast<std::size_t>(k) * np_ + j) * np_ + i;
    }

    SemConfig cfg_;
    int np_;           // nodes per direction = order + 1
    std::size_t npts_; // nodes per element = np^3
    int nelem_;
    double dxe_, dye_, dze_;  // element extents
    QuadratureRule lgl_;
    std::vector<double> bary_;           // barycentric weights (sampling)
    std::vector<storage_t> d_;           // derivative matrix, row-major
    std::vector<storage_t> filter_;      // modal filter matrix
    std::vector<compute_t> w_;           // quadrature weights
    compute_t lift_w_;                   // 1 / w_0 (= 1 / w_N)

    std::vector<storage_t> q_[kVars];    // state (storage precision)
    std::vector<compute_t> r_[kVars];    // RHS residual
    std::vector<compute_t> g_[kVars];    // low-storage RK register
    std::vector<storage_t> rho_bar_, e_bar_, p_bar_;  // base state per node
    // BR1 gradients of the primitive variables (u, v, w, T), one array per
    // (variable, direction); allocated only when viscosity > 0.
    std::vector<compute_t> grad_[4][3];
    std::vector<double> cfl_scratch_;    // per-node CFL rates (compute_dt)
    // Shadow-profile scratch (sampled indices, captured pre-state, double
    // reference work arrays) — members so profiling a steady-state run
    // allocates nothing after warmup.
    std::vector<std::int64_t> shadow_nodes_;
    std::vector<std::int32_t> shadow_elems_;
    std::vector<double> shadow_a_, shadow_b_;

    // Governed-path state (see set_governor); -1 id = not governed.
    fp::PrecisionGovernor* governor_ = nullptr;
    int gov_rhs_id_ = -1;

    double time_ = 0.0;
    std::int64_t step_count_ = 0;
    perf::WorkLedger ledger_;
    util::StopwatchRegistry timers_;
};

using SingleSemSolver = SpectralEulerSolver<fp::MinimumPrecision>;
using MixedSemSolver = SpectralEulerSolver<fp::MixedPrecision>;
using DoubleSemSolver = SpectralEulerSolver<fp::FullPrecision>;

extern template class SpectralEulerSolver<fp::MinimumPrecision>;
extern template class SpectralEulerSolver<fp::MixedPrecision>;
extern template class SpectralEulerSolver<fp::FullPrecision>;

}  // namespace tp::sem
