#include "sem/dgsem.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "fp/governor.hpp"
#include "obs/numerics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sem/tensor_kernel.hpp"
#include "simd/pack.hpp"
#include "sum/expansion.hpp"
#include "sum/parallel.hpp"
#include "util/arena.hpp"
#include "util/threads.hpp"

namespace tp::sem {

namespace {

// Williamson low-storage RK3 coefficients (SELF's integrator).
constexpr double kRkA[3] = {0.0, -5.0 / 9.0, -153.0 / 128.0};
constexpr double kRkB[3] = {1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0};

// Analytic per-unit operation counts for the roofline ledger; derived from
// the kernel bodies below (div/sqrt counted as one op).
constexpr std::uint64_t kEosFlopsPerNode = 60;
constexpr std::uint64_t kSurfaceFlopsPerFaceNode = 130;
constexpr std::uint64_t kRkFlopsPerNode = 4 * kVars;
constexpr std::uint64_t kCflFlopsPerNode = 22;

}  // namespace

template <fp::PrecisionPolicy Policy>
SpectralEulerSolver<Policy>::SpectralEulerSolver(const SemConfig& config)
    : cfg_(config),
      np_(config.order + 1),
      npts_(static_cast<std::size_t>(np_) * np_ * np_),
      nelem_(config.nx * config.ny * config.nz),
      lgl_(gauss_lobatto(config.order)) {
    if (cfg_.nx < 1 || cfg_.ny < 1 || cfg_.nz < 1 || cfg_.order < 1)
        throw std::invalid_argument("SpectralEulerSolver: bad config");
    dxe_ = cfg_.lx / cfg_.nx;
    dye_ = cfg_.ly / cfg_.ny;
    dze_ = cfg_.lz / cfg_.nz;

    bary_ = barycentric_weights(lgl_.nodes);

    const DenseMatrix D = derivative_matrix(lgl_.nodes);
    d_.resize(static_cast<std::size_t>(np_) * np_);
    for (int r = 0; r < np_; ++r)
        for (int c = 0; c < np_; ++c)
            d_[static_cast<std::size_t>(r) * np_ + c] =
                static_cast<storage_t>(D.at(r, c));

    const int cutoff =
        std::clamp(cfg_.filter_cutoff, 0, std::max(0, cfg_.order - 1));
    const DenseMatrix F = exponential_filter(lgl_, cutoff, cfg_.filter_alpha,
                                             cfg_.filter_exponent);
    filter_.resize(static_cast<std::size_t>(np_) * np_);
    for (int r = 0; r < np_; ++r)
        for (int c = 0; c < np_; ++c)
            filter_[static_cast<std::size_t>(r) * np_ + c] =
                static_cast<storage_t>(F.at(r, c));

    w_.resize(static_cast<std::size_t>(np_));
    for (int k = 0; k < np_; ++k)
        w_[static_cast<std::size_t>(k)] =
            static_cast<compute_t>(lgl_.weights[static_cast<std::size_t>(k)]);
    lift_w_ = static_cast<compute_t>(1.0 / lgl_.weights.front());

    const std::size_t total = num_nodes();
    for (int v = 0; v < kVars; ++v) {
        q_[v].assign(total, storage_t(0));
        r_[v].assign(total, compute_t(0));
        g_[v].assign(total, compute_t(0));
    }
    rho_bar_.assign(total, storage_t(0));
    e_bar_.assign(total, storage_t(0));
    p_bar_.assign(total, storage_t(0));
    if (cfg_.viscosity > 0.0)
        for (auto& per_var : grad_)
            for (auto& per_dir : per_var) per_dir.assign(total, compute_t(0));
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::initialize_thermal_bubble(
    const ThermalBubble& bubble) {
    const double cx = 0.5 * cfg_.lx;
    const double cy = 0.5 * cfg_.ly;
    const double cz = bubble.center_z;
    const auto& atm = cfg_.atm;

    for (int ez = 0; ez < cfg_.nz; ++ez)
        for (int ey = 0; ey < cfg_.ny; ++ey)
            for (int ex = 0; ex < cfg_.nx; ++ex) {
                const std::size_t e = elem_index(ex, ey, ez);
                for (int k = 0; k < np_; ++k)
                    for (int j = 0; j < np_; ++j)
                        for (int i = 0; i < np_; ++i) {
                            const std::size_t n = node_index(e, i, j, k);
                            const double x =
                                (ex + 0.5 * (lgl_.nodes[static_cast<std::size_t>(i)] + 1.0)) * dxe_;
                            const double y =
                                (ey + 0.5 * (lgl_.nodes[static_cast<std::size_t>(j)] + 1.0)) * dye_;
                            const double z =
                                (ez + 0.5 * (lgl_.nodes[static_cast<std::size_t>(k)] + 1.0)) * dze_;
                            rho_bar_[n] =
                                static_cast<storage_t>(atm.density(z));
                            e_bar_[n] =
                                static_cast<storage_t>(atm.energy(z));
                            p_bar_[n] =
                                static_cast<storage_t>(atm.pressure(z));

                            const double r = std::sqrt(
                                (x - cx) * (x - cx) + (y - cy) * (y - cy) +
                                (z - cz) * (z - cz));
                            double rho_pert = 0.0;
                            if (r < bubble.radius) {
                                const double c = std::cos(
                                    0.5 * std::numbers::pi * r /
                                    bubble.radius);
                                const double dtheta =
                                    bubble.dtheta * c * c;
                                rho_pert = atm.density_at_theta(z, dtheta) -
                                           atm.density(z);
                            }
                            q_[RHO][n] = static_cast<storage_t>(rho_pert);
                            q_[MX][n] = storage_t(0);
                            q_[MY][n] = storage_t(0);
                            q_[MZ][n] = storage_t(0);
                            q_[EN][n] = storage_t(0);  // pressure unchanged
                        }
            }
    for (int v = 0; v < kVars; ++v) {
        std::fill(r_[v].begin(), r_[v].end(), compute_t(0));
        std::fill(g_[v].begin(), g_[v].end(), compute_t(0));
    }
    time_ = 0.0;
    step_count_ = 0;
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::initialize_custom(
    const std::function<void(double, double, double, double*)>& fn) {
    const auto& atm = cfg_.atm;
    for (int ez = 0; ez < cfg_.nz; ++ez)
        for (int ey = 0; ey < cfg_.ny; ++ey)
            for (int ex = 0; ex < cfg_.nx; ++ex) {
                const std::size_t e = elem_index(ex, ey, ez);
                for (int k = 0; k < np_; ++k)
                    for (int j = 0; j < np_; ++j)
                        for (int i = 0; i < np_; ++i) {
                            const std::size_t n = node_index(e, i, j, k);
                            const double x =
                                (ex + 0.5 * (lgl_.nodes[static_cast<std::size_t>(i)] + 1.0)) * dxe_;
                            const double y =
                                (ey + 0.5 * (lgl_.nodes[static_cast<std::size_t>(j)] + 1.0)) * dye_;
                            const double z =
                                (ez + 0.5 * (lgl_.nodes[static_cast<std::size_t>(k)] + 1.0)) * dze_;
                            rho_bar_[n] =
                                static_cast<storage_t>(atm.density(z));
                            e_bar_[n] =
                                static_cast<storage_t>(atm.energy(z));
                            p_bar_[n] =
                                static_cast<storage_t>(atm.pressure(z));
                            double pert[kVars] = {0, 0, 0, 0, 0};
                            fn(x, y, z, pert);
                            for (int v = 0; v < kVars; ++v)
                                q_[v][n] = static_cast<storage_t>(pert[v]);
                        }
            }
    for (int v = 0; v < kVars; ++v) {
        std::fill(r_[v].begin(), r_[v].end(), compute_t(0));
        std::fill(g_[v].begin(), g_[v].end(), compute_t(0));
    }
    time_ = 0.0;
    step_count_ = 0;
}

template <fp::PrecisionPolicy Policy>
double SpectralEulerSolver<Policy>::kinetic_energy() const {
    sum::ExpansionAccumulator acc;
    const double jac = (dxe_ / 2.0) * (dye_ / 2.0) * (dze_ / 2.0);
    for (int e = 0; e < nelem_; ++e)
        for (int k = 0; k < np_; ++k)
            for (int j = 0; j < np_; ++j)
                for (int i = 0; i < np_; ++i) {
                    const std::size_t n =
                        node_index(static_cast<std::size_t>(e), i, j, k);
                    const double w =
                        lgl_.weights[static_cast<std::size_t>(i)] *
                        lgl_.weights[static_cast<std::size_t>(j)] *
                        lgl_.weights[static_cast<std::size_t>(k)];
                    const double rho =
                        static_cast<double>(rho_bar_[n]) +
                        static_cast<double>(q_[RHO][n]);
                    const double m2 =
                        static_cast<double>(q_[MX][n]) * static_cast<double>(q_[MX][n]) +
                        static_cast<double>(q_[MY][n]) * static_cast<double>(q_[MY][n]) +
                        static_cast<double>(q_[MZ][n]) * static_cast<double>(q_[MZ][n]);
                    acc.add(jac * w * 0.5 * m2 / rho);
                }
    return acc.round();
}

template <fp::PrecisionPolicy Policy>
template <typename K>
void SpectralEulerSolver<Policy>::account(const std::string& kernel,
                                          double seconds,
                                          std::uint64_t flops,
                                          std::uint64_t bytes,
                                          std::uint64_t converts,
                                          std::uint64_t bytes_compute,
                                          std::uint32_t simd_lanes) {
    constexpr bool sp = std::is_same_v<K, float>;
    // Every SEM kernel forks one team over its element/face loop, so the
    // current global team size is the right value to record. simd_lanes is
    // nonzero only for the kernels with an explicit pack body (volume,
    // gradient, filter); the rest leave the projector's global option in
    // charge.
    ledger_.record(kernel, seconds, sp ? flops : 0, sp ? 0 : flops, bytes,
                   converts, bytes_compute,
                   static_cast<std::uint32_t>(util::max_threads()),
                   simd_lanes);
}

template <fp::PrecisionPolicy Policy>
auto SpectralEulerSolver<Policy>::volume_args()
    -> detail::VolumeArgs<storage_t, compute_t> {
    detail::VolumeArgs<storage_t, compute_t> a{};
    for (int v = 0; v < kVars; ++v) {
        a.q[v] = q_[v].data();
        a.r[v] = r_[v].data();
    }
    a.rho_bar = rho_bar_.data();
    a.e_bar = e_bar_.data();
    a.p_bar = p_bar_.data();
    a.d = d_.data();
    a.np = np_;
    a.nelem = nelem_;
    a.gravity = cfg_.atm.gravity;
    a.gamma = cfg_.atm.gamma;
    // Constant metric terms (2/dx per direction), folded into the fluxes
    // at build time so the contraction is a pure accumulate.
    a.jx = 2.0 / dxe_;
    a.jy = 2.0 / dye_;
    a.jz = 2.0 / dze_;
    return a;
}

template <fp::PrecisionPolicy Policy>
auto SpectralEulerSolver<Policy>::gradient_args()
    -> detail::GradientArgs<storage_t, compute_t> {
    detail::GradientArgs<storage_t, compute_t> a{};
    for (int v = 0; v < kVars; ++v) a.q[v] = q_[v].data();
    for (int v = 0; v < 4; ++v)
        for (int dir = 0; dir < 3; ++dir)
            a.grad[v][dir] = grad_[v][dir].data();
    a.rho_bar = rho_bar_.data();
    a.e_bar = e_bar_.data();
    a.p_bar = p_bar_.data();
    a.d = d_.data();
    a.np = np_;
    a.nelem = nelem_;
    a.gamma = cfg_.atm.gamma;
    a.gas_constant = cfg_.atm.gas_constant;
    a.jx = 2.0 / dxe_;
    a.jy = 2.0 / dye_;
    a.jz = 2.0 / dze_;
    return a;
}

template <fp::PrecisionPolicy Policy>
auto SpectralEulerSolver<Policy>::filter_args()
    -> detail::FilterArgs<storage_t, compute_t> {
    detail::FilterArgs<storage_t, compute_t> a{};
    for (int v = 0; v < kVars; ++v) a.q[v] = q_[v].data();
    a.filter = filter_.data();
    a.np = np_;
    a.nelem = nelem_;
    return a;
}

template <fp::PrecisionPolicy Policy>
template <typename S>
void SpectralEulerSolver<Policy>::volume_kernel() {
    obs::Phase phase("sem.volume", timers_, "volume");
    detail::volume_sweep<S, storage_t, compute_t, simd::native_lanes<S>>(
        volume_args());

    const std::uint64_t nodes = num_nodes();
    const std::uint64_t flops =
        nodes * (kEosFlopsPerNode +
                 static_cast<std::uint64_t>(30 * np_) + 4);
    const std::uint64_t bytes = nodes * 8 * sizeof(storage_t);
    // Conversions per node: eight loads (state and base state) from
    // storage_t into S, and seven residual updates (the gravity source's
    // two and the divergence's five) from S into compute_t.
    const std::uint64_t converts =
        (perf::charged_conversion<storage_t, S> ? nodes * 8 : 0) +
        (perf::charged_conversion<S, compute_t> ? nodes * 7 : 0);
    account<S>("volume", phase.stop(), flops, bytes, converts,
               nodes * 10 * sizeof(compute_t), simd::native_lanes<S>);
}

template <fp::PrecisionPolicy Policy>
template <typename S>
void SpectralEulerSolver<Policy>::surface_kernel() {
    obs::Phase phase("sem.surface", timers_, "surface");
    using std::sqrt;
    using std::fabs;
    const int np = np_;
    const S gm1 = S(cfg_.atm.gamma - 1.0);
    const S gam = S(cfg_.atm.gamma);
    const S half = S(0.5);

    // Normal flux + signal speed for one side of a face.
    struct Side {
        S q[kVars];
        S fn[kVars];
        S speed;
    };
    auto eval = [&](Side& s, int dir, const storage_t* rho_b,
                    const storage_t* e_b, const storage_t* p_b,
                    std::size_t gn) {
        const S rho = S(static_cast<double>(rho_b[gn])) + s.q[RHO];
        const S inv = S(1.0) / rho;
        const S mn = s.q[MX + dir];
        const S un = mn * inv;
        const S ef = S(static_cast<double>(e_b[gn])) + s.q[EN];
        const S ke = half * (s.q[MX] * s.q[MX] + s.q[MY] * s.q[MY] +
                             s.q[MZ] * s.q[MZ]) *
                     inv;
        const S pf = gm1 * (ef - ke);
        const S pp = pf - S(static_cast<double>(p_b[gn]));
        s.fn[RHO] = mn;
        s.fn[MX] = s.q[MX] * un;
        s.fn[MY] = s.q[MY] * un;
        s.fn[MZ] = s.q[MZ] * un;
        s.fn[MX + dir] += pp;
        s.fn[EN] = (ef + pf) * un;
        const S c = sqrt(gam * pf * inv);
        const S aun = fabs(un);
        s.speed = aun + c;
    };

    std::uint64_t face_nodes = 0;
    // Sweep each direction; fidx runs over nx+1 face planes including the
    // two wall boundaries, handled with mirrored ghost states.
    for (int dir = 0; dir < 3; ++dir) {
        const int nfaces = (dir == 0 ? cfg_.nx : dir == 1 ? cfg_.ny : cfg_.nz) + 1;
        const int na = dir == 0 ? cfg_.ny : cfg_.nx;
        const int nb = dir == 2 ? cfg_.ny : cfg_.nz;
        const double de = dir == 0 ? dxe_ : dir == 1 ? dye_ : dze_;
        const compute_t lift =
            static_cast<compute_t>(2.0 / de) * lift_w_;
        face_nodes += static_cast<std::uint64_t>(nfaces) * na * nb * np * np;

        // Distinct (b, a) columns touch disjoint element rows, so they
        // thread safely; the f march along the pencil stays serial because
        // consecutive faces share an element.
#pragma omp parallel for collapse(2) schedule(static)
        for (int b = 0; b < nb; ++b)
            for (int a = 0; a < na; ++a)
                for (int f = 0; f < nfaces; ++f) {
                    // Element indices on each side of face plane f.
                    int exl, eyl, ezl, exr, eyr, ezr;
                    if (dir == 0) {
                        exl = f - 1; exr = f; eyl = eyr = a; ezl = ezr = b;
                    } else if (dir == 1) {
                        eyl = f - 1; eyr = f; exl = exr = a; ezl = ezr = b;
                    } else {
                        ezl = f - 1; ezr = f; exl = exr = a; eyl = eyr = b;
                    }
                    const bool lo_wall = f == 0;
                    const bool hi_wall = f == nfaces - 1;
                    const std::size_t eL = lo_wall
                        ? 0
                        : elem_index(exl, eyl, ezl);
                    const std::size_t eR = hi_wall
                        ? 0
                        : elem_index(exr, eyr, ezr);

                    for (int t2 = 0; t2 < np; ++t2)
                        for (int t1 = 0; t1 < np; ++t1) {
                            // Face-node indices in each element: the last
                            // slice of the left element, first of the right.
                            std::size_t gnL = 0;
                            std::size_t gnR = 0;
                            if (dir == 0) {
                                if (!lo_wall)
                                    gnL = node_index(eL, np - 1, t1, t2);
                                if (!hi_wall)
                                    gnR = node_index(eR, 0, t1, t2);
                            } else if (dir == 1) {
                                if (!lo_wall)
                                    gnL = node_index(eL, t1, np - 1, t2);
                                if (!hi_wall)
                                    gnR = node_index(eR, t1, 0, t2);
                            } else {
                                if (!lo_wall)
                                    gnL = node_index(eL, t1, t2, np - 1);
                                if (!hi_wall)
                                    gnR = node_index(eR, t1, t2, 0);
                            }

                            Side L{}, R{};
                            if (!lo_wall)
                                for (int v = 0; v < kVars; ++v)
                                    L.q[v] = S(static_cast<double>(
                                        q_[v][gnL]));
                            if (!hi_wall)
                                for (int v = 0; v < kVars; ++v)
                                    R.q[v] = S(static_cast<double>(
                                        q_[v][gnR]));
                            std::size_t gbL = gnL;
                            std::size_t gbR = gnR;
                            if (lo_wall) {
                                // Mirror ghost of the right state.
                                for (int v = 0; v < kVars; ++v)
                                    L.q[v] = R.q[v];
                                L.q[MX + dir] = -L.q[MX + dir];
                                gbL = gnR;
                            }
                            if (hi_wall) {
                                for (int v = 0; v < kVars; ++v)
                                    R.q[v] = L.q[v];
                                R.q[MX + dir] = -R.q[MX + dir];
                                gbR = gnL;
                            }
                            eval(L, dir, rho_bar_.data(), e_bar_.data(),
                                 p_bar_.data(), gbL);
                            eval(R, dir, rho_bar_.data(), e_bar_.data(),
                                 p_bar_.data(), gbR);
                            const S lam =
                                L.speed > R.speed ? L.speed : R.speed;

                            for (int v = 0; v < kVars; ++v) {
                                const S fstar =
                                    half * (L.fn[v] + R.fn[v]) -
                                    half * lam * (R.q[v] - L.q[v]);
                                if (!lo_wall)
                                    r_[v][gnL] -= lift *
                                        static_cast<compute_t>(
                                            static_cast<double>(
                                                fstar - L.fn[v]));
                                if (!hi_wall)
                                    r_[v][gnR] += lift *
                                        static_cast<compute_t>(
                                            static_cast<double>(
                                                fstar - R.fn[v]));
                            }
                        }
                }
    }

    const std::uint64_t flops = face_nodes * kSurfaceFlopsPerFaceNode;
    const std::uint64_t bytes = face_nodes * 16 * sizeof(storage_t);
    // Conversions per face node: both sides' state loads (10) from
    // storage_t into S, and both sides' lifted residual updates (10) from
    // S into compute_t.
    const std::uint64_t converts =
        (perf::charged_conversion<storage_t, S> ? face_nodes * 10 : 0) +
        (perf::charged_conversion<S, compute_t> ? face_nodes * 10 : 0);
    account<S>("surface", phase.stop(), flops, bytes, converts,
               face_nodes * 10 * sizeof(compute_t));
}

// --- BR1 viscous terms ------------------------------------------------
// Stage 1 (gradient_kernel): DG gradients of the primitive variables
// (u, v, w, T) with central interface averages; stage 2 (viscous_kernel):
// divergence of the Newtonian stress and Fourier heat flux built from
// those gradients, again with central interface fluxes. Wall faces use the
// free-slip adiabatic approximation (no viscous surface correction).

template <fp::PrecisionPolicy Policy>
template <typename S>
void SpectralEulerSolver<Policy>::gradient_kernel() {
    obs::Phase phase("sem.gradient", timers_, "gradient");
    const int np = np_;
    const S gm1 = S(cfg_.atm.gamma - 1.0);
    const S rgas = S(cfg_.atm.gas_constant);
    const S half = S(0.5);

    // Primitive evaluation for the surface pass (the volume pass has its
    // own fused pack form in sem/tensor_kernel.hpp).
    auto prim_at = [&](std::size_t gn, S out[4]) {
        const S rho = S(static_cast<double>(rho_bar_[gn])) +
                      S(static_cast<double>(q_[RHO][gn]));
        const S inv = S(1.0) / rho;
        const S m1 = S(static_cast<double>(q_[MX][gn]));
        const S m2 = S(static_cast<double>(q_[MY][gn]));
        const S m3 = S(static_cast<double>(q_[MZ][gn]));
        const S ef = S(static_cast<double>(e_bar_[gn])) +
                     S(static_cast<double>(q_[EN][gn]));
        out[0] = m1 * inv;
        out[1] = m2 * inv;
        out[2] = m3 * inv;
        const S pf = gm1 * (ef - half * (m1 * out[0] + m2 * out[1] +
                                         m3 * out[2]));
        out[3] = pf * inv / rgas;  // temperature
    };

    // Volume pass: fused primitive evaluation + line contractions.
    detail::gradient_sweep<S, storage_t, compute_t, simd::native_lanes<S>>(
        gradient_args());

    // Surface corrections: both sides of an interior face receive
    // lift * (p_central - p_side) * n = lift * (pR - pL)/2 in the face
    // direction. Wall faces mirror the normal velocity (weakly enforcing
    // u_n = 0) and copy T (adiabatic).
    for (int dir = 0; dir < 3; ++dir) {
        const int nfaces = (dir == 0 ? cfg_.nx : dir == 1 ? cfg_.ny : cfg_.nz) + 1;
        const int na = dir == 0 ? cfg_.ny : cfg_.nx;
        const int nb = dir == 2 ? cfg_.ny : cfg_.nz;
        const double de = dir == 0 ? dxe_ : dir == 1 ? dye_ : dze_;
        const compute_t lift = static_cast<compute_t>(2.0 / de) * lift_w_;

        // Same decomposition as surface_kernel: (b, a) columns are
        // independent, the f march within one is not.
#pragma omp parallel for collapse(2) schedule(static)
        for (int b = 0; b < nb; ++b)
            for (int a = 0; a < na; ++a)
                for (int f = 0; f < nfaces; ++f) {
                    const bool lo_wall = f == 0;
                    const bool hi_wall = f == nfaces - 1;
                    std::size_t eL = 0, eR = 0;
                    if (dir == 0) {
                        if (!lo_wall) eL = elem_index(f - 1, a, b);
                        if (!hi_wall) eR = elem_index(f, a, b);
                    } else if (dir == 1) {
                        if (!lo_wall) eL = elem_index(a, f - 1, b);
                        if (!hi_wall) eR = elem_index(a, f, b);
                    } else {
                        if (!lo_wall) eL = elem_index(a, b, f - 1);
                        if (!hi_wall) eR = elem_index(a, b, f);
                    }
                    for (int t2 = 0; t2 < np; ++t2)
                        for (int t1 = 0; t1 < np; ++t1) {
                            std::size_t gnL = 0, gnR = 0;
                            if (dir == 0) {
                                if (!lo_wall) gnL = node_index(eL, np - 1, t1, t2);
                                if (!hi_wall) gnR = node_index(eR, 0, t1, t2);
                            } else if (dir == 1) {
                                if (!lo_wall) gnL = node_index(eL, t1, np - 1, t2);
                                if (!hi_wall) gnR = node_index(eR, t1, 0, t2);
                            } else {
                                if (!lo_wall) gnL = node_index(eL, t1, t2, np - 1);
                                if (!hi_wall) gnR = node_index(eR, t1, t2, 0);
                            }
                            S pl[4] = {S(0.0), S(0.0), S(0.0), S(0.0)};
                            S pr[4] = {S(0.0), S(0.0), S(0.0), S(0.0)};
                            if (!lo_wall) prim_at(gnL, pl);
                            if (!hi_wall) prim_at(gnR, pr);
                            if (lo_wall) {
                                for (int v = 0; v < 4; ++v) pl[v] = pr[v];
                                pl[dir] = -pl[dir];
                            }
                            if (hi_wall) {
                                for (int v = 0; v < 4; ++v) pr[v] = pl[v];
                                pr[dir] = -pr[dir];
                            }
                            for (int v = 0; v < 4; ++v) {
                                const compute_t corr =
                                    lift * static_cast<compute_t>(
                                               static_cast<double>(
                                                   S(0.5) * (pr[v] - pl[v])));
                                if (!lo_wall)
                                    grad_[v][dir][gnL] += corr;
                                if (!hi_wall)
                                    grad_[v][dir][gnR] += corr;
                            }
                        }
                }
    }

    const std::uint64_t nodes = num_nodes();
    account("gradient", phase.stop(),
            nodes * static_cast<std::uint64_t>(20 + 18 * np),
            nodes * 8 * sizeof(storage_t), 0,
            nodes * 12 * sizeof(compute_t), simd::native_lanes<compute_t>);
}

template <fp::PrecisionPolicy Policy>
template <typename S>
void SpectralEulerSolver<Policy>::viscous_kernel() {
    obs::Phase phase("sem.viscous", timers_, "viscous");
    const int np = np_;
    const std::size_t npts = npts_;
    const auto snp = static_cast<std::size_t>(np);
    const S mu = S(cfg_.viscosity);
    const S kappa = S(cfg_.viscosity * cfg_.atm.cp() / cfg_.prandtl);
    const S gm1 = S(cfg_.atm.gamma - 1.0);
    const S half = S(0.5);
    const S two_thirds = S(2.0 / 3.0);

    // Viscous normal-flux components (vars MX..EN) at one node for one
    // direction, from the stored gradients. Used by volume and surface.
    auto visc_flux = [&](std::size_t gn, int dir, S out[4]) {
        const S ux = S(static_cast<double>(grad_[0][0][gn]));
        const S uy = S(static_cast<double>(grad_[0][1][gn]));
        const S uz = S(static_cast<double>(grad_[0][2][gn]));
        const S vx = S(static_cast<double>(grad_[1][0][gn]));
        const S vy = S(static_cast<double>(grad_[1][1][gn]));
        const S vz = S(static_cast<double>(grad_[1][2][gn]));
        const S wx = S(static_cast<double>(grad_[2][0][gn]));
        const S wy = S(static_cast<double>(grad_[2][1][gn]));
        const S wz = S(static_cast<double>(grad_[2][2][gn]));
        const S div = ux + vy + wz;
        const S rho = S(static_cast<double>(rho_bar_[gn])) +
                      S(static_cast<double>(q_[RHO][gn]));
        const S inv = S(1.0) / rho;
        const S u = S(static_cast<double>(q_[MX][gn])) * inv;
        const S v = S(static_cast<double>(q_[MY][gn])) * inv;
        const S w = S(static_cast<double>(q_[MZ][gn])) * inv;
        S t0, t1, t2;  // stress row for this direction
        if (dir == 0) {
            t0 = mu * (ux + ux - two_thirds * div);
            t1 = mu * (uy + vx);
            t2 = mu * (uz + wx);
        } else if (dir == 1) {
            t0 = mu * (uy + vx);
            t1 = mu * (vy + vy - two_thirds * div);
            t2 = mu * (vz + wy);
        } else {
            t0 = mu * (uz + wx);
            t1 = mu * (vz + wy);
            t2 = mu * (wz + wz - two_thirds * div);
        }
        const S tgrad = S(static_cast<double>(grad_[3][dir][gn]));
        out[0] = t0;
        out[1] = t1;
        out[2] = t2;
        out[3] = u * t0 + v * t1 + w * t2 + kappa * tgrad;
        (void)gm1;
        (void)half;
    };

    // Scratch comes from the per-thread bump arenas: after the first step
    // every RK stage reuses the same blocks, so the steady state makes no
    // heap allocations (ISSUE: zero-alloc step()).
    util::ScratchArena& marena = util::tls_arena();
    util::ArenaScope mscope(marena);
    S* dloc = marena.alloc<S>(snp * snp);
    S* dtloc = marena.alloc<S>(snp * snp);
    for (int r = 0; r < np; ++r)
        for (int c = 0; c < np; ++c) {
            dloc[static_cast<std::size_t>(r) * snp + static_cast<std::size_t>(c)] =
                S(static_cast<double>(d_[static_cast<std::size_t>(r) * snp + static_cast<std::size_t>(c)]));
            dtloc[static_cast<std::size_t>(c) * snp + static_cast<std::size_t>(r)] =
                dloc[static_cast<std::size_t>(r) * snp + static_cast<std::size_t>(c)];
        }
    const S jx = S(2.0 / dxe_);
    const S jy = S(2.0 / dye_);
    const S jz = S(2.0 / dze_);

#pragma omp parallel
    {
    util::ScratchArena& arena = util::tls_arena();
    util::ArenaScope scope(arena);
    S* fx = arena.alloc<S>(npts * 4);
    S* fy = arena.alloc<S>(npts * 4);
    S* fz = arena.alloc<S>(npts * 4);
    S* acc = arena.alloc<S>(npts);
#pragma omp for schedule(static)
    for (int e = 0; e < nelem_; ++e) {
        const std::size_t base = static_cast<std::size_t>(e) * npts;
        for (std::size_t n = 0; n < npts; ++n) {
            S ox[4], oy[4], oz[4];
            visc_flux(base + n, 0, ox);
            visc_flux(base + n, 1, oy);
            visc_flux(base + n, 2, oz);
            for (int v = 0; v < 4; ++v) {
                fx[static_cast<std::size_t>(v) * npts + n] = jx * ox[v];
                fy[static_cast<std::size_t>(v) * npts + n] = jy * oy[v];
                fz[static_cast<std::size_t>(v) * npts + n] = jz * oz[v];
            }
        }
        // Divergence, added with a positive sign: dq/dt = -div F_inv +
        // div F_visc.
        for (int var = 0; var < 4; ++var) {
            const S* fxa = &fx[static_cast<std::size_t>(var) * npts];
            const S* fya = &fy[static_cast<std::size_t>(var) * npts];
            const S* fza = &fz[static_cast<std::size_t>(var) * npts];
            for (std::size_t n = 0; n < npts; ++n) acc[n] = S(0.0);
            for (int k = 0; k < np; ++k)
                for (int j = 0; j < np; ++j) {
                    const std::size_t row = (static_cast<std::size_t>(k) * snp + static_cast<std::size_t>(j)) * snp;
                    for (int m = 0; m < np; ++m) {
                        const S fv = fxa[row + static_cast<std::size_t>(m)];
                        const S* dt = &dtloc[static_cast<std::size_t>(m) * snp];
                        S* out = &acc[row];
#pragma omp simd
                        for (int i = 0; i < np; ++i) out[i] += dt[i] * fv;
                    }
                }
            for (int k = 0; k < np; ++k)
                for (int m = 0; m < np; ++m) {
                    const std::size_t src = (static_cast<std::size_t>(k) * snp + static_cast<std::size_t>(m)) * snp;
                    for (int j = 0; j < np; ++j) {
                        const S djm = dloc[static_cast<std::size_t>(j) * snp + static_cast<std::size_t>(m)];
                        S* out = &acc[(static_cast<std::size_t>(k) * snp + static_cast<std::size_t>(j)) * snp];
                        const S* in = &fya[src];
#pragma omp simd
                        for (int i = 0; i < np; ++i) out[i] += djm * in[i];
                    }
                }
            for (int m = 0; m < np; ++m)
                for (int k = 0; k < np; ++k) {
                    const S dkm = dloc[static_cast<std::size_t>(k) * snp + static_cast<std::size_t>(m)];
                    S* out = &acc[static_cast<std::size_t>(k) * snp * snp];
                    const S* in = &fza[static_cast<std::size_t>(m) * snp * snp];
#pragma omp simd
                    for (std::size_t t = 0; t < snp * snp; ++t)
                        out[t] += dkm * in[t];
                }
            compute_t* res = &r_[var + 1][base];
#pragma omp simd
            for (std::size_t n = 0; n < npts; ++n)
                res[n] += static_cast<compute_t>(
                    static_cast<double>(acc[n]));
        }
    }
    }  // omp parallel

    // Interior surface terms: central viscous flux plus an interior-
    // penalty jump term — plain central BR1 admits marginally unstable
    // interface modes; the penalty (scale mu N^2 / h, the standard IP
    // choice) damps them while remaining consistent (jumps vanish with
    // resolution). Wall faces use the free-slip adiabatic approximation
    // (no correction).
    const S rgas = S(cfg_.atm.gas_constant);
    auto prim_at = [&](std::size_t gn, S out[4]) {
        const S rho = S(static_cast<double>(rho_bar_[gn])) +
                      S(static_cast<double>(q_[RHO][gn]));
        const S inv = S(1.0) / rho;
        const S m1 = S(static_cast<double>(q_[MX][gn]));
        const S m2 = S(static_cast<double>(q_[MY][gn]));
        const S m3 = S(static_cast<double>(q_[MZ][gn]));
        const S ef = S(static_cast<double>(e_bar_[gn])) +
                     S(static_cast<double>(q_[EN][gn]));
        out[0] = m1 * inv;
        out[1] = m2 * inv;
        out[2] = m3 * inv;
        const S pf = gm1 * (ef - half * (m1 * out[0] + m2 * out[1] +
                                         m3 * out[2]));
        out[3] = pf * inv / rgas;
    };
    for (int dir = 0; dir < 3; ++dir) {
        const int nfaces = (dir == 0 ? cfg_.nx : dir == 1 ? cfg_.ny : cfg_.nz) - 1;
        const int na = dir == 0 ? cfg_.ny : cfg_.nx;
        const int nb = dir == 2 ? cfg_.ny : cfg_.nz;
        const double de = dir == 0 ? dxe_ : dir == 1 ? dye_ : dze_;
        const compute_t lift = static_cast<compute_t>(2.0 / de) * lift_w_;
        const S pen_u = S(static_cast<double>(np * np) / de) * mu;
        const S pen_t = S(static_cast<double>(np * np) / de) * kappa;

#pragma omp parallel for collapse(2) schedule(static)
        for (int b = 0; b < nb; ++b)
            for (int a = 0; a < na; ++a)
                for (int f = 1; f <= nfaces; ++f) {
                    std::size_t eL, eR;
                    if (dir == 0) {
                        eL = elem_index(f - 1, a, b);
                        eR = elem_index(f, a, b);
                    } else if (dir == 1) {
                        eL = elem_index(a, f - 1, b);
                        eR = elem_index(a, f, b);
                    } else {
                        eL = elem_index(a, b, f - 1);
                        eR = elem_index(a, b, f);
                    }
                    for (int t2 = 0; t2 < np; ++t2)
                        for (int t1 = 0; t1 < np; ++t1) {
                            std::size_t gnL, gnR;
                            if (dir == 0) {
                                gnL = node_index(eL, np - 1, t1, t2);
                                gnR = node_index(eR, 0, t1, t2);
                            } else if (dir == 1) {
                                gnL = node_index(eL, t1, np - 1, t2);
                                gnR = node_index(eR, t1, 0, t2);
                            } else {
                                gnL = node_index(eL, t1, t2, np - 1);
                                gnR = node_index(eR, t1, t2, 0);
                            }
                            S fl[4], fr[4];
                            visc_flux(gnL, dir, fl);
                            visc_flux(gnR, dir, fr);
                            S pl[4], pr[4];
                            prim_at(gnL, pl);
                            prim_at(gnR, pr);
                            for (int v = 0; v < 4; ++v) {
                                const S pen = v < 3 ? pen_u : pen_t;
                                const S fstar = half * (fl[v] + fr[v]) +
                                                pen * (pr[v] - pl[v]);
                                r_[v + 1][gnL] += lift *
                                    static_cast<compute_t>(
                                        static_cast<double>(fstar - fl[v]));
                                r_[v + 1][gnR] -= lift *
                                    static_cast<compute_t>(
                                        static_cast<double>(fstar - fr[v]));
                            }
                        }
                }
    }

    const std::uint64_t nodes = num_nodes();
    account("viscous", phase.stop(),
            nodes * static_cast<std::uint64_t>(60 + 24 * np),
            nodes * 8 * sizeof(storage_t), 0,
            nodes * 20 * sizeof(compute_t));
}

// --- shadow-divergence hooks (--shadow-profile) ---------------------------
// Double-precision re-execution of a strided sample of each kernel's
// work, replicating the production accumulation order (per output, the
// three direction passes in sequence, modal contributions ascending) so
// a double-compute policy reports zero drift and a reduced-precision one
// reports exactly the rounding its compute scalar introduced.

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::shadow_profile_cfl() const {
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    const std::size_t n = num_nodes();
    const double gm1 = cfg_.atm.gamma - 1.0;
    const double node_gap = 0.5 * (lgl_.nodes[1] - lgl_.nodes[0]);
    const double gx = node_gap * dxe_;
    const double gy = node_gap * dye_;
    const double gz = node_gap * dze_;
    const double gamma = cfg_.atm.gamma;
    obs::DivergenceStats s;
    for (std::size_t i = 0; i < n; i += stride) {
        const double rho = static_cast<double>(rho_bar_[i]) +
                           static_cast<double>(q_[RHO][i]);
        const double inv = 1.0 / rho;
        const double u = std::fabs(static_cast<double>(q_[MX][i])) * inv;
        const double v = std::fabs(static_cast<double>(q_[MY][i])) * inv;
        const double w = std::fabs(static_cast<double>(q_[MZ][i])) * inv;
        const double ef = static_cast<double>(e_bar_[i]) +
                          static_cast<double>(q_[EN][i]);
        const double ke = 0.5 * rho * (u * u + v * v + w * w);
        const double p = gm1 * (ef - ke);
        const double c = std::sqrt(gamma * p * inv);
        s.observe(cfl_scratch_[i],
                  (u + c) / gx + (v + c) / gy + (w + c) / gz);
    }
    obs::shadow_merge("sem.cfl", "rates", s);
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::rhs_divergence_stats(
    obs::DivergenceStats* stats, bool float_lattice) {
    const auto A = volume_args();
    const int np = np_;
    const auto snp = static_cast<std::size_t>(np);
    const std::size_t npts = npts_;
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    shadow_a_.resize(15 * npts);  // double fx/fy/fz, 5 vars each
    double* fx = shadow_a_.data();
    double* fy = fx + 5 * npts;
    double* fz = fy + 5 * npts;
    const double gm1 = A.gamma - 1.0;
    for (std::size_t e = 0; e < static_cast<std::size_t>(A.nelem);
         e += stride) {
        const std::size_t base = e * npts;
        for (std::size_t n = 0; n < npts; ++n) {
            const std::size_t gn = base + n;
            const double qr = static_cast<double>(A.q[RHO][gn]);
            const double rho = static_cast<double>(A.rho_bar[gn]) + qr;
            const double m1 = static_cast<double>(A.q[MX][gn]);
            const double m2 = static_cast<double>(A.q[MY][gn]);
            const double m3 = static_cast<double>(A.q[MZ][gn]);
            const double ef = static_cast<double>(A.e_bar[gn]) +
                              static_cast<double>(A.q[EN][gn]);
            const double inv = 1.0 / rho;
            const double u = m1 * inv;
            const double v = m2 * inv;
            const double w = m3 * inv;
            const double pf =
                gm1 * (ef - 0.5 * (m1 * u + m2 * v + m3 * w));
            const double pp = pf - static_cast<double>(A.p_bar[gn]);
            const double hth = ef + pf;
            fx[0 * npts + n] = A.jx * m1;
            fx[1 * npts + n] = A.jx * (m1 * u + pp);
            fx[2 * npts + n] = A.jx * (m2 * u);
            fx[3 * npts + n] = A.jx * (m3 * u);
            fx[4 * npts + n] = A.jx * (hth * u);
            fy[0 * npts + n] = A.jy * m2;
            fy[1 * npts + n] = A.jy * (m1 * v);
            fy[2 * npts + n] = A.jy * (m2 * v + pp);
            fy[3 * npts + n] = A.jy * (m3 * v);
            fy[4 * npts + n] = A.jy * (hth * v);
            fz[0 * npts + n] = A.jz * m3;
            fz[1 * npts + n] = A.jz * (m1 * w);
            fz[2 * npts + n] = A.jz * (m2 * w);
            fz[3 * npts + n] = A.jz * (m3 * w + pp);
            fz[4 * npts + n] = A.jz * (hth * w);
        }
        // Only interior nodes: the surface kernel writes face nodes, so
        // an interior node's residual is the pure volume contribution the
        // reference above reproduces.
        for (int var = 0; var < kVars; ++var) {
            const double* fxa = fx + static_cast<std::size_t>(var) * npts;
            const double* fya = fy + static_cast<std::size_t>(var) * npts;
            const double* fza = fz + static_cast<std::size_t>(var) * npts;
            for (int k = 1; k < np - 1; ++k)
                for (int j = 1; j < np - 1; ++j)
                    for (int i = 1; i < np - 1; ++i) {
                        const std::size_t row =
                            (static_cast<std::size_t>(k) * snp +
                             static_cast<std::size_t>(j)) *
                            snp;
                        const std::size_t n =
                            row + static_cast<std::size_t>(i);
                        double acc = 0.0;
                        for (int mm = 0; mm < np; ++mm)
                            acc += static_cast<double>(
                                       A.d[static_cast<std::size_t>(i) *
                                               snp +
                                           static_cast<std::size_t>(mm)]) *
                                   fxa[row + static_cast<std::size_t>(mm)];
                        for (int mm = 0; mm < np; ++mm)
                            acc += static_cast<double>(
                                       A.d[static_cast<std::size_t>(j) *
                                               snp +
                                           static_cast<std::size_t>(mm)]) *
                                   fya[(static_cast<std::size_t>(k) * snp +
                                        static_cast<std::size_t>(mm)) *
                                           snp +
                                       static_cast<std::size_t>(i)];
                        for (int mm = 0; mm < np; ++mm)
                            acc += static_cast<double>(
                                       A.d[static_cast<std::size_t>(k) *
                                               snp +
                                           static_cast<std::size_t>(mm)]) *
                                   fza[(static_cast<std::size_t>(mm) * snp +
                                        static_cast<std::size_t>(j)) *
                                           snp +
                                       static_cast<std::size_t>(i)];
                        double ref = 0.0;
                        if (var == MZ)
                            ref -= A.gravity *
                                   static_cast<double>(A.q[RHO][base + n]);
                        if (var == EN)
                            ref -= A.gravity *
                                   static_cast<double>(A.q[MZ][base + n]);
                        ref -= acc;
                        if (float_lattice)
                            stats[var].observe(
                                static_cast<float>(static_cast<double>(
                                    r_[var][base + n])),
                                ref);
                        else
                            stats[var].observe(r_[var][base + n], ref);
                    }
        }
    }
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::shadow_profile_rhs() {
    static constexpr const char* kVarNames[kVars] = {"rho", "mx", "my",
                                                     "mz", "en"};
    obs::DivergenceStats stats[kVars];
    rhs_divergence_stats(stats, /*float_lattice=*/false);
    for (int var = 0; var < kVars; ++var)
        obs::shadow_merge("sem.rhs", kVarNames[var], stats[var]);
}

// Governor telemetry: the same interior-node reference, observed on the
// float lattice so reduced and promoted sweeps are scored comparably. In
// the double-compute policies a promoted (double-scalar) sweep reproduces
// the reference bit-for-bit and reports zero drift, which is what the
// hysteresis counter counts as a clean step. Minimum precision's r_ is
// float, and volume_element rounds the gravity source and the flux
// divergence into it separately, so its promoted steps read 1-91 ULP: at
// a zero drift budget it promotes and never demotes. All five variables
// pool into one signal per kernel.
template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::governed_monitor_rhs() {
    obs::DivergenceStats stats[kVars];
    rhs_divergence_stats(stats, /*float_lattice=*/true);
    obs::DivergenceStats all;
    for (int var = 0; var < kVars; ++var) all.merge(stats[var]);
    governor_->observe(gov_rhs_id_, all);
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::set_governor(
    fp::PrecisionGovernor* governor) {
    governor_ = governor;
    gov_rhs_id_ = -1;
    if (governor_ != nullptr && governor_->enabled())
        gov_rhs_id_ = governor_->register_kernel("sem.rhs");
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::shadow_profile_rk_capture(double a,
                                                            double b,
                                                            double dt) {
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    const std::size_t n = num_nodes();
    shadow_nodes_.clear();
    shadow_a_.clear();
    for (std::size_t i = 0; i < n; i += stride) {
        shadow_nodes_.push_back(static_cast<std::int64_t>(i));
        for (int v = 0; v < kVars; ++v) {
            const double gd = a * static_cast<double>(g_[v][i]) +
                              dt * static_cast<double>(r_[v][i]);
            const double qd = static_cast<double>(q_[v][i]) + b * gd;
            shadow_a_.push_back(gd);
            shadow_a_.push_back(qd);
        }
    }
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::shadow_profile_rk_observe() const {
    obs::DivergenceStats sq;
    obs::DivergenceStats sg;
    std::size_t p = 0;
    for (const std::int64_t node : shadow_nodes_) {
        const auto i = static_cast<std::size_t>(node);
        for (int v = 0; v < kVars; ++v) {
            sg.observe(g_[v][i], shadow_a_[p++]);
            sq.observe(q_[v][i], shadow_a_[p++]);
        }
    }
    obs::shadow_merge("sem.rk_stage", "g", sg);
    obs::shadow_merge("sem.rk_stage", "q", sq);
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::shadow_profile_filter_capture() {
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    const std::size_t npts = npts_;
    shadow_elems_.clear();
    shadow_a_.clear();
    for (std::size_t e = 0; e < static_cast<std::size_t>(nelem_);
         e += stride) {
        shadow_elems_.push_back(static_cast<std::int32_t>(e));
        const std::size_t base = e * npts;
        for (int v = 0; v < kVars; ++v)
            for (std::size_t n = 0; n < npts; ++n)
                shadow_a_.push_back(
                    static_cast<double>(q_[v][base + n]));
    }
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::shadow_profile_filter_observe() {
    const int np = np_;
    const auto snp = static_cast<std::size_t>(np);
    const std::size_t npts = npts_;
    const std::size_t plane = snp * snp;
    shadow_b_.resize(2 * npts);
    double* tmp = shadow_b_.data();
    double* tmp2 = tmp + npts;
    const auto F = [&](int r, int c) {
        return static_cast<double>(
            filter_[static_cast<std::size_t>(r) * snp +
                    static_cast<std::size_t>(c)]);
    };
    static constexpr const char* kVarNames[kVars] = {"rho", "mx", "my",
                                                     "mz", "en"};
    obs::DivergenceStats stats[kVars];
    std::size_t off = 0;
    for (const std::int32_t elem : shadow_elems_) {
        const std::size_t base = static_cast<std::size_t>(elem) * npts;
        for (int var = 0; var < kVars; ++var) {
            const double* qin = shadow_a_.data() + off;
            off += npts;
            // Same per-output accumulation order as filter_element: the
            // x, y, z matrix passes in sequence, modal index ascending.
            for (int k = 0; k < np; ++k)
                for (int j = 0; j < np; ++j)
                    for (int i = 0; i < np; ++i) {
                        const std::size_t row =
                            (static_cast<std::size_t>(k) * snp +
                             static_cast<std::size_t>(j)) *
                            snp;
                        double val = 0.0;
                        for (int mm = 0; mm < np; ++mm)
                            val += F(i, mm) *
                                   qin[row + static_cast<std::size_t>(mm)];
                        tmp[row + static_cast<std::size_t>(i)] = val;
                    }
            for (int k = 0; k < np; ++k)
                for (int j = 0; j < np; ++j)
                    for (int i = 0; i < np; ++i) {
                        double val = 0.0;
                        for (int mm = 0; mm < np; ++mm)
                            val += F(j, mm) *
                                   tmp[(static_cast<std::size_t>(k) * snp +
                                        static_cast<std::size_t>(mm)) *
                                           snp +
                                       static_cast<std::size_t>(i)];
                        tmp2[(static_cast<std::size_t>(k) * snp +
                              static_cast<std::size_t>(j)) *
                                 snp +
                             static_cast<std::size_t>(i)] = val;
                    }
            for (int k = 0; k < np; ++k)
                for (std::size_t t = 0; t < plane; ++t) {
                    double val = 0.0;
                    for (int mm = 0; mm < np; ++mm)
                        val += F(k, mm) *
                               tmp2[static_cast<std::size_t>(mm) * plane +
                                    t];
                    const std::size_t n =
                        static_cast<std::size_t>(k) * plane + t;
                    stats[var].observe(q_[var][base + n], val);
                }
        }
    }
    for (int var = 0; var < kVars; ++var)
        obs::shadow_merge("sem.filter", kVarNames[var], stats[var]);
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::compute_rhs() {
    TP_OBS_SPAN("sem.rhs");
    // Governed dispatch: the rhs kernels are templated on their kernel
    // scalar, so switching precision mid-run is just instantiating the
    // other scalar against the same storage arrays. Inviscid-only (the
    // monitor's reference is the pure volume contribution).
    const bool governed = governor_ != nullptr && governor_->enabled() &&
                          gov_rhs_id_ >= 0 && cfg_.viscosity == 0.0;
    using gov_alt_t =
        std::conditional_t<std::is_same_v<compute_t, float>, double, float>;
    const bool use_alt =
        governed && (governor_->reduced(gov_rhs_id_) !=
                     std::is_same_v<compute_t, float>);
    if (use_alt) {
        volume_kernel<gov_alt_t>();
        surface_kernel<gov_alt_t>();
    } else {
        volume_kernel<compute_t>();
        surface_kernel<compute_t>();
        if (cfg_.viscosity > 0.0) {
            gradient_kernel<compute_t>();
            viscous_kernel<compute_t>();
        }
    }
    // Interior-node references assume the residual is the pure volume
    // contribution; the viscous kernels also write interior nodes, so the
    // rhs shadow only runs inviscid.
    if (obs::shadow_kernel_active("sem.rhs") && cfg_.viscosity == 0.0)
        shadow_profile_rhs();
    if (governed) governed_monitor_rhs();
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::rk_stage(double a, double b, double dt) {
    obs::Phase phase("sem.rk_stage", timers_, "rk_update");
    const std::size_t n = num_nodes();
    const compute_t ac = static_cast<compute_t>(a);
    const compute_t bc = static_cast<compute_t>(b);
    const compute_t dtc = static_cast<compute_t>(dt);
    const bool shadow = obs::shadow_kernel_active("sem.rk_stage");
    if (shadow) shadow_profile_rk_capture(a, b, dt);
    for (int v = 0; v < kVars; ++v) {
        storage_t* q = q_[v].data();
        compute_t* r = r_[v].data();
        compute_t* g = g_[v].data();
#pragma omp parallel for simd schedule(static)
        for (std::size_t i = 0; i < n; ++i) {
            g[i] = ac * g[i] + dtc * r[i];
            q[i] = static_cast<storage_t>(
                static_cast<compute_t>(q[i]) + bc * g[i]);
            r[i] = compute_t(0);
        }
    }
    if (shadow) shadow_profile_rk_observe();
    account("rk_update", phase.stop(), n * kRkFlopsPerNode,
            n * kVars * 2 * sizeof(storage_t),
            perf::charged_conversion<storage_t, compute_t> ? n * 2 * kVars
                                                           : 0,
            n * kVars * 4 * sizeof(compute_t));
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::apply_filter() {
    obs::Phase phase("sem.filter", timers_, "filter");
    const int np = np_;
    const bool shadow = obs::shadow_kernel_active("sem.filter");
    if (shadow) shadow_profile_filter_capture();
    detail::filter_sweep<storage_t, compute_t,
                         simd::native_lanes<compute_t>>(filter_args());
    if (shadow) shadow_profile_filter_observe();
    const std::uint64_t nodes = num_nodes();
    account("filter", phase.stop(),
            nodes * static_cast<std::uint64_t>(30 * np),
            nodes * kVars * 2 * sizeof(storage_t),
            perf::charged_conversion<storage_t, compute_t>
                ? nodes * kVars * 2
                : 0,
            nodes * kVars * 2 * sizeof(compute_t),
            simd::native_lanes<compute_t>);
}

template <fp::PrecisionPolicy Policy>
double SpectralEulerSolver<Policy>::compute_dt() {
    obs::Phase phase("sem.cfl", timers_, "cfl");
    const std::size_t n = num_nodes();
    const double gm1 = cfg_.atm.gamma - 1.0;
    // Smallest node spacing per direction; the 3-D DG spectral radius sums
    // the per-direction rates (|u_d| + c) / gap_d — using only one
    // direction's gap over-predicts the stable dt by ~3x on cubes.
    const double node_gap = 0.5 * (lgl_.nodes[1] - lgl_.nodes[0]);
    const double gx = node_gap * dxe_;
    const double gy = node_gap * dye_;
    const double gz = node_gap * dze_;
    cfl_scratch_.resize(n);
    double* rates = cfl_scratch_.data();
    const double gamma = cfg_.atm.gamma;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
        const double rho = static_cast<double>(rho_bar_[i]) +
                           static_cast<double>(q_[RHO][i]);
        const double inv = 1.0 / rho;
        const double u = std::fabs(static_cast<double>(q_[MX][i])) * inv;
        const double v = std::fabs(static_cast<double>(q_[MY][i])) * inv;
        const double w = std::fabs(static_cast<double>(q_[MZ][i])) * inv;
        const double ef = static_cast<double>(e_bar_[i]) +
                          static_cast<double>(q_[EN][i]);
        const double ke = 0.5 * rho * (u * u + v * v + w * w);
        const double p = gm1 * (ef - ke);
        const double c = std::sqrt(gamma * p * inv);
        rates[i] = (u + c) / gx + (v + c) / gy + (w + c) / gz;
    }
    if (obs::shadow_kernel_active("sem.cfl")) shadow_profile_cfl();
    // Fixed-shape reduction: the stable dt is bit-identical at any thread
    // count (max is exact, the blocked shape depends only on n).
    const double rate_max = sum::parallel_max(cfl_scratch_, 0.0);
    account("cfl", phase.stop(), n * kCflFlopsPerNode,
            n * 8 * sizeof(storage_t), 0);
    double dt = cfg_.courant / rate_max;
    if (cfg_.viscosity > 0.0) {
        // Diffusive stability: dt <= C / (nu sum_d gap_d^-2) with the
        // largest kinematic diffusivity (momentum or heat) in the column.
        const double rho_min = cfg_.atm.density(cfg_.lz);
        const double nu = cfg_.viscosity / rho_min *
                          std::max(1.0, cfg_.atm.gamma / cfg_.prandtl);
        const double diff_rate =
            nu * (1.0 / (gx * gx) + 1.0 / (gy * gy) + 1.0 / (gz * gz));
        dt = std::min(dt, 0.6 / diff_rate);
    }
    if (!std::isfinite(dt) || dt <= 0.0) {
        std::string detail = "non-finite or non-positive dt " +
                             std::to_string(dt) + " (rate_max " +
                             std::to_string(rate_max) + " over " +
                             std::to_string(n) + " nodes)";
        static constexpr const char* kVarNames[kVars] = {"rho", "mx", "my",
                                                         "mz", "en"};
        for (int v = 0; v < kVars; ++v) {
            const obs::ProbeStats s = obs::probe_array(
                std::string("sem.") + kVarNames[v], q_[v].data(), n);
            if (!s.healthy())
                detail += "; " + std::string(kVarNames[v]) + " has " +
                          std::to_string(s.nan_count) + " NaN / " +
                          std::to_string(s.inf_count) +
                          " Inf values (first at node " +
                          std::to_string(s.first_bad_index) + ")";
        }
        obs::probe_flush_to_metrics();
        obs::raise_numerical_fault("sem.cfl", step_count_, detail);
    }
    return dt;
}

template <fp::PrecisionPolicy Policy>
double SpectralEulerSolver<Policy>::step() {
    TP_OBS_SPAN("sem.step");
    const double dt = compute_dt();
    for (int s = 0; s < 3; ++s) {
        compute_rhs();
        rk_stage(kRkA[s], kRkB[s], dt);
    }
    if (cfg_.filter_interval > 0 &&
        (step_count_ + 1) % cfg_.filter_interval == 0)
        apply_filter();
    // Same contract as the shallow solver: a NaN in the state must fault
    // here, because comparison-based reductions (CFL max) silently skip
    // NaN operands.
    if (obs::probe_enabled()) {
        static constexpr const char* kVarNames[kVars] = {"rho", "mx", "my",
                                                         "mz", "en"};
        for (int v = 0; v < kVars; ++v) {
            const std::string kernel = std::string("sem.") + kVarNames[v];
            const obs::ProbeStats s =
                obs::probe_array(kernel, q_[v].data(), num_nodes());
            if (!s.healthy()) {
                obs::probe_flush_to_metrics();
                obs::raise_numerical_fault(
                    kernel, step_count_,
                    std::to_string(s.nan_count) + " NaN / " +
                        std::to_string(s.inf_count) + " Inf values over " +
                        std::to_string(s.samples) +
                        " nodes (first at node " +
                        std::to_string(s.first_bad_index) + ")");
            }
        }
    }
    time_ += dt;
    ++step_count_;
    return dt;
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::run(int nsteps) {
    for (int s = 0; s < nsteps; ++s) step();
}

template <fp::PrecisionPolicy Policy>
double SpectralEulerSolver<Policy>::interpolate(int var, double x, double y,
                                                double z) const {
    if (var < 0 || var >= kVars)
        throw std::invalid_argument("interpolate: bad variable index");
    auto locate = [](double pos, double de, int nelems) {
        int e = static_cast<int>(pos / de);
        e = std::clamp(e, 0, nelems - 1);
        const double xi = 2.0 * (pos - e * de) / de - 1.0;
        return std::pair<int, double>{e, std::clamp(xi, -1.0, 1.0)};
    };
    const auto [ex, xi] = locate(x, dxe_, cfg_.nx);
    const auto [ey, eta] = locate(y, dye_, cfg_.ny);
    const auto [ez, zeta] = locate(z, dze_, cfg_.nz);

    auto cardinal = [&](double pt, std::vector<double>& out) {
        out.assign(static_cast<std::size_t>(np_), 0.0);
        for (int j = 0; j < np_; ++j)
            if (pt == lgl_.nodes[static_cast<std::size_t>(j)]) {
                out[static_cast<std::size_t>(j)] = 1.0;
                return;
            }
        double den = 0.0;
        for (int j = 0; j < np_; ++j) {
            const double t = bary_[static_cast<std::size_t>(j)] /
                             (pt - lgl_.nodes[static_cast<std::size_t>(j)]);
            out[static_cast<std::size_t>(j)] = t;
            den += t;
        }
        for (auto& v : out) v /= den;
    };
    std::vector<double> li, lj, lk;
    cardinal(xi, li);
    cardinal(eta, lj);
    cardinal(zeta, lk);

    const std::size_t e = elem_index(ex, ey, ez);
    double acc = 0.0;
    for (int k = 0; k < np_; ++k)
        for (int j = 0; j < np_; ++j) {
            const double ljk = lj[static_cast<std::size_t>(j)] *
                               lk[static_cast<std::size_t>(k)];
            for (int i = 0; i < np_; ++i)
                acc += ljk * li[static_cast<std::size_t>(i)] *
                       static_cast<double>(
                           q_[var][node_index(e, i, j, k)]);
        }
    return acc;
}

template <fp::PrecisionPolicy Policy>
std::vector<double> SpectralEulerSolver<Policy>::sample_positions_x(
    int n) const {
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k)
        xs[static_cast<std::size_t>(k)] = (k + 0.5) * cfg_.lx / n;
    return xs;
}

template <fp::PrecisionPolicy Policy>
std::vector<double> SpectralEulerSolver<Policy>::sample_density_anomaly_x(
    double y, double z, int n) const {
    std::vector<double> out(static_cast<std::size_t>(n));
    const auto xs = sample_positions_x(n);
    for (int k = 0; k < n; ++k)
        out[static_cast<std::size_t>(k)] =
            interpolate(RHO, xs[static_cast<std::size_t>(k)], y, z);
    return out;
}

template <fp::PrecisionPolicy Policy>
double SpectralEulerSolver<Policy>::total_mass_perturbation() const {
    sum::ExpansionAccumulator acc;
    const double jac = (dxe_ / 2.0) * (dye_ / 2.0) * (dze_ / 2.0);
    for (int e = 0; e < nelem_; ++e)
        for (int k = 0; k < np_; ++k)
            for (int j = 0; j < np_; ++j)
                for (int i = 0; i < np_; ++i) {
                    const double w =
                        lgl_.weights[static_cast<std::size_t>(i)] *
                        lgl_.weights[static_cast<std::size_t>(j)] *
                        lgl_.weights[static_cast<std::size_t>(k)];
                    acc.add(jac * w *
                            static_cast<double>(q_[RHO][node_index(
                                static_cast<std::size_t>(e), i, j, k)]));
                }
    return acc.round();
}

template <fp::PrecisionPolicy Policy>
double SpectralEulerSolver<Policy>::max_abs(int var) const {
    double m = 0.0;
    for (const storage_t v : q_[var])
        m = std::max(m, std::fabs(static_cast<double>(v)));
    return m;
}

template <fp::PrecisionPolicy Policy>
std::uint64_t SpectralEulerSolver<Policy>::state_bytes() const {
    // 5 state fields in storage precision, RHS + RK registers in compute
    // precision, 3 base-state fields in storage precision.
    return num_nodes() *
           (kVars * (sizeof(storage_t) + 2 * sizeof(compute_t)) +
            3 * sizeof(storage_t));
}

namespace {
constexpr std::uint32_t kSemCheckpointMagic = 0x54505345;  // "TPSE"
constexpr std::uint32_t kSemCheckpointV1 = 1;
constexpr std::uint32_t kSemCheckpointV2 = 2;  // compressed arrays
// Fixed header: magic, version, elem, pad (16) + nodes (8) + time, step
// (16) + nx, ny, nz, order (16) + lx, ly, lz (24).
constexpr std::uint64_t kSemHeaderBytes = 80;

// Discretization bounds a header must satisfy before `nodes` is trusted
// for allocation: generous for any real run, tight enough that the node
// count product below cannot overflow (4096^3 * 64^3 = 2^54).
constexpr int kMaxElemsPerDir = 4096;
constexpr int kMaxOrder = 63;

void write_sem_header(const SemCheckpointSnapshot& s, std::uint32_t version,
                      std::uint64_t nodes, std::ostream& os) {
    using io::detail::write_pod;
    write_pod(os, kSemCheckpointMagic);
    write_pod(os, version);
    write_pod(os, s.elem);
    write_pod(os, static_cast<std::uint32_t>(0));  // pad
    write_pod(os, nodes);
    write_pod(os, s.time);
    write_pod(os, s.step);
    write_pod(os, s.nx);
    write_pod(os, s.ny);
    write_pod(os, s.nz);
    write_pod(os, s.order);
    write_pod(os, s.lx);
    write_pod(os, s.ly);
    write_pod(os, s.lz);
    io::require_write(os);
}
}  // namespace

template <fp::PrecisionPolicy Policy>
std::uint64_t SpectralEulerSolver<Policy>::checkpoint_bytes() const {
    return kSemHeaderBytes + num_nodes() * kVars * sizeof(storage_t);
}

template <fp::PrecisionPolicy Policy>
std::uint64_t SpectralEulerSolver<Policy>::checkpoint_bytes(
    const io::CheckpointOptions& opt) const {
    if (!opt.compressed()) return checkpoint_bytes();
    const std::uint64_t n = num_nodes();
    std::uint64_t total = kSemHeaderBytes;
    for (const auto& field : q_) {
        double peak = 0.0;
        for (const storage_t& v : field)
            peak = std::max(peak, std::fabs(static_cast<double>(v)));
        const int bits =
            io::resolve_bits(opt, peak, io::storage_digits_v<storage_t>);
        total += 12 + compress::compressed_payload_bytes(n, bits);
    }
    return total;
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::snapshot_checkpoint(Snapshot& s) const {
    s.elem = static_cast<std::uint32_t>(sizeof(storage_t));
    s.storage_digits = io::storage_digits_v<storage_t>;
    s.time = time_;
    s.step = step_count_;
    s.nx = cfg_.nx;
    s.ny = cfg_.ny;
    s.nz = cfg_.nz;
    s.order = cfg_.order;
    s.lx = cfg_.lx;
    s.ly = cfg_.ly;
    s.lz = cfg_.lz;
    for (int v = 0; v < kVars; ++v) {
        s.q[v].resize(q_[v].size() * sizeof(storage_t));
        std::memcpy(s.q[v].data(), q_[v].data(), s.q[v].size());
    }
}

template <fp::PrecisionPolicy Policy>
io::CheckpointWriteInfo SpectralEulerSolver<Policy>::write_snapshot(
    const Snapshot& s, std::ostream& os, const io::CheckpointOptions& opt) {
    TP_OBS_SPAN("sem.checkpoint_write");
    const std::uint64_t n = s.q[0].size() / s.elem;
    io::CheckpointWriteInfo info;
    info.raw_bytes = kSemHeaderBytes + kVars * n * s.elem;
    if (!opt.compressed()) {
        info.version = kSemCheckpointV1;
        write_sem_header(s, kSemCheckpointV1, n, os);
        for (const auto& field : s.q)
            os.write(reinterpret_cast<const char*>(field.data()),
                     static_cast<std::streamsize>(field.size()));
        io::require_write(os);
        info.written_bytes = info.raw_bytes;
        return info;
    }
    info.version = kSemCheckpointV2;
    write_sem_header(s, kSemCheckpointV2, n, os);
    std::uint64_t written = kSemHeaderBytes;
    std::vector<double> wide;
    for (const auto& field : s.q) {
        io::widen_storage(field, s.elem, wide);
        const int bits =
            io::resolve_bits(opt, io::peak_abs(wide), s.storage_digits);
        written += io::write_compressed_array(os, wide, bits);
        info.bits.push_back(bits);
    }
    info.written_bytes = written;
    return info;
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::write_checkpoint(std::ostream& os) const {
    write_checkpoint(os, io::CheckpointOptions{});
}

template <fp::PrecisionPolicy Policy>
io::CheckpointWriteInfo SpectralEulerSolver<Policy>::write_checkpoint(
    std::ostream& os, const io::CheckpointOptions& opt) const {
    Snapshot s;
    snapshot_checkpoint(s);
    return write_snapshot(s, os, opt);
}

template <fp::PrecisionPolicy Policy>
SemCheckpointData SpectralEulerSolver<Policy>::read_checkpoint(
    std::istream& is) {
    TP_OBS_SPAN("sem.checkpoint_read");
    using io::detail::read_pod;
    if (read_pod<std::uint32_t>(is) != kSemCheckpointMagic)
        throw std::runtime_error("checkpoint: bad magic");
    const auto version = read_pod<std::uint32_t>(is);
    if (version != kSemCheckpointV1 && version != kSemCheckpointV2)
        throw std::runtime_error("checkpoint: bad version");
    const auto elem = read_pod<std::uint32_t>(is);
    if (elem != 2 && elem != 4 && elem != 8)
        throw std::runtime_error("checkpoint: bad element size");
    (void)read_pod<std::uint32_t>(is);
    const auto n = read_pod<std::uint64_t>(is);

    SemCheckpointData d;
    d.time = read_pod<double>(is);
    d.step = read_pod<std::int64_t>(is);
    d.nx = read_pod<std::int32_t>(is);
    d.ny = read_pod<std::int32_t>(is);
    d.nz = read_pod<std::int32_t>(is);
    d.order = read_pod<std::int32_t>(is);
    d.lx = read_pod<double>(is);
    d.ly = read_pod<double>(is);
    d.lz = read_pod<double>(is);

    // Validate the header before trusting `n` for allocation (the same
    // hardening as the shallow reader): the node count must equal what
    // the stored discretization implies, inside bounds that keep the
    // product overflow-free.
    if (d.step < 0)
        throw std::runtime_error("checkpoint: negative step count");
    if (d.nx < 1 || d.ny < 1 || d.nz < 1 || d.nx > kMaxElemsPerDir ||
        d.ny > kMaxElemsPerDir || d.nz > kMaxElemsPerDir)
        throw std::runtime_error("checkpoint: bad element grid");
    if (d.order < 1 || d.order > kMaxOrder)
        throw std::runtime_error("checkpoint: bad order");
    if (!(d.lx > 0.0) || !(d.ly > 0.0) || !(d.lz > 0.0))
        throw std::runtime_error("checkpoint: bad domain extents");
    const std::uint64_t np = static_cast<std::uint64_t>(d.order) + 1;
    const std::uint64_t expect_nodes = static_cast<std::uint64_t>(d.nx) *
                                       d.ny * d.nz * np * np * np;
    if (n != expect_nodes)
        throw std::runtime_error(
            "checkpoint: node count " + std::to_string(n) +
            " does not match the stored discretization (" +
            std::to_string(expect_nodes) + ")");
    // Seekable streams: the v1 payload the header promises must fit in
    // the remaining bytes before anything is allocated.
    if (version == kSemCheckpointV1) {
        if (const auto here = is.tellg();
            here != std::istream::pos_type(-1)) {
            is.seekg(0, std::ios::end);
            const auto end = is.tellg();
            is.seekg(here);
            if (end != std::istream::pos_type(-1)) {
                const auto remaining = static_cast<std::uint64_t>(end - here);
                if (n > remaining / (kVars * elem))
                    throw std::runtime_error(
                        "checkpoint: header promises " + std::to_string(n) +
                        " nodes but only " + std::to_string(remaining) +
                        " payload bytes remain");
            }
        }
    }
    for (auto& out : d.q)
        out = version == kSemCheckpointV1
                  ? io::read_raw_array(is, n, elem)
                  : io::read_compressed_array(is, n);
    return d;
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::restore_checkpoint(
    const SemCheckpointData& d) {
    TP_OBS_SPAN("sem.checkpoint_restore");
    if (d.nx != cfg_.nx || d.ny != cfg_.ny || d.nz != cfg_.nz ||
        d.order != cfg_.order || d.lx != cfg_.lx || d.ly != cfg_.ly ||
        d.lz != cfg_.lz)
        throw std::invalid_argument(
            "restore_checkpoint: discretization differs from the solver "
            "config");
    const std::size_t n = num_nodes();
    for (const auto& field : d.q)
        if (field.size() != n)
            throw std::invalid_argument(
                "restore_checkpoint: state arrays do not match the node "
                "count");
    for (int v = 0; v < kVars; ++v) {
        q_[v].resize(n);
        for (std::size_t k = 0; k < n; ++k)
            q_[v][k] = static_cast<storage_t>(d.q[v][k]);
    }
    time_ = d.time;
    step_count_ = d.step;
}

template class SpectralEulerSolver<fp::MinimumPrecision>;
template class SpectralEulerSolver<fp::MixedPrecision>;
template class SpectralEulerSolver<fp::FullPrecision>;

}  // namespace tp::sem
