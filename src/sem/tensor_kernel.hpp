#pragma once
// Fused, width-templated tensor-product micro-kernels for the DGSEM hot
// loops (DESIGN.md §"SIMD kernel layer"): the volume flux divergence, the
// BR1 primitive-variable gradients, and the modal filter, each expressed
// once over simd::pack<_, W> and instantiated in dgsem.cpp at
// W = native_lanes (1 in a -DTP_ENABLE_SIMD=OFF build). "Fused" means one
// element-local pass builds the node fluxes and immediately contracts
// them — the flux scratch never leaves the per-thread arena slice, so
// step() allocates nothing at steady state.
//
// np-specialization: the drivers dispatch the element order at compile
// time for the common nodes-per-direction counts (np ∈ {4, 6, 8} — orders
// 3/5/7, the paper's SELF study runs order 7) so the derivative-matrix
// application unrolls into a register-blocked small-GEMM with constant
// trip counts; any other np takes the runtime-np generic path, identical
// arithmetic at runtime trip counts.
//
// Determinism contract (same as the shallow flux kernel): every pack op is
// per-lane IEEE, every output node accumulates its m-contributions in
// ascending order in each of the x/y/z passes, and the kernel TUs compile
// with -ffp-contract=off — so every (NP, W) instantiation produces
// bit-identical results. tests/golden/sem_state.txt pins those bits, so a
// -DTP_ENABLE_SIMD=OFF build of test_golden checks the W = 1 kernels.

#include <cstddef>
#include <cstdint>

#include "sem/dgsem.hpp"
#include "simd/pack.hpp"
#include "util/arena.hpp"

namespace tp::sem::detail {

/// Pointer view of the solver state the volume kernel touches. Sto is the
/// storage scalar, C the compute scalar the residual accumulates in.
template <typename Sto, typename C>
struct VolumeArgs {
    const Sto* q[kVars];
    const Sto* rho_bar;
    const Sto* e_bar;
    const Sto* p_bar;
    C* r[kVars];
    const Sto* d;  ///< np x np collocation derivative matrix, row-major
    int np;
    int nelem;
    double gravity;
    double gamma;
    double jx, jy, jz;  ///< 2 / element extent per direction
};

template <typename Sto, typename C>
struct GradientArgs {
    const Sto* q[kVars];
    const Sto* rho_bar;
    const Sto* e_bar;
    const Sto* p_bar;
    C* grad[4][3];  ///< (u, v, w, T) x (x, y, z)
    const Sto* d;
    int np;
    int nelem;
    double gamma;
    double gas_constant;
    double jx, jy, jz;
};

template <typename Sto, typename C>
struct FilterArgs {
    Sto* q[kVars];
    const Sto* filter;  ///< np x np modal filter matrix, row-major
    int np;
    int nelem;
};

/// out[0..len) += in[0..len) * f — the row primitive every contraction
/// pass reduces to. One add per output element per call, so chaining calls
/// with ascending m keeps each output's accumulation order fixed for every
/// pack width (full rows and the partial tail alike).
template <typename S, int W>
inline void axpy_row(S* out, const S* in, S f, int len) {
    using P = simd::pack<S, W>;
    const P fv = P::broadcast(f);
    int i = 0;
    for (; i + W <= len; i += W) {
        P o = P::load(out + i);
        o = o + P::load(in + i) * fv;
        o.store(out + i);
    }
    if (i < len) {
        const int m = len - i;
        P o = P::load_partial(out + i, m);
        o = o + P::load_partial(in + i, m) * fv;
        o.store_partial(out + i, m);
    }
}

/// One element of the fused volume kernel: node fluxes + gravity source,
/// then the strong-form divergence as three register-blocked line
/// contractions, subtracted into the residual. NP == 0 selects runtime np.
template <typename S, typename Sto, typename C, int NP, int W>
inline void volume_element(const VolumeArgs<Sto, C>& A, const S* dloc,
                           const S* dtloc, std::size_t e, S* fx, S* fy,
                           S* fz, S* acc) {
    const int np = NP != 0 ? NP : A.np;
    const auto snp = static_cast<std::size_t>(np);
    const std::size_t npts = snp * snp * snp;
    const std::size_t base = e * npts;
    using P = simd::pack<S, W>;
    using PC = simd::pack<C, W>;
    const P grav = P::broadcast(S(A.gravity));
    const P gm1 = P::broadcast(S(A.gamma - 1.0));
    const P half = P::broadcast(S(0.5));
    const P one = P::broadcast(S(1.0));
    const P jx = P::broadcast(S(A.jx));
    const P jy = P::broadcast(S(A.jy));
    const P jz = P::broadcast(S(A.jz));

    // --- fused node fluxes + gravity source ------------------------------
    for (std::size_t n = 0; n < npts; n += W) {
        const int m = npts - n < static_cast<std::size_t>(W)
                          ? static_cast<int>(npts - n)
                          : W;
        const std::size_t gn = base + n;
        auto lds = [&](const Sto* p) {
            return (m == W ? simd::pack<Sto, W>::load(p + gn)
                           : simd::pack<Sto, W>::load_partial(p + gn, m))
                .template convert<S>();
        };
        const P qr = lds(A.q[RHO]);
        const P rho = lds(A.rho_bar) + qr;
        const P m1 = lds(A.q[MX]);
        const P m2 = lds(A.q[MY]);
        const P m3 = lds(A.q[MZ]);
        const P ef = lds(A.e_bar) + lds(A.q[EN]);
        const P inv = one / rho;
        const P u = m1 * inv;
        const P v = m2 * inv;
        const P w = m3 * inv;
        const P pf = gm1 * (ef - half * (m1 * u + m2 * v + m3 * w));
        const P pp = pf - lds(A.p_bar);
        const P hth = ef + pf;  // rho * total enthalpy
        auto put = [&](S* dst, const P& val) {
            if (m == W)
                val.store(dst + n);
            else
                val.store_partial(dst + n, m);
        };
        put(fx + 0 * npts, jx * m1);
        put(fx + 1 * npts, jx * (m1 * u + pp));
        put(fx + 2 * npts, jx * (m2 * u));
        put(fx + 3 * npts, jx * (m3 * u));
        put(fx + 4 * npts, jx * (hth * u));
        put(fy + 0 * npts, jy * m2);
        put(fy + 1 * npts, jy * (m1 * v));
        put(fy + 2 * npts, jy * (m2 * v + pp));
        put(fy + 3 * npts, jy * (m3 * v));
        put(fy + 4 * npts, jy * (hth * v));
        put(fz + 0 * npts, jz * m3);
        put(fz + 1 * npts, jz * (m1 * w));
        put(fz + 2 * npts, jz * (m2 * w));
        put(fz + 3 * npts, jz * (m3 * w + pp));
        put(fz + 4 * npts, jz * (hth * w));
        // Gravity source on the perturbation: -rho' g in z-momentum,
        // -m_z g in energy (the base-state part cancels analytically).
        auto rmw_sub = [&](C* r, const P& src) {
            PC rv = m == W ? PC::load(r + gn) : PC::load_partial(r + gn, m);
            rv = rv - src.template convert<C>();
            if (m == W)
                rv.store(r + gn);
            else
                rv.store_partial(r + gn, m);
        };
        rmw_sub(A.r[MZ], grav * qr);
        rmw_sub(A.r[EN], grav * m3);
    }

    // --- strong-form divergence: three line contractions -----------------
    // Row width: rows are np long in the x/y passes, so cap the pack there;
    // the z pass streams whole np^2 planes at full width.
    constexpr int RW = NP != 0 && NP < W ? NP : W;
    for (int var = 0; var < kVars; ++var) {
        const S* fxa = fx + static_cast<std::size_t>(var) * npts;
        const S* fya = fy + static_cast<std::size_t>(var) * npts;
        const S* fza = fz + static_cast<std::size_t>(var) * npts;
        for (std::size_t n = 0; n < npts; ++n) acc[n] = S(0.0);
        // x: acc(k,j,i) += sum_m D[i][m] fx(k,j,m) via transposed D.
        for (int k = 0; k < np; ++k)
            for (int j = 0; j < np; ++j) {
                const std::size_t row =
                    (static_cast<std::size_t>(k) * snp +
                     static_cast<std::size_t>(j)) *
                    snp;
                for (int mm = 0; mm < np; ++mm)
                    axpy_row<S, RW>(
                        acc + row, dtloc + static_cast<std::size_t>(mm) * snp,
                        fxa[row + static_cast<std::size_t>(mm)], np);
            }
        // y: acc(k,j,i) += sum_m D[j][m] fy(k,m,i); inner i stride-1.
        for (int k = 0; k < np; ++k)
            for (int mm = 0; mm < np; ++mm) {
                const std::size_t src = (static_cast<std::size_t>(k) * snp +
                                         static_cast<std::size_t>(mm)) *
                                        snp;
                for (int j = 0; j < np; ++j)
                    axpy_row<S, RW>(acc + (static_cast<std::size_t>(k) * snp +
                                           static_cast<std::size_t>(j)) *
                                              snp,
                                    fya + src,
                                    dloc[static_cast<std::size_t>(j) * snp +
                                         static_cast<std::size_t>(mm)],
                                    np);
            }
        // z: acc(k,j,i) += sum_m D[k][m] fz(m,j,i); whole (j,i) planes.
        for (int mm = 0; mm < np; ++mm)
            for (int k = 0; k < np; ++k)
                axpy_row<S, W>(acc + static_cast<std::size_t>(k) * snp * snp,
                               fza + static_cast<std::size_t>(mm) * snp * snp,
                               dloc[static_cast<std::size_t>(k) * snp +
                                    static_cast<std::size_t>(mm)],
                               np * np);
        C* res = A.r[var] + base;
        for (std::size_t n = 0; n < npts; n += W) {
            const int m = npts - n < static_cast<std::size_t>(W)
                              ? static_cast<int>(npts - n)
                              : W;
            const P av =
                m == W ? P::load(acc + n) : P::load_partial(acc + n, m);
            PC rv =
                m == W ? PC::load(res + n) : PC::load_partial(res + n, m);
            rv = rv - av.template convert<C>();
            if (m == W)
                rv.store(res + n);
            else
                rv.store_partial(res + n, m);
        }
    }
}

template <typename S, typename Sto, typename C, int NP, int W>
void volume_loop(const VolumeArgs<Sto, C>& A, const S* dloc,
                 const S* dtloc) {
    const int np = NP != 0 ? NP : A.np;
    const std::size_t npts = static_cast<std::size_t>(np) * np * np;
#pragma omp parallel
    {
        util::ScratchArena& arena = util::tls_arena();
        util::ArenaScope scope(arena);
        S* fx = arena.alloc<S>(npts * kVars);
        S* fy = arena.alloc<S>(npts * kVars);
        S* fz = arena.alloc<S>(npts * kVars);
        S* acc = arena.alloc<S>(npts);
#pragma omp for schedule(static)
        for (int e = 0; e < A.nelem; ++e)
            volume_element<S, Sto, C, NP, W>(
                A, dloc, dtloc, static_cast<std::size_t>(e), fx, fy, fz, acc);
    }
}

template <typename S, typename Sto, typename C, int W>
void volume_sweep(const VolumeArgs<Sto, C>& A) {
    util::ScratchArena& arena = util::tls_arena();
    util::ArenaScope scope(arena);
    const auto snp = static_cast<std::size_t>(A.np);
    S* dloc = arena.alloc<S>(snp * snp);
    S* dtloc = arena.alloc<S>(snp * snp);
    for (int r = 0; r < A.np; ++r)
        for (int c = 0; c < A.np; ++c) {
            dloc[static_cast<std::size_t>(r) * snp +
                 static_cast<std::size_t>(c)] =
                static_cast<S>(A.d[static_cast<std::size_t>(r) * snp +
                                   static_cast<std::size_t>(c)]);
            dtloc[static_cast<std::size_t>(c) * snp +
                  static_cast<std::size_t>(r)] =
                dloc[static_cast<std::size_t>(r) * snp +
                     static_cast<std::size_t>(c)];
        }
    switch (A.np) {
        case 4: volume_loop<S, Sto, C, 4, W>(A, dloc, dtloc); break;
        case 6: volume_loop<S, Sto, C, 6, W>(A, dloc, dtloc); break;
        case 8: volume_loop<S, Sto, C, 8, W>(A, dloc, dtloc); break;
        default: volume_loop<S, Sto, C, 0, W>(A, dloc, dtloc); break;
    }
}

/// One element of the BR1 gradient volume pass: primitive variables
/// (u, v, w, T) at the nodes, then one line contraction per direction
/// written to the gradient arrays (the face corrections stay in
/// dgsem.cpp — shared by both instruction shapes).
template <typename S, typename Sto, typename C, int NP, int W>
inline void gradient_element(const GradientArgs<Sto, C>& A, const S* dloc,
                             const S* dtloc, std::size_t e, S* prim, S* gx,
                             S* gy, S* gz) {
    const int np = NP != 0 ? NP : A.np;
    const auto snp = static_cast<std::size_t>(np);
    const std::size_t npts = snp * snp * snp;
    const std::size_t base = e * npts;
    using P = simd::pack<S, W>;
    using PC = simd::pack<C, W>;
    const P gm1 = P::broadcast(S(A.gamma - 1.0));
    const P half = P::broadcast(S(0.5));
    const P one = P::broadcast(S(1.0));
    const P rgas = P::broadcast(S(A.gas_constant));

    for (std::size_t n = 0; n < npts; n += W) {
        const int m = npts - n < static_cast<std::size_t>(W)
                          ? static_cast<int>(npts - n)
                          : W;
        const std::size_t gn = base + n;
        auto lds = [&](const Sto* p) {
            return (m == W ? simd::pack<Sto, W>::load(p + gn)
                           : simd::pack<Sto, W>::load_partial(p + gn, m))
                .template convert<S>();
        };
        const P rho = lds(A.rho_bar) + lds(A.q[RHO]);
        const P inv = one / rho;
        const P m1 = lds(A.q[MX]);
        const P m2 = lds(A.q[MY]);
        const P m3 = lds(A.q[MZ]);
        const P ef = lds(A.e_bar) + lds(A.q[EN]);
        const P u = m1 * inv;
        const P v = m2 * inv;
        const P w = m3 * inv;
        const P pf = gm1 * (ef - half * (m1 * u + m2 * v + m3 * w));
        const P tt = pf * inv / rgas;  // temperature
        auto put = [&](S* dst, const P& val) {
            if (m == W)
                val.store(dst + n);
            else
                val.store_partial(dst + n, m);
        };
        put(prim + 0 * npts, u);
        put(prim + 1 * npts, v);
        put(prim + 2 * npts, w);
        put(prim + 3 * npts, tt);
    }

    const S jxs = S(A.jx);
    const S jys = S(A.jy);
    const S jzs = S(A.jz);
    constexpr int RW = NP != 0 && NP < W ? NP : W;
    for (int var = 0; var < 4; ++var) {
        const S* f = prim + static_cast<std::size_t>(var) * npts;
        for (std::size_t n = 0; n < npts; ++n) {
            gx[n] = S(0.0);
            gy[n] = S(0.0);
            gz[n] = S(0.0);
        }
        for (int k = 0; k < np; ++k)
            for (int j = 0; j < np; ++j) {
                const std::size_t row =
                    (static_cast<std::size_t>(k) * snp +
                     static_cast<std::size_t>(j)) *
                    snp;
                for (int mm = 0; mm < np; ++mm)
                    axpy_row<S, RW>(
                        gx + row, dtloc + static_cast<std::size_t>(mm) * snp,
                        f[row + static_cast<std::size_t>(mm)] * jxs, np);
            }
        for (int k = 0; k < np; ++k)
            for (int mm = 0; mm < np; ++mm) {
                const std::size_t src = (static_cast<std::size_t>(k) * snp +
                                         static_cast<std::size_t>(mm)) *
                                        snp;
                for (int j = 0; j < np; ++j)
                    axpy_row<S, RW>(gy + (static_cast<std::size_t>(k) * snp +
                                          static_cast<std::size_t>(j)) *
                                             snp,
                                    f + src,
                                    dloc[static_cast<std::size_t>(j) * snp +
                                         static_cast<std::size_t>(mm)] *
                                        jys,
                                    np);
            }
        for (int mm = 0; mm < np; ++mm)
            for (int k = 0; k < np; ++k)
                axpy_row<S, W>(gz + static_cast<std::size_t>(k) * snp * snp,
                               f + static_cast<std::size_t>(mm) * snp * snp,
                               dloc[static_cast<std::size_t>(k) * snp +
                                    static_cast<std::size_t>(mm)] *
                                   jzs,
                               np * np);
        for (std::size_t n = 0; n < npts; n += W) {
            const int m = npts - n < static_cast<std::size_t>(W)
                              ? static_cast<int>(npts - n)
                              : W;
            auto putc = [&](C* dst, const S* src) {
                const PC val = (m == W ? P::load(src + n)
                                       : P::load_partial(src + n, m))
                                   .template convert<C>();
                if (m == W)
                    val.store(dst + base + n);
                else
                    val.store_partial(dst + base + n, m);
            };
            putc(A.grad[var][0], gx);
            putc(A.grad[var][1], gy);
            putc(A.grad[var][2], gz);
        }
    }
}

template <typename S, typename Sto, typename C, int NP, int W>
void gradient_loop(const GradientArgs<Sto, C>& A, const S* dloc,
                   const S* dtloc) {
    const int np = NP != 0 ? NP : A.np;
    const std::size_t npts = static_cast<std::size_t>(np) * np * np;
#pragma omp parallel
    {
        util::ScratchArena& arena = util::tls_arena();
        util::ArenaScope scope(arena);
        S* prim = arena.alloc<S>(npts * 4);
        S* gx = arena.alloc<S>(npts);
        S* gy = arena.alloc<S>(npts);
        S* gz = arena.alloc<S>(npts);
#pragma omp for schedule(static)
        for (int e = 0; e < A.nelem; ++e)
            gradient_element<S, Sto, C, NP, W>(
                A, dloc, dtloc, static_cast<std::size_t>(e), prim, gx, gy,
                gz);
    }
}

template <typename S, typename Sto, typename C, int W>
void gradient_sweep(const GradientArgs<Sto, C>& A) {
    util::ScratchArena& arena = util::tls_arena();
    util::ArenaScope scope(arena);
    const auto snp = static_cast<std::size_t>(A.np);
    S* dloc = arena.alloc<S>(snp * snp);
    S* dtloc = arena.alloc<S>(snp * snp);
    for (int r = 0; r < A.np; ++r)
        for (int c = 0; c < A.np; ++c) {
            dloc[static_cast<std::size_t>(r) * snp +
                 static_cast<std::size_t>(c)] =
                static_cast<S>(A.d[static_cast<std::size_t>(r) * snp +
                                   static_cast<std::size_t>(c)]);
            dtloc[static_cast<std::size_t>(c) * snp +
                  static_cast<std::size_t>(r)] =
                dloc[static_cast<std::size_t>(r) * snp +
                     static_cast<std::size_t>(c)];
        }
    switch (A.np) {
        case 4: gradient_loop<S, Sto, C, 4, W>(A, dloc, dtloc); break;
        case 6: gradient_loop<S, Sto, C, 6, W>(A, dloc, dtloc); break;
        case 8: gradient_loop<S, Sto, C, 8, W>(A, dloc, dtloc); break;
        default: gradient_loop<S, Sto, C, 0, W>(A, dloc, dtloc); break;
    }
}

/// One element of the modal filter: three matrix passes (x, y, z) through
/// the filter matrix, each output node summing its np modal contributions
/// in ascending order, write-back in storage precision.
template <typename Sto, typename C, int NP, int W>
inline void filter_element(const FilterArgs<Sto, C>& A, const C* floc,
                           const C* floct, std::size_t e, C* tmp, C* tmp2,
                           C* accp) {
    const int np = NP != 0 ? NP : A.np;
    const auto snp = static_cast<std::size_t>(np);
    const std::size_t npts = snp * snp * snp;
    const std::size_t plane = snp * snp;
    const std::size_t base = e * npts;
    using PC = simd::pack<C, W>;
    constexpr int RW = NP != 0 && NP < W ? NP : W;
    for (int var = 0; var < kVars; ++var) {
        Sto* q = A.q[var] + base;
        // x: tmp(k,j,i) = sum_m F[i][m] q(k,j,m) via transposed F.
        for (std::size_t n = 0; n < npts; ++n) tmp[n] = C(0);
        for (int k = 0; k < np; ++k)
            for (int j = 0; j < np; ++j) {
                const std::size_t row =
                    (static_cast<std::size_t>(k) * snp +
                     static_cast<std::size_t>(j)) *
                    snp;
                for (int mm = 0; mm < np; ++mm)
                    axpy_row<C, RW>(
                        tmp + row, floct + static_cast<std::size_t>(mm) * snp,
                        static_cast<C>(
                            q[row + static_cast<std::size_t>(mm)]),
                        np);
            }
        // y: tmp2(k,j,i) = sum_m F[j][m] tmp(k,m,i).
        for (std::size_t n = 0; n < npts; ++n) tmp2[n] = C(0);
        for (int k = 0; k < np; ++k)
            for (int mm = 0; mm < np; ++mm) {
                const std::size_t src = (static_cast<std::size_t>(k) * snp +
                                         static_cast<std::size_t>(mm)) *
                                        snp;
                for (int j = 0; j < np; ++j)
                    axpy_row<C, RW>(tmp2 + (static_cast<std::size_t>(k) * snp +
                                            static_cast<std::size_t>(j)) *
                                               snp,
                                    tmp + src,
                                    floc[static_cast<std::size_t>(j) * snp +
                                         static_cast<std::size_t>(mm)],
                                    np);
            }
        // z: q(k,j,i) = storage( sum_m F[k][m] tmp2(m,j,i) ), per plane.
        for (int k = 0; k < np; ++k) {
            for (std::size_t t = 0; t < plane; ++t) accp[t] = C(0);
            for (int mm = 0; mm < np; ++mm)
                axpy_row<C, W>(accp,
                               tmp2 + static_cast<std::size_t>(mm) * plane,
                               floc[static_cast<std::size_t>(k) * snp +
                                    static_cast<std::size_t>(mm)],
                               static_cast<int>(plane));
            Sto* qk = q + static_cast<std::size_t>(k) * plane;
            for (std::size_t t = 0; t < plane; t += W) {
                const int m = plane - t < static_cast<std::size_t>(W)
                                  ? static_cast<int>(plane - t)
                                  : W;
                const simd::pack<Sto, W> sv =
                    (m == W ? PC::load(accp + t)
                            : PC::load_partial(accp + t, m))
                        .template convert<Sto>();
                if (m == W)
                    sv.store(qk + t);
                else
                    sv.store_partial(qk + t, m);
            }
        }
    }
}

template <typename Sto, typename C, int NP, int W>
void filter_loop(const FilterArgs<Sto, C>& A, const C* floc,
                 const C* floct) {
    const int np = NP != 0 ? NP : A.np;
    const std::size_t npts = static_cast<std::size_t>(np) * np * np;
#pragma omp parallel
    {
        util::ScratchArena& arena = util::tls_arena();
        util::ArenaScope scope(arena);
        C* tmp = arena.alloc<C>(npts);
        C* tmp2 = arena.alloc<C>(npts);
        C* accp = arena.alloc<C>(static_cast<std::size_t>(np) * np);
#pragma omp for schedule(static)
        for (int e = 0; e < A.nelem; ++e)
            filter_element<Sto, C, NP, W>(
                A, floc, floct, static_cast<std::size_t>(e), tmp, tmp2, accp);
    }
}

template <typename Sto, typename C, int W>
void filter_sweep(const FilterArgs<Sto, C>& A) {
    util::ScratchArena& arena = util::tls_arena();
    util::ArenaScope scope(arena);
    const auto snp = static_cast<std::size_t>(A.np);
    C* floc = arena.alloc<C>(snp * snp);
    C* floct = arena.alloc<C>(snp * snp);
    for (int r = 0; r < A.np; ++r)
        for (int c = 0; c < A.np; ++c) {
            floc[static_cast<std::size_t>(r) * snp +
                 static_cast<std::size_t>(c)] =
                static_cast<C>(A.filter[static_cast<std::size_t>(r) * snp +
                                        static_cast<std::size_t>(c)]);
            floct[static_cast<std::size_t>(c) * snp +
                  static_cast<std::size_t>(r)] =
                floc[static_cast<std::size_t>(r) * snp +
                     static_cast<std::size_t>(c)];
        }
    switch (A.np) {
        case 4: filter_loop<Sto, C, 4, W>(A, floc, floct); break;
        case 6: filter_loop<Sto, C, 6, W>(A, floc, floct); break;
        case 8: filter_loop<Sto, C, 8, W>(A, floc, floct); break;
        default: filter_loop<Sto, C, 0, W>(A, floc, floct); break;
    }
}

}  // namespace tp::sem::detail
