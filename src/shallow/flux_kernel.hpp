#pragma once
// The Rusanov flux sweep as width-templated kernels (internal to the
// shallow-water solvers: the AMR solver's sweep, and the distributed
// solver's row kernels at the end of this file). Every kernel evaluates
// its faces through the three helpers below, so the flux is written once
// for both solvers.
//
// One template body per AMR kernel, instantiated per arithmetic type C
// and width W:
//
//   C                           the type the body computes in: the
//                               policy's compute_t, or on a governed step
//                               the other float type (DESIGN.md §11). The
//                               kernel reads the compute_t width tables
//                               and a double gravity and casts both to C,
//                               and stores each increment into the
//                               compute_t buffers (D) with one cast;
//   W == 1                      the scalar path, driven from a translation
//                               unit compiled with the auto-vectorizer off
//                               (flux_scalar.cpp) so it measures true
//                               scalar issue (Table III's baseline);
//   W == native_lanes<C>        the vector path, lowered to full-width
//                               SIMD by the pack primitives and the
//                               annotated loops (solver.cpp).
//
// Every operation is an individually rounded IEEE op in either shape and
// the kernel TUs are compiled with -ffp-contract=off, so the two widths
// are bit-identical per cell — `--simd` changes instruction shape, never
// the physics.
//
// The AMR sweep is tiled (DESIGN.md §13): the solver groups same-level
// cells into Morton-aligned 8x8 tiles and computes every cell whose four
// sides each touch exactly one same-or-coarser neighbor with the dense
// tile kernel below; the remaining cells (level interfaces, the domain
// edge, sparse tiles) go through flux_block_gather, which reads the
// neighbor-slot tables directly. flux_sweep drives both.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>

#include "mesh/cell.hpp"
#include "simd/pack.hpp"

namespace tp::shallow::detail {

// --------------------------------------------------------------------------
// The Rusanov face flux (DESIGN.md §13), shared by flux_block_gather's eight
// slots, tile_block's four faces and the distributed row kernels. T is the
// arithmetic type C or a simd::pack of it, and the constants arrive as T,
// so one body serves scalars and packs with the same bits. A face is
// oriented along +x or +y with L its lower-coordinate side, so both cells
// sharing it evaluate the identical expression and the scheme stays
// exactly conservative. The helpers are force-inlined: an out-of-line copy
// at a pack type passes its packs through memory and strips the kernels of
// packed arithmetic, and CI fails if a kernel object defines one.

/// A position's face quantities.
template <typename T>
struct FaceQuantities {
    T h, u, v;  // floored height, velocities
    T sx, sy;   // wavespeeds |u| + c and |v| + c, c = sqrt(g h)
};

template <typename T>
[[nodiscard, gnu::always_inline]] inline FaceQuantities<T> face_quantities(
    T h, T hu, T hv, T g, T one, T hfloor) {
    const T hf = simd::max(h, hfloor);
    const T inv = one / hf;
    const T u = hu * inv;
    const T v = hv * inv;
    const T c = simd::sqrt(g * hf);
    return {hf, u, v, simd::abs(u) + c, simd::abs(v) + c};
}

/// One cell's side of a face: the floored height, the momenta normal (qn)
/// and tangential (qt) to the face, and the two momentum fluxes through
/// it. The pressure term of the normal one is fused, the only fusion in
/// the kernels and present identically at every W.
template <typename T>
struct FaceSide {
    T h, qn, qt;
    T p;  // qn un + g/2 h^2 = fma(g/2 h, h, qn un)
    T m;  // qn ut
};

template <typename T>
[[nodiscard, gnu::always_inline]] inline FaceSide<T> face_side(
    T h, T qn, T qt, T un, T ut, T half_g) {
    return {h, qn, qt, simd::fma(half_g * h, h, qn * un), qn * ut};
}

/// The mass, normal-momentum and tangential-momentum fluxes through one
/// face whose wavespeed is s = max(sL, sR):
///   f = ½(fL + fR) − ½ s (qR − qL).
template <typename T>
struct FaceFlux {
    T mass, normal, tangential;
};

template <typename T>
[[nodiscard, gnu::always_inline]] inline FaceFlux<T> face_flux(
    const FaceSide<T>& L, const FaceSide<T>& R, T s, T half) {
    return {half * (L.qn + R.qn) - half * s * (R.h - L.h),
            half * (L.p + R.p) - half * s * (R.qn - L.qn),
            half * (L.m + R.m) - half * s * (R.qt - L.qt)};
}

/// Pointer bundle for one sweep — everything the kernel reads or writes,
/// so the W = 1 and W = native drivers cannot drift apart in what they
/// touch. S is the storage type, D the policy's compute_t: the type of
/// the increments and the width tables at either arithmetic type.
template <typename S, typename D>
struct FluxArgs {
    const S* h;
    const S* hu;
    const S* hv;
    D* dh;
    D* dhu;
    D* dhv;
    const std::int32_t* nbr;  // kSlots slot-major tables of length n
    const mesh::Cell* cells;  // each cell's level picks its face widths
    const D* wx;              // per-level x-face width (cell_dy)
    const D* wy;              // per-level y-face width (cell_dx)
    std::size_t n;
    double gravity;
};

/// Sub-face area of neighbor slot `slot` of cell `c` (at `level`), read off
/// the index planes: 0 when the slot names the cell itself (an empty slot);
/// otherwise the face width one level finer when the side's second slot
/// names another cell (two finer neighbors share the side), and the cell's
/// own face width when it does not (one same-or-coarser neighbor). `width`
/// is the per-level width table of the slot's face direction, filled up to
/// one level past the deepest cell.
template <typename C>
[[nodiscard]] inline C slot_area(const std::int32_t* nbr, std::size_t n,
                                 int slot, std::size_t c, std::int32_t level,
                                 const C* width) {
    const auto self = static_cast<std::int32_t>(c);
    if (nbr[static_cast<std::size_t>(slot) * n + c] == self) return C(0);
    const bool fine = nbr[static_cast<std::size_t>(slot | 1) * n + c] != self;
    return width[level + static_cast<std::int32_t>(fine)];
}

/// A maximal run of consecutive same-level cells (Morton order keeps
/// same-level cells contiguous in practice, so runs are long).
struct LevelRun {
    std::int32_t begin;
    std::int32_t end;  // one past the last cell
    std::int32_t level;
};

// --------------------------------------------------------------------------
// The height store of a conservative update, shared by the AMR apply below
// and the distributed row kernel: the new height h, computed in C, stored
// as S with a floor at 1e-8. It rounds first and floors the rounded value,
//
//   hs = S(h);   store hs < sfloor ? sfloor : hs;   sfloor = S(C(1e-8)),
//
// which stores the bits of S(h < 1e-8 ? 1e-8 : h) for every input, NaN
// included: rounding is monotone and sfloor is nonzero, so a value that
// rounds onto sfloor has sfloor's bits either way. The order is for the
// vectorizer. Under GCC's default -ftrapping-math a narrowing conversion
// may trap, so one evaluated under a condition (the floor-first form)
// keeps the loop scalar ("control flow in loop"), while an unconditional
// conversion followed by a select vectorizes. Half storage keeps the
// floor-first form: Half(1e-8) is +0, so a height that lands at -1e-9
// would store -0 after the round where the floor-first form stores +0.
template <typename S, typename C>
[[nodiscard, gnu::always_inline]] inline S floored_height(C h) {
    if constexpr (std::floating_point<S>) {
        const S hs = static_cast<S>(h);
        const S sfloor = static_cast<S>(C(1e-8));
        return hs < sfloor ? sfloor : hs;
    } else {
        const C hfloor = C(1e-8);
        return static_cast<S>(h < hfloor ? hfloor : h);
    }
}

/// Everything the AMR solver's conservative update touches: the state, the
/// increments of the sweep, the same-level runs and the per-level inverse
/// cell area.
template <typename S, typename C>
struct ApplyArgs {
    S* h;
    S* hu;
    S* hv;
    C* dh;
    C* dhu;
    C* dhv;
    const LevelRun* runs;
    std::size_t nruns;
    const C* inv_area;  // per level
    C dt;
};

/// The AMR solver's conservative update, state += dt / area * increment,
/// over the same-level runs, zeroing the increments for the next sweep.
/// 1/area is a run constant. W only gates the inner loop's `omp simd`;
/// the arithmetic is per cell and identical at every width. Like the
/// sweep, the native form compiles in solver.cpp and the W == 1 form in
/// flux_scalar.cpp, so `--simd=scalar` runs a scalar apply.
template <typename S, typename C, int W>
void apply_update(const ApplyArgs<S, C>& A) {
    static_assert(W >= 1, "width tag must be positive");
    S* const h = A.h;
    S* const hu = A.hu;
    S* const hv = A.hv;
    C* const dh = A.dh;
    C* const dhu = A.dhu;
    C* const dhv = A.dhv;
    const auto nruns = static_cast<std::int64_t>(A.nruns);
#pragma omp parallel for schedule(static)
    for (std::int64_t r = 0; r < nruns; ++r) {
        const LevelRun run = A.runs[r];
        const C s = A.dt * A.inv_area[run.level];
#pragma omp simd if(simd: W > 1)
        for (std::int32_t c = run.begin; c < run.end; ++c) {
            h[c] = floored_height<S>(static_cast<C>(h[c]) + s * dh[c]);
            hu[c] = static_cast<S>(static_cast<C>(hu[c]) + s * dhu[c]);
            hv[c] = static_cast<S>(static_cast<C>(hv[c]) + s * dhv[c]);
            dh[c] = C(0);
            dhu[c] = C(0);
            dhv[c] = C(0);
        }
    }
}

/// Flux update for an arbitrary list of `m` cells (1 <= m <= W): lane l
/// computes cell cells[l]. Every cell evaluates its eight sub-face slots
/// and writes only its own increments — CLAMR's scatter-free,
/// redundant-flux trade. The arithmetic is purely per-lane, so which
/// cells share a pack is irrelevant to the bits; the tiled sweep's
/// fallback cells (scattered singletons at tile seams and level
/// interfaces) ride full-width packs this way. Dead lanes of a partial
/// pack replicate the last valid cell, so every lane computes on real,
/// finite data.
template <typename S, typename C, int W, typename D>
inline void flux_block_gather(const FluxArgs<S, D>& A,
                              const std::int32_t* cells, int m) {
    using cpk = simd::pack<C, W>;
    using spk = simd::pack<S, W>;
    const bool full = m == W;

    const C gravity = static_cast<C>(A.gravity);
    const cpk g = cpk::broadcast(gravity);
    const cpk half = cpk::broadcast(C(0.5));
    const cpk half_g = cpk::broadcast(C(0.5) * gravity);
    const cpk one = cpk::broadcast(C(1));
    const cpk hfloor = cpk::broadcast(C(1e-8));

    const auto load_state = [&](const S* p) {
        const spk s = full ? spk::gather(p, cells)
                           : spk::gather_partial(p, cells, m);
        return s.template convert<C>();
    };
    const cpk hC = load_state(A.h);
    const cpk huC = load_state(A.hu);
    const cpk hvC = load_state(A.hv);
    const FaceQuantities<cpk> qC =
        face_quantities(hC, huC, hvC, g, one, hfloor);
    // Per-lane cell and level (dead lanes replicate the last valid cell,
    // exactly like gather_partial).
    std::size_t lane_cell[W];
    std::int32_t lane_level[W];
    for (int l = 0; l < W; ++l) {
        lane_cell[l] = static_cast<std::size_t>(cells[l < m ? l : m - 1]);
        lane_level[l] = A.cells[lane_cell[l]].level;
    }
    cpk ddh = cpk::broadcast(C(0));
    cpk ddhu = cpk::broadcast(C(0));
    cpk ddhv = cpk::broadcast(C(0));

    const auto side = [&]<int SLOT>() {
        constexpr bool xd = SLOT < 4;          // x-directed face
        constexpr bool pos = (SLOT & 2) != 0;  // cell is on the low side
        const std::size_t off = static_cast<std::size_t>(SLOT) * A.n;
        std::int32_t idx[W];
        C area[W];
        for (int l = 0; l < W; ++l) {
            idx[l] = A.nbr[off + lane_cell[l]];
            area[l] = static_cast<C>(slot_area(A.nbr, A.n, SLOT,
                                               lane_cell[l], lane_level[l],
                                               xd ? A.wx : A.wy));
        }
        const cpk a = cpk::load(area);
        const auto gather_state = [&](const S* p) {
            const spk s = spk::gather(p, idx);
            return s.template convert<C>();
        };
        const cpk hN = gather_state(A.h);
        const cpk huN = gather_state(A.hu);
        const cpk hvN = gather_state(A.hv);
        const FaceQuantities<cpk> qN =
            face_quantities(hN, huN, hvN, g, one, hfloor);
        // hu is the normal momentum of an x face, hv of a y face.
        const auto face_side_of = [&](const FaceQuantities<cpk>& q,
                                      const cpk& hu, const cpk& hv) {
            return xd ? face_side(q.h, hu, hv, q.u, q.v, half_g)
                      : face_side(q.h, hv, hu, q.v, q.u, half_g);
        };
        const FaceSide<cpk> sC = face_side_of(qC, huC, hvC);
        const FaceSide<cpk> sN = face_side_of(qN, huN, hvN);
        const cpk wC = xd ? qC.sx : qC.sy;
        const cpk wN = xd ? qN.sx : qN.sy;
        const FaceFlux<cpk> f =
            pos ? face_flux(sC, sN, simd::max(wC, wN), half)
                : face_flux(sN, sC, simd::max(wN, wC), half);
        // Outward flux leaves the cell on its positive sides.
        const cpk sa = pos ? a : -a;
        ddh = ddh - sa * f.mass;
        ddhu = ddhu - sa * (xd ? f.normal : f.tangential);
        ddhv = ddhv - sa * (xd ? f.tangential : f.normal);
    };
    side.template operator()<0>();
    side.template operator()<1>();
    side.template operator()<2>();
    side.template operator()<3>();
    side.template operator()<4>();
    side.template operator()<5>();
    side.template operator()<6>();
    side.template operator()<7>();
    for (int l = 0; l < m; ++l) {
        const auto cell = static_cast<std::size_t>(cells[l]);
        A.dh[cell] = static_cast<D>(ddh[l]);
        A.dhu[cell] = static_cast<D>(ddhu[l]);
        A.dhv[cell] = static_cast<D>(ddhv[l]);
    }
}

// --------------------------------------------------------------------------
// Dense tile sweep (DESIGN.md §13). The solver derives Morton-aligned 8x8
// same-level tiles from its neighbor-slot tables, each with a one-cell
// ghost ring and a padded per-position source map; the sweep gathers
// storage state through the map into dense tiles, runs a per-position
// PRECOMPUTE pass (one divide + one sqrt per position, the same trade as
// the distributed row kernels below), then a fused four-face update, faces
// accumulated in slot order W, E, S, N.
//
// Bitwise contract with flux_block_gather, per regular cell (each side
// holds exactly one neighbor: in-domain and same-or-coarser level): the
// slot path evaluates exactly one slot per side with the full face width
// as area, L/R resolve to the tile's west/east/south/north positions, and
// skipping the zero-area slots is exact — the accumulators start at +0, a
// zero area times any finite flux is ±0, and +0 - (±0) is +0, so the
// empty slots never change a bit. Both kernels evaluate each face through
// the same helpers, and the precomputed planes hold exactly the values the
// slot path computes freshly on each side of each face. Irregular cells
// are computed by flux_block_gather. W is again only a symbol tag: W == 1
// lives in the no-autovec TU (flux_scalar.cpp), W == native in the
// -ffp-contract=off solver TU where the annotated loops vectorize. The
// loops' `if(simd: W > 1)` clause keeps the W == 1 copies scalar: an
// `omp simd` loop is vectorized even under -fno-tree-vectorize.

inline constexpr int kTileSize = 8;  // a member mask fits one 64-bit word
inline constexpr int kTilePad = kTileSize + 2;  // + one-cell ghost ring
inline constexpr int kTileCells = kTileSize * kTileSize;
inline constexpr int kTilePadCells = kTilePad * kTilePad;

/// Interior tile position (ii, jj) -> index into the padded source map.
[[nodiscard]] constexpr int tile_padded(int ii, int jj) {
    return (jj + 1) * kTilePad + (ii + 1);
}

/// One sweepable tile: its source map plus its level. Regular cells never
/// see a fine sub-face, so every face of the tile has its level's full
/// width: a per-tile broadcast from the sweep's per-level width tables,
/// cast to the sweep's arithmetic type. Bit jj * kTileSize + ii of
/// `regular` names interior position (ii, jj).
struct TileBlock {
    /// kTilePadCells gather map: each member's own index, and at each
    /// position across a member side that holds exactly one neighbor,
    /// that neighbor; -1 everywhere else (never read by a regular cell).
    const std::int32_t* src;
    std::uint64_t regular;  ///< members the dense sweep computes
    std::int32_t level;     ///< every member's level
};

/// The tile sweep's pointer bundle; S and D as in FluxArgs.
template <typename S, typename D>
struct TileSweepArgs {
    const S* h;
    const S* hu;
    const S* hv;
    D* dh;
    D* dhu;
    D* dhv;
    const TileBlock* blocks;
    std::size_t nblocks;
    const D* wx;  // per-level x-face width (cell_dy)
    const D* wy;  // per-level y-face width (cell_dx)
    double gravity;
};

/// Gather, precompute, and sweep one tile; scatter increments for the
/// regular members only (irregular members are someone else's fallback
/// run). ~11 KB of stack scratch per call — no heap, no sharing.
template <typename S, typename C, int W, typename D>
inline void tile_block(const TileSweepArgs<S, D>& A, const TileBlock& B) {
    const C wx = static_cast<C>(A.wx[B.level]);
    const C wy = static_cast<C>(A.wy[B.level]);
    const C g = static_cast<C>(A.gravity);
    const C half = C(0.5);
    const C half_g = C(0.5) * g;
    const C one = C(1);
    const C hfloor = C(1e-8);

    // Gather storage state through the source map. Unmapped positions
    // get a benign finite fill no regular cell ever reads.
    S th[kTilePadCells];
    S thu[kTilePadCells];
    S thv[kTilePadCells];
    for (int p = 0; p < kTilePadCells; ++p) {
        const std::int32_t s = B.src[p];
        if (s >= 0) {
            th[p] = A.h[s];
            thu[p] = A.hu[s];
            thv[p] = A.hv[s];
        } else {
            th[p] = static_cast<S>(1.0);
            thu[p] = static_cast<S>(0.0);
            thv[p] = static_cast<S>(0.0);
        }
    }

    // Per-position face quantities and momentum fluxes, evaluated once
    // instead of freshly on both sides of every face (each evaluation
    // gives the same bits, so this removes work, not rounding steps).
    C hf[kTilePadCells];  // floored height
    C qx[kTilePadCells];  // hu at compute precision
    C qy[kTilePadCells];  // hv at compute precision
    C sx[kTilePadCells];  // |u| + c
    C sy[kTilePadCells];  // |v| + c
    C px[kTilePadCells];  // x-face normal momentum flux
    C py[kTilePadCells];  // y-face normal momentum flux
    C mx[kTilePadCells];  // x-face tangential momentum flux hu v
    C my[kTilePadCells];  // y-face tangential momentum flux hv u
#pragma omp simd if(simd: W > 1)
    for (int p = 0; p < kTilePadCells; ++p) {
        const C hu = static_cast<C>(thu[p]);
        const C hv = static_cast<C>(thv[p]);
        const FaceQuantities<C> q =
            face_quantities(static_cast<C>(th[p]), hu, hv, g, one, hfloor);
        const FaceSide<C> x = face_side(q.h, hu, hv, q.u, q.v, half_g);
        const FaceSide<C> y = face_side(q.h, hv, hu, q.v, q.u, half_g);
        hf[p] = q.h;
        qx[p] = hu;
        qy[p] = hv;
        sx[p] = q.sx;
        sy[p] = q.sy;
        px[p] = x.p;
        py[p] = y.p;
        mx[p] = x.m;
        my[p] = y.m;
    }
    // A position's side of an x or a y face, read back from the planes.
    const auto x_side = [&](int p) {
        return FaceSide<C>{hf[p], qx[p], qy[p], px[p], mx[p]};
    };
    const auto y_side = [&](int p) {
        return FaceSide<C>{hf[p], qy[p], qx[p], py[p], my[p]};
    };

    // Outward face areas in slot order W, E, S, N.
    const C aw = -wx;
    const C ae = wx;
    const C as = -wy;
    const C an = wy;
    C odh[kTileCells];
    C odhu[kTileCells];
    C odhv[kTileCells];
    for (int jj = 0; jj < kTileSize; ++jj) {
        const int r = (jj + 1) * kTilePad + 1;
        const int o = jj * kTileSize;
#pragma omp simd if(simd: W > 1)
        for (int ii = 0; ii < kTileSize; ++ii) {
            const int p = r + ii;
            const int ps = p - kTilePad;
            const int pn = p + kTilePad;
            const FaceFlux<C> fw = face_flux(x_side(p - 1), x_side(p),
                                             simd::max(sx[p - 1], sx[p]),
                                             half);
            const FaceFlux<C> fe = face_flux(x_side(p), x_side(p + 1),
                                             simd::max(sx[p], sx[p + 1]),
                                             half);
            const FaceFlux<C> fs = face_flux(y_side(ps), y_side(p),
                                             simd::max(sy[ps], sy[p]), half);
            const FaceFlux<C> fn = face_flux(y_side(p), y_side(pn),
                                             simd::max(sy[p], sy[pn]), half);
            // y faces swap the momentum rows.
            odh[o + ii] = C(0) - aw * fw.mass - ae * fe.mass -
                          as * fs.mass - an * fn.mass;
            odhu[o + ii] = C(0) - aw * fw.normal - ae * fe.normal -
                           as * fs.tangential - an * fn.tangential;
            odhv[o + ii] = C(0) - aw * fw.tangential - ae * fe.tangential -
                           as * fs.normal - an * fn.normal;
        }
    }

    std::uint64_t m = B.regular;
    while (m != 0) {
        const int k = std::countr_zero(m);
        m &= m - 1;
        const std::int32_t cell =
            B.src[tile_padded(k % kTileSize, k / kTileSize)];
        A.dh[cell] = static_cast<D>(odh[k]);
        A.dhu[cell] = static_cast<D>(odhu[k]);
        A.dhv[cell] = static_cast<D>(odhv[k]);
    }
}

/// The whole flux sweep at arithmetic type C and width W: the dense tiles,
/// then flux_block_gather over the sorted fallback cells, W to a pack.
/// Together they cover every cell exactly once, and each tile or pack
/// writes only its own cells' increments, so both loops thread with no
/// synchronization and the result is identical at any team size.
template <typename C, int W, typename S, typename D>
void flux_sweep(const TileSweepArgs<S, D>& T, const FluxArgs<S, D>& F,
                const std::int32_t* fallback, std::size_t nfallback) {
    const auto nt = static_cast<std::int64_t>(T.nblocks);
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nt; ++b)
        tile_block<S, C, W, D>(T, T.blocks[b]);
    const auto nf = static_cast<std::int64_t>(nfallback);
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < nf; c += W)
        flux_block_gather<S, C, W, D>(
            F, fallback + c,
            static_cast<int>(std::min<std::int64_t>(W, nf - c)));
}

// --------------------------------------------------------------------------
// Uniform-grid row sweep — the distributed solver's kernel
// (par/dist_shallow.*). Unlike the AMR fallback above (whose gathers force
// the explicit pack form), the distributed rows are pure unit-stride, so
// the kernels are written as flat `#pragma omp simd` loops of scalar IEEE
// expressions, like the tile kernel. The only instantiation is
// W == native_lanes<C>, in dist_shallow.cpp (-ffp-contract=off), where the
// vectorizer lowers the annotated loop to full-width SIMD; in a
// -DTP_ENABLE_SIMD=OFF build W is 1 and the `if(simd: W > 1)` clause keeps
// the loops scalar. Every operation is an individually rounded IEEE op in
// either shape, so the result does not depend on W — same contract as
// the pack kernels; Golden.DistGatherHeightDigests pins the bits.
//
// Rows carry one mirror ghost column per side (h copied, hu negated, hv
// copied), so every access in the sweep is unit-stride: the center row
// shifts by ±1 for the x faces and the south/north rows, one row pitch
// away, align at the same column for the y faces. No gathers, no per-cell
// branching.
//
// The step is split into a per-cell PRECOMPUTE pass, which evaluates each
// cell's face_quantities (one divide, one square root) into five planes,
//
//   hf = max(h, 1e-8)   u = hu·(1/hf)  v = hv·(1/hf)  sx = |u|+c  sy = |v|+c
//
// and a fused FLUX + APPLY pass, which builds each face side from those
// planes and the state and evaluates the four faces with face_flux, as the
// tile kernel does.
//
// sx/sy double as the CFL quantities, so the precompute pass folds the row
// maximum of max(sx, sy) as it stores: a max reduction performs no
// rounding, so the fold is order-free, and mirror ghost columns replicate
// an owned cell's h and |momenta|, so folding the full padded row equals
// folding the owned cells. Having dt before any flux work is what lets the
// flux and apply passes fuse: the update row applies the increments in
// registers and writes the NEXT state buffers directly, and because the
// old state is never written mid-step, every stencil load sees exactly
// the old values.

/// One padded row's precompute: the state row in, the five plane rows out.
/// Pointers are positioned at column 0; n covers the full padded width.
template <typename S, typename C>
struct RowPreArgs {
    const S* h;
    const S* hu;
    const S* hv;
    C* hf;
    C* u;
    C* v;
    C* sx;
    C* sy;
    int n;  // padded columns to process (nx + 2)
    C gravity;
};

/// Precompute one padded row; returns the row's max(sx, sy) — the CFL
/// quantity the solver folds into this step's dt before any flux work.
template <typename S, typename C, int W>
inline C dist_pre_row(const RowPreArgs<S, C>& A) {
    static_assert(W >= 1, "width tag must be positive");
    const C g = A.gravity;
    const C one = C(1);
    const C hfloor = C(1e-8);
    C ws = C(0);
#pragma omp simd reduction(max : ws) if(simd: W > 1)
    for (int i = 0; i < A.n; ++i) {
        const FaceQuantities<C> q = face_quantities(
            static_cast<C>(A.h[i]), static_cast<C>(A.hu[i]),
            static_cast<C>(A.hv[i]), g, one, hfloor);
        A.hf[i] = q.h;
        A.u[i] = q.u;
        A.v[i] = q.v;
        A.sx[i] = q.sx;
        A.sy[i] = q.sy;
        ws = simd::max(simd::max(q.sx, q.sy), ws);
    }
    return ws;
}

/// One row of the fused distributed update. The pointers are positioned at
/// column 0 (the west ghost column) of the center row j, of the OLD state
/// and of the precompute planes; the south (j-1) and north (j+1) rows are
/// one pitch before and after. Cells i in [1, nx] are updated into the
/// NEXT state rows h2/hu2/hv2 (never aliasing the old rows).
template <typename S, typename C>
struct RowUpdateArgs {
    const S* h;
    const S* hu;
    const S* hv;
    const C* hf;
    const C* u;
    const C* v;
    const C* sx;
    const C* sy;
    S* h2;
    S* hu2;
    S* hv2;
    int pitch;  // padded row length (nx + 2)
    int nx;     // interior cells in the row
    C dtdx;     // dt / dx and dt / dy, already in compute precision
    C dtdy;
    C gravity;
};

/// Whole-row fused flux + apply sweep: the four faces of each cell through
/// face_flux, then separate x / y increments — the two directions carry
/// different metric factors dt/dx vs dt/dy — which feed the conservative
/// update in registers and write the next-state row directly.
template <typename S, typename C, int W>
inline void dist_update_row(const RowUpdateArgs<S, C>& A) {
    static_assert(W >= 1, "width tag must be positive");
    const C half = C(0.5);
    const C half_g = C(0.5) * A.gravity;
    const C dtdx = A.dtdx;
    const C dtdy = A.dtdy;
    const int pitch = A.pitch;
    // A position's side of an x or a y face: hu is the normal momentum of
    // an x face (index i-1 picks up the mirror ghost at i == 1), hv of a
    // y face.
    const auto x_side = [&](int k) {
        return face_side(A.hf[k], static_cast<C>(A.hu[k]),
                         static_cast<C>(A.hv[k]), A.u[k], A.v[k], half_g);
    };
    const auto y_side = [&](int k) {
        return face_side(A.hf[k], static_cast<C>(A.hv[k]),
                         static_cast<C>(A.hu[k]), A.v[k], A.u[k], half_g);
    };
#pragma omp simd if(simd: W > 1)
    for (int i = 1; i <= A.nx; ++i) {
        const int is = i - pitch;
        const int in = i + pitch;
        const FaceSide<C> cx = x_side(i);
        const FaceSide<C> cy = y_side(i);
        const FaceFlux<C> fw =
            face_flux(x_side(i - 1), cx, simd::max(A.sx[i - 1], A.sx[i]),
                      half);
        const FaceFlux<C> fe =
            face_flux(cx, x_side(i + 1), simd::max(A.sx[i], A.sx[i + 1]),
                      half);
        const FaceFlux<C> fs =
            face_flux(y_side(is), cy, simd::max(A.sy[is], A.sy[i]), half);
        const FaceFlux<C> fn =
            face_flux(cy, y_side(in), simd::max(A.sy[i], A.sy[in]), half);
        // Conservative update, increments in registers: old + dt/dx * (x
        // increment) + dt/dy * (y increment), left-associated, height
        // floored after the storage round (floored_height). The y faces'
        // normal flux is the hv flux and their tangential flux the hu flux.
        const C hNew = static_cast<C>(A.h[i]) + dtdx * (fw.mass - fe.mass) +
                       dtdy * (fs.mass - fn.mass);
        A.h2[i] = floored_height<S>(hNew);
        A.hu2[i] = static_cast<S>(cx.qn + dtdx * (fw.normal - fe.normal) +
                                  dtdy * (fs.tangential - fn.tangential));
        A.hv2[i] = static_cast<S>(cx.qt +
                                  dtdx * (fw.tangential - fe.tangential) +
                                  dtdy * (fs.normal - fn.normal));
    }
}

}  // namespace tp::shallow::detail
