// The scalar flux sweeps, isolated in their own translation unit so the
// whole file can be compiled with the auto-vectorizer disabled (see
// shallow/CMakeLists.txt). That keeps `--simd=scalar` honest: the W == 1
// pack instantiations degenerate to plain scalar arithmetic, the W == 1
// `omp simd` loops carry `if(simd: W > 1)` so the pragma cannot re-enable
// vectorization, and Table III's scalar rows measure true one-lane issue.
// The arithmetic itself is the same tile_block<> and flux_block_gather<>
// templates the native sweep drives over the same iteration space (tiles
// + fallback cell list) — bit-identical per cell, different instruction
// shape only.

#include "fp/half_policy.hpp"
#include "shallow/solver.hpp"

namespace tp::shallow {

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::flux_sweep_scalar() {
    const auto targs = tile_args();
    const auto nt = static_cast<std::int64_t>(targs.nblocks);
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nt; ++b)
        detail::tile_block<storage_t, compute_t, 1>(targs, targs.blocks[b]);
    const auto fargs = flux_args();
    const std::int32_t* fb = fallback_cells_.data();
    const auto nf = static_cast<std::int64_t>(fallback_cells_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < nf; ++c)
        detail::flux_block_gather<storage_t, compute_t, 1>(fargs, fb + c,
                                                           1);
}

// Governed twin at the alternate compute precision, same no-autovec
// contract: a governor-promoted (or -demoted) scalar sweep must measure
// true one-lane issue exactly like the static scalar baseline does.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::flux_sweep_alt_scalar() {
    const auto targs = tile_args_alt();
    const auto nt = static_cast<std::int64_t>(targs.nblocks);
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nt; ++b)
        detail::tile_block<storage_t, alt_compute_t, 1>(targs,
                                                        targs.blocks[b]);
    const auto fargs = flux_args_alt();
    const std::int32_t* fb = fallback_cells_.data();
    const auto nf = static_cast<std::int64_t>(fallback_cells_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < nf; ++c)
        detail::flux_block_gather<storage_t, alt_compute_t, 1>(fargs,
                                                               fb + c, 1);
}

template void ShallowWaterSolver<fp::MinimumPrecision>::flux_sweep_scalar();
template void ShallowWaterSolver<fp::MixedPrecision>::flux_sweep_scalar();
template void ShallowWaterSolver<fp::FullPrecision>::flux_sweep_scalar();
template void
ShallowWaterSolver<fp::HalfStoragePrecision>::flux_sweep_scalar();

template void
ShallowWaterSolver<fp::MinimumPrecision>::flux_sweep_alt_scalar();
template void
ShallowWaterSolver<fp::MixedPrecision>::flux_sweep_alt_scalar();
template void ShallowWaterSolver<fp::FullPrecision>::flux_sweep_alt_scalar();
template void
ShallowWaterSolver<fp::HalfStoragePrecision>::flux_sweep_alt_scalar();

}  // namespace tp::shallow
