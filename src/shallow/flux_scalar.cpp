// The scalar flux sweep and cell update, isolated in their own translation
// unit so the whole file can be compiled with the auto-vectorizer disabled
// (see shallow/CMakeLists.txt). That keeps `--simd=scalar` honest: the
// W == 1 pack instantiations degenerate to plain scalar arithmetic, the
// W == 1 `omp simd` loops carry `if(simd: W > 1)` so the pragma cannot
// re-enable vectorization, and Table III's scalar rows measure true
// one-lane issue. The arithmetic itself is the same detail::flux_sweep and
// detail::apply_update the native path drives over the same iteration
// space (tiles + fallback cell list, level runs) — bit-identical per cell,
// different instruction shape only. The sweep is instantiated at both
// arithmetic types, so a governor-promoted (or -demoted) scalar sweep
// measures one-lane issue too.

#include "fp/half_policy.hpp"
#include "shallow/solver.hpp"

namespace tp::shallow {

template <fp::PrecisionPolicy Policy>
template <typename K>
void ShallowWaterSolver<Policy>::flux_sweep_scalar() {
    detail::flux_sweep<K, 1>(tile_args(), flux_args(), fallback_cells_.data(),
                             fallback_cells_.size());
}

template void
ShallowWaterSolver<fp::MinimumPrecision>::flux_sweep_scalar<float>();
template void
ShallowWaterSolver<fp::MinimumPrecision>::flux_sweep_scalar<double>();
template void
ShallowWaterSolver<fp::MixedPrecision>::flux_sweep_scalar<float>();
template void
ShallowWaterSolver<fp::MixedPrecision>::flux_sweep_scalar<double>();
template void ShallowWaterSolver<fp::FullPrecision>::flux_sweep_scalar<float>();
template void
ShallowWaterSolver<fp::FullPrecision>::flux_sweep_scalar<double>();
template void
ShallowWaterSolver<fp::HalfStoragePrecision>::flux_sweep_scalar<float>();
template void
ShallowWaterSolver<fp::HalfStoragePrecision>::flux_sweep_scalar<double>();

// The apply runs at the sweep's width, so Table III's --simd=scalar
// finite_diff times a scalar update too.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::apply_update_scalar(double dt) {
    detail::apply_update<storage_t, compute_t, 1>(apply_args(dt));
}

template void
ShallowWaterSolver<fp::MinimumPrecision>::apply_update_scalar(double);
template void
ShallowWaterSolver<fp::MixedPrecision>::apply_update_scalar(double);
template void
ShallowWaterSolver<fp::FullPrecision>::apply_update_scalar(double);
template void
ShallowWaterSolver<fp::HalfStoragePrecision>::apply_update_scalar(double);

}  // namespace tp::shallow
