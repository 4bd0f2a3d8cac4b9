// Scalar (W = 1) bodies of the SEM fused tensor-product micro-kernels.
//
// This translation unit is compiled with the auto-vectorizer disabled (see
// sem/CMakeLists.txt), so the --simd=scalar path really issues scalar
// instructions — it is the honest baseline for bench/table_simd_speedup and
// the Table 3 vectorization-sensitivity rows, not a vectorized build
// wearing a "scalar" label. The pack<S, 1> instantiations used here share
// every line of kernel code with the native-width instantiations in
// dgsem.cpp, and both accumulate each output element in the same fixed
// m-ascending order, which is what makes the two paths bit-identical
// (verified by tests/test_simd.cpp).
//
// dgsem.cpp declares these members but never defines them, so the explicit
// class instantiations there do not emit bodies for them; the explicit
// member instantiations below are the only definitions in the program.

#include "sem/dgsem.hpp"
#include "sem/tensor_kernel.hpp"

namespace tp::sem {

template <fp::PrecisionPolicy Policy>
template <typename S>
void SpectralEulerSolver<Policy>::volume_sweep_scalar() {
    detail::volume_sweep<S, storage_t, compute_t, 1>(volume_args());
}

template <fp::PrecisionPolicy Policy>
template <typename S>
void SpectralEulerSolver<Policy>::gradient_sweep_scalar() {
    detail::gradient_sweep<S, storage_t, compute_t, 1>(gradient_args());
}

template <fp::PrecisionPolicy Policy>
void SpectralEulerSolver<Policy>::filter_sweep_scalar() {
    detail::filter_sweep<storage_t, compute_t, 1>(filter_args());
}

// One instantiation per (policy, kernel scalar) pair the dispatchers can
// reach: compute_t always, plus the opposite builtin scalar for the
// runtime precision governor's promoted/demoted volume sweep
// (fp/governor.hpp; the governed path is inviscid-only, so the gradient
// sweep needs no extra instantiations).
template void SpectralEulerSolver<fp::MinimumPrecision>::
    volume_sweep_scalar<float>();
template void SpectralEulerSolver<fp::MinimumPrecision>::
    volume_sweep_scalar<double>();
template void SpectralEulerSolver<fp::MixedPrecision>::
    volume_sweep_scalar<double>();
template void SpectralEulerSolver<fp::MixedPrecision>::
    volume_sweep_scalar<float>();
template void SpectralEulerSolver<fp::FullPrecision>::
    volume_sweep_scalar<double>();
template void SpectralEulerSolver<fp::FullPrecision>::
    volume_sweep_scalar<float>();

template void SpectralEulerSolver<fp::MinimumPrecision>::
    gradient_sweep_scalar<float>();
template void SpectralEulerSolver<fp::MixedPrecision>::
    gradient_sweep_scalar<double>();
template void SpectralEulerSolver<fp::FullPrecision>::
    gradient_sweep_scalar<double>();

template void SpectralEulerSolver<fp::MinimumPrecision>::filter_sweep_scalar();
template void SpectralEulerSolver<fp::MixedPrecision>::filter_sweep_scalar();
template void SpectralEulerSolver<fp::FullPrecision>::filter_sweep_scalar();

}  // namespace tp::sem
