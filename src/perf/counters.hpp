#pragma once
// Per-kernel operation and traffic accounting.
//
// Each solver kernel records, alongside its measured wall time, an
// analytical count of floating-point operations executed (split by the
// precision they were carried out in) and bytes moved through the state
// arrays. The hw::PerfProjector re-costs these counts on any architecture
// spec (roofline), which is how this repo reproduces the paper's
// multi-architecture tables on a single host.

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

namespace tp::perf {

/// Whether moving a value between types A and B is a conversion that
/// KernelWork::convert_ops charges: the types differ and one is double.
/// Only float<->double staging rides the GPU DP pipe; half<->float
/// conversions are cheap (F16C-class) and are not charged.
template <typename A, typename B>
inline constexpr bool charged_conversion =
    !std::is_same_v<A, B> &&
    (std::is_same_v<A, double> || std::is_same_v<B, double>);

/// Accumulated work for one named kernel.
struct KernelWork {
    double seconds = 0.0;          ///< measured host wall time
    std::uint64_t flops_sp = 0;    ///< ops executed in single precision
    std::uint64_t flops_dp = 0;    ///< ops executed in double precision
    std::uint64_t convert_ops = 0; ///< float<->double conversions (mixed
                                   ///< precision stages state through these;
                                   ///< on Kepler-class GPUs they occupy the
                                   ///< DP pipe, which is why the paper sees
                                   ///< mixed ~= full runtime on GPUs)
    std::uint64_t bytes = 0;       ///< storage-precision state bytes moved
    std::uint64_t bytes_compute = 0;  ///< compute-precision temporary-array
                                      ///< traffic (increment buffers, flux
                                      ///< scratch). Large caches absorb most
                                      ///< of it; GPU-class memory systems
                                      ///< stream it — the projector weighs
                                      ///< it per architecture.
    std::uint64_t invocations = 0;
    std::uint32_t threads = 1;     ///< largest thread-team size the kernel
                                   ///< ran with (1 = serial). Wall time is
                                   ///< measured once per kernel on the
                                   ///< calling thread, so `seconds` is
                                   ///< elapsed time, not CPU time.
    std::uint32_t simd_lanes = 0;  ///< SIMD width the kernel's inner loop
                                   ///< actually ran with: 0 = not reported
                                   ///< (the projector falls back to its
                                   ///< global vectorized/scalar option),
                                   ///< 1 = explicit scalar path, >1 = pack
                                   ///< width of the vector path. Fed by the
                                   ///< solvers' kernel dispatch.

    [[nodiscard]] std::uint64_t flops() const { return flops_sp + flops_dp; }

    /// FLOPs per byte of memory traffic — decides whether a kernel sits on
    /// the compute roof or the bandwidth roof.
    [[nodiscard]] double arithmetic_intensity() const {
        const std::uint64_t b = bytes + bytes_compute;
        return b == 0
                   ? 0.0
                   : static_cast<double>(flops()) / static_cast<double>(b);
    }

    [[nodiscard]] double measured_gflops() const {
        return seconds > 0.0
                   ? static_cast<double>(flops()) / seconds * 1e-9
                   : 0.0;
    }

    KernelWork& operator+=(const KernelWork& o) {
        seconds += o.seconds;
        flops_sp += o.flops_sp;
        flops_dp += o.flops_dp;
        convert_ops += o.convert_ops;
        bytes += o.bytes;
        bytes_compute += o.bytes_compute;
        invocations += o.invocations;
        threads = threads > o.threads ? threads : o.threads;
        simd_lanes = simd_lanes > o.simd_lanes ? simd_lanes : o.simd_lanes;
        return *this;
    }
};

/// Registry of kernels for one solver run. Owned per solver instance;
/// intentionally not a global singleton so concurrent runs can't interleave
/// their accounting.
///
/// Threading contract: every parallel kernel times its whole fork-join
/// region once (wall clock, on the calling thread) and issues a single
/// record() after the join, passing the team size it ran with. Worker
/// threads never call record().
class WorkLedger {
public:
    void record(const std::string& kernel, double seconds,
                std::uint64_t flops_sp, std::uint64_t flops_dp,
                std::uint64_t bytes, std::uint64_t convert_ops = 0,
                std::uint64_t bytes_compute = 0,
                std::uint32_t threads = 1, std::uint32_t simd_lanes = 0) {
        auto& w = kernels_[kernel];
        w.seconds += seconds;
        w.flops_sp += flops_sp;
        w.flops_dp += flops_dp;
        w.convert_ops += convert_ops;
        w.bytes += bytes;
        w.bytes_compute += bytes_compute;
        ++w.invocations;
        w.threads = w.threads > threads ? w.threads : threads;
        w.simd_lanes =
            w.simd_lanes > simd_lanes ? w.simd_lanes : simd_lanes;
    }

    [[nodiscard]] const KernelWork* find(const std::string& kernel) const {
        auto it = kernels_.find(kernel);
        return it == kernels_.end() ? nullptr : &it->second;
    }

    [[nodiscard]] const std::map<std::string, KernelWork>& kernels() const {
        return kernels_;
    }

    /// Sum over all kernels.
    [[nodiscard]] KernelWork total() const {
        KernelWork t;
        for (const auto& [name, w] : kernels_) t += w;
        return t;
    }

    /// Sum over kernels whose name starts with `prefix` — e.g.
    /// total_matching("rezone_") aggregates the per-phase rezone entries
    /// (flags/adapt/remap/cache) the solver records.
    [[nodiscard]] KernelWork total_matching(const std::string& prefix) const {
        KernelWork t;
        for (const auto& [name, w] : kernels_)
            if (name.rfind(prefix, 0) == 0) t += w;
        return t;
    }

    void clear() { kernels_.clear(); }

private:
    std::map<std::string, KernelWork> kernels_;
};

}  // namespace tp::perf
