#pragma once
// Scoped flush-to-zero: the subnormal mode that separates the paper's two
// compilers in Table IV (DESIGN.md §2).
//
// GCC keeps IEEE subnormals unless -ffast-math links crtfastmath.o; the
// Intel compilers set flush-to-zero (FTZ) and denormals-are-zero (DAZ) in
// MXCSR by default when optimizing. A float kernel whose results underflow
// pays a microcode assist per subnormal result under IEEE rules and none
// under FTZ|DAZ, so one binary gives both compiler rows
// (bench/table4_self_compilers).
//
// MXCSR is per thread and OpenMP reuses its worker threads across parallel
// regions, so the guard sets the bits on every thread of the team the next
// parallel region forks (util::max_threads(); set the team size before
// entering) and restores each thread's own previous MXCSR when it ends.
// Off x86 there is no MXCSR: supported() is false and the constructor
// throws, so nothing can time IEEE arithmetic believing it flushed.

#include <cstdint>

namespace tp::fp {

/// MXCSR flush-to-zero (bit 15) | denormals-are-zero (bit 6).
inline constexpr std::uint32_t kMxcsrFtzDaz = 0x8040;

class FlushToZeroGuard {
public:
    /// True when this build can set FTZ|DAZ (x86 with SSE).
    [[nodiscard]] static bool supported();

    /// Set FTZ|DAZ on the calling thread and every OpenMP worker of the
    /// default team. Throws std::runtime_error when !supported().
    FlushToZeroGuard();
    /// Restore each of those threads' MXCSR from before the guard. Nested
    /// guards restore only when the outermost one ends.
    ~FlushToZeroGuard();

    FlushToZeroGuard(const FlushToZeroGuard&) = delete;
    FlushToZeroGuard& operator=(const FlushToZeroGuard&) = delete;
};

}  // namespace tp::fp
