#include "fp/fenv.hpp"

#include <stdexcept>

#if defined(__SSE__)
#include <xmmintrin.h>
#define TP_HAS_MXCSR 1
#else
#define TP_HAS_MXCSR 0
#endif

namespace tp::fp {

#if TP_HAS_MXCSR

namespace {

// This thread's MXCSR before its outermost guard, and how many guards it
// is inside. Kept per OS thread, so a worker restores its own value
// whichever team slot it fills at exit.
thread_local std::uint32_t t_saved_csr = 0;
thread_local int t_depth = 0;

void enter_thread() {
    if (t_depth++ == 0) {
        t_saved_csr = _mm_getcsr();
        _mm_setcsr(t_saved_csr | kMxcsrFtzDaz);
    }
}

void leave_thread() {
    if (t_depth > 0 && --t_depth == 0) _mm_setcsr(t_saved_csr);
}

}  // namespace

bool FlushToZeroGuard::supported() { return true; }

FlushToZeroGuard::FlushToZeroGuard() {
#pragma omp parallel
    enter_thread();
}

FlushToZeroGuard::~FlushToZeroGuard() {
#pragma omp parallel
    leave_thread();
}

#else

bool FlushToZeroGuard::supported() { return false; }

FlushToZeroGuard::FlushToZeroGuard() {
    throw std::runtime_error(
        "FlushToZeroGuard: this target has no MXCSR flush-to-zero");
}

FlushToZeroGuard::~FlushToZeroGuard() = default;

#endif

}  // namespace tp::fp
