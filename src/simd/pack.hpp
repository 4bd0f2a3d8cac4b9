#pragma once
// Explicit-SIMD abstraction: fixed-width value packs over the storage and
// compute scalar types (DESIGN.md §"SIMD kernel layer").
//
// A pack<T, W> is W lanes of T with elementwise arithmetic. Every
// operation is a fixed-trip `#pragma omp simd` loop over the lanes, which
// GCC/Clang lower to single vector instructions at -O3 (-fopenmp or
// -fopenmp-simd makes the pragma effective in both build flavors). The
// W == 1 instantiation is the scalar fallback: the same template body
// degenerates to plain scalar arithmetic, so the vector and scalar code
// paths of a kernel are one source of truth.
//
// Determinism contract: every lane of every operation is an individually
// rounded IEEE-754 operation (add, sub, mul, div, sqrt, min, max, |x|,
// float<->double conversion are all identical per-lane between the scalar
// and packed instruction forms on every ISA this builds for). Kernel
// translation units are compiled with -ffp-contract=off so the compiler
// cannot fuse a pack multiply with a pack add in one instantiation but not
// another; fused multiply-add is available only on request through
// simd::fma(), which is fused (std::fma) in every instantiation. Together
// these make a kernel templated over W produce bit-identical results for
// every W, which is what lets CLAMR's `--simd=native` runs be verified
// bitwise against `--simd=scalar` (bench/table_simd_speedup,
// tests/test_simd.cpp).
//
// Width selection: native_lanes<T> is the widest hardware width for T on
// the target ISA (detected at compile time), so `float` state gets twice
// the lanes of `double` — the mechanism behind the paper's Table III
// "minimum precision doubles effective SIMD width" argument. Forcing
// TP_SIMD_FORCE_SCALAR (CMake -DTP_ENABLE_SIMD=OFF) pins native_lanes to 1
// so every runtime mode degrades to the scalar fallback, and the SEM and
// distributed kernels, which run only at native width, run at W = 1:
// that build's test_golden checks them against the same digests.

#include <cmath>
#include <concepts>
#include <cstdint>

namespace tp::simd {

/// Widest vector register available to the compiled code, in bytes
/// (0 = no vector unit / SIMD disabled at configure time).
#if defined(TP_SIMD_FORCE_SCALAR)
inline constexpr int kNativeVectorBytes = 0;
#elif defined(__AVX512F__)
inline constexpr int kNativeVectorBytes = 64;
#elif defined(__AVX__)
inline constexpr int kNativeVectorBytes = 32;
#elif defined(__SSE2__) || defined(__ARM_NEON)
inline constexpr int kNativeVectorBytes = 16;
#else
inline constexpr int kNativeVectorBytes = 0;
#endif

/// Human-readable name of the instruction set the packs compile to.
[[nodiscard]] constexpr const char* isa_name() {
#if defined(TP_SIMD_FORCE_SCALAR)
    return "scalar (TP_ENABLE_SIMD=OFF)";
#elif defined(__AVX512F__)
    return "AVX-512";
#elif defined(__AVX2__)
    return "AVX2";
#elif defined(__AVX__)
    return "AVX";
#elif defined(__SSE2__)
    return "SSE2";
#elif defined(__ARM_NEON)
    return "NEON";
#else
    return "scalar";
#endif
}

/// Native lane count for element type T (>= 1; exactly 1 when the target
/// has no vector unit). float gets 2x the lanes of double on every ISA.
template <typename T>
inline constexpr int native_lanes =
    kNativeVectorBytes == 0 ? 1 : kNativeVectorBytes / static_cast<int>(sizeof(T));

/// W lanes of T with elementwise arithmetic. Loads and stores accept
/// unaligned addresses; `*_partial` variants handle the `m < W` tail of a
/// loop by replicating the last valid element into the dead lanes (keeps
/// every lane finite — no masked-lane UB — while store_partial writes only
/// the first m lanes back).
template <typename T, int W>
struct pack {
    static_assert(W >= 1, "pack width must be positive");
    // Zero-initialized by default: every factory overwrites all lanes, so
    // the optimizer drops the dead stores, and GCC's omp-simd lowering
    // stops flagging spurious -Wmaybe-uninitialized on the W == 1 path.
    T v[W] = {};

    static constexpr int width = W;

    [[nodiscard]] static pack broadcast(T x) {
        pack r;
#pragma omp simd
        for (int i = 0; i < W; ++i) r.v[i] = x;
        return r;
    }

    [[nodiscard]] static pack load(const T* p) {
        pack r;
#pragma omp simd
        for (int i = 0; i < W; ++i) r.v[i] = p[i];
        return r;
    }

    /// Load the first m elements; lanes [m, W) replicate p[m - 1].
    [[nodiscard]] static pack load_partial(const T* p, int m) {
        pack r;
        for (int i = 0; i < W; ++i) r.v[i] = p[i < m ? i : m - 1];
        return r;
    }

    [[nodiscard]] static pack gather(const T* base, const std::int32_t* idx) {
        pack r;
#pragma omp simd
        for (int i = 0; i < W; ++i)
            r.v[i] = base[static_cast<std::size_t>(idx[i])];
        return r;
    }

    /// Gather through the first m indices; dead lanes replicate idx[m - 1].
    [[nodiscard]] static pack gather_partial(const T* base,
                                             const std::int32_t* idx, int m) {
        pack r;
        for (int i = 0; i < W; ++i)
            r.v[i] = base[static_cast<std::size_t>(idx[i < m ? i : m - 1])];
        return r;
    }

    void store(T* p) const {
#pragma omp simd
        for (int i = 0; i < W; ++i) p[i] = v[i];
    }

    /// Store only the first m lanes (masked tail).
    void store_partial(T* p, int m) const {
        const int mm = m < W ? m : W;
        // GCC 12 rewrites this loop as memcpy and then loses the mm <= W
        // range when the caller is inlined, flagging an impossible
        // out-of-bounds read of v (false positive; the loop bound is
        // clamped one line up).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif
        for (int i = 0; i < mm; ++i) p[i] = v[i];
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }

    [[nodiscard]] T operator[](int i) const { return v[i]; }

    /// Elementwise conversion to another scalar type (e.g. the storage ->
    /// compute widening of the mixed-precision policy). Each lane is one
    /// IEEE conversion, identical to the scalar static_cast.
    template <typename U>
    [[nodiscard]] pack<U, W> convert() const {
        pack<U, W> r;
#pragma omp simd
        for (int i = 0; i < W; ++i) r.v[i] = static_cast<U>(v[i]);
        return r;
    }
};

#define TP_SIMD_BINOP(op)                                              \
    template <typename T, int W>                                       \
    [[nodiscard]] inline pack<T, W> operator op(const pack<T, W>& a,   \
                                                const pack<T, W>& b) { \
        pack<T, W> r;                                                  \
        _Pragma("omp simd") for (int i = 0; i < W; ++i) r.v[i] =       \
            a.v[i] op b.v[i];                                          \
        return r;                                                      \
    }
TP_SIMD_BINOP(+)
TP_SIMD_BINOP(-)
TP_SIMD_BINOP(*)
TP_SIMD_BINOP(/)
#undef TP_SIMD_BINOP

template <typename T, int W>
[[nodiscard]] inline pack<T, W> operator-(const pack<T, W>& a) {
    pack<T, W> r;
#pragma omp simd
    for (int i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
}

template <typename T, int W>
[[nodiscard]] inline pack<T, W> min(const pack<T, W>& a, const pack<T, W>& b) {
    pack<T, W> r;
#pragma omp simd
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    return r;
}

template <typename T, int W>
[[nodiscard]] inline pack<T, W> max(const pack<T, W>& a, const pack<T, W>& b) {
    pack<T, W> r;
#pragma omp simd
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
}

template <typename T, int W>
[[nodiscard]] inline pack<T, W> abs(const pack<T, W>& a) {
    pack<T, W> r;
#pragma omp simd
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < T(0) ? -a.v[i] : a.v[i];
    return r;
}

template <typename T, int W>
[[nodiscard]] inline pack<T, W> sqrt(const pack<T, W>& a) {
    using std::sqrt;
    pack<T, W> r;
#pragma omp simd
    for (int i = 0; i < W; ++i) r.v[i] = sqrt(a.v[i]);
    return r;
}

/// Fused multiply-add, fused in EVERY instantiation (std::fma lowers to the
/// hardware FMA with -march=native). The only way kernel code gets fusion;
/// plain a * b + c on packs stays unfused (-ffp-contract=off on kernel TUs).
template <typename T, int W>
[[nodiscard]] inline pack<T, W> fma(const pack<T, W>& a, const pack<T, W>& b,
                                    const pack<T, W>& c) {
    using std::fma;
    pack<T, W> r;
#pragma omp simd
    for (int i = 0; i < W; ++i) r.v[i] = fma(a.v[i], b.v[i], c.v[i]);
    return r;
}

/// One-lane forms of max, abs, sqrt and fma: the same per-lane expression
/// on a plain scalar, so a kernel helper written once over T or
/// pack<T, W> computes the same bits at both.
template <std::floating_point T>
[[nodiscard]] inline T max(T a, T b) { return a > b ? a : b; }
template <std::floating_point T>
[[nodiscard]] inline T abs(T a) { return a < T(0) ? -a : a; }
template <std::floating_point T>
[[nodiscard]] inline T sqrt(T a) { return std::sqrt(a); }
template <std::floating_point T>
[[nodiscard]] inline T fma(T a, T b, T c) { return std::fma(a, b, c); }

/// Horizontal reductions, evaluated in lane order so the result is a plain
/// left fold — deterministic and order-stable for tests and tallies.
template <typename T, int W>
[[nodiscard]] inline T reduce_add(const pack<T, W>& a) {
    T acc = a.v[0];
    for (int i = 1; i < W; ++i) acc = acc + a.v[i];
    return acc;
}

template <typename T, int W>
[[nodiscard]] inline T reduce_min(const pack<T, W>& a) {
    T acc = a.v[0];
    for (int i = 1; i < W; ++i) acc = a.v[i] < acc ? a.v[i] : acc;
    return acc;
}

template <typename T, int W>
[[nodiscard]] inline T reduce_max(const pack<T, W>& a) {
    T acc = a.v[0];
    for (int i = 1; i < W; ++i) acc = a.v[i] > acc ? a.v[i] : acc;
    return acc;
}

}  // namespace tp::simd
