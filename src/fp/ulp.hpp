#pragma once
// ULP (unit-in-the-last-place) distance utilities, used by the tests to make
// "bitwise-close" assertions and by the analysis module to report how many
// representable values separate two solutions.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace tp::fp {

namespace detail {

/// Map a float's bit pattern onto a monotonically ordered signed integer
/// line, so that ulp distance is plain integer subtraction.
inline std::int64_t ordered_bits(float f) {
    const auto u = std::bit_cast<std::int32_t>(f);
    return u >= 0 ? u : std::int64_t{std::numeric_limits<std::int32_t>::min()} - u;
}

inline std::int64_t ordered_bits(double d) {
    const auto u = std::bit_cast<std::int64_t>(d);
    // For negative values, reflect: min() - u keeps ordering monotone and
    // cannot overflow because |u| <= 2^63 - 1 for non-NaN patterns.
    return u >= 0 ? u : std::numeric_limits<std::int64_t>::min() - u;
}

}  // namespace detail

/// Number of representable values strictly between a and b (0 when equal).
/// NaNs yield the maximum distance. Works for float and double.
template <typename T>
[[nodiscard]] std::uint64_t ulp_distance(T a, T b) {
    static_assert(std::is_floating_point_v<T>);
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<std::uint64_t>::max();
    const std::int64_t ia = detail::ordered_bits(a);
    const std::int64_t ib = detail::ordered_bits(b);
    return ia >= ib ? static_cast<std::uint64_t>(ia) - static_cast<std::uint64_t>(ib)
                    : static_cast<std::uint64_t>(ib) - static_cast<std::uint64_t>(ia);
}

/// True when a and b are within `max_ulps` representable values.
template <typename T>
[[nodiscard]] bool almost_equal_ulps(T a, T b, std::uint64_t max_ulps) {
    return ulp_distance(a, b) <= max_ulps;
}

/// The size of one ulp at the magnitude of x.
template <typename T>
[[nodiscard]] T ulp_at(T x) {
    const T next = std::nextafter(std::fabs(x), std::numeric_limits<T>::infinity());
    return next - std::fabs(x);
}

/// ULP drift of a value against a higher-precision shadow reference,
/// measured in the *output* precision T: the reference is rounded to T
/// first, so a kernel whose double re-execution rounds to the same T
/// value reports 0 even though the infinite-precision results differ.
/// This is the metric the shadow-divergence profiler (obs/numerics.hpp)
/// records per kernel.
template <typename T>
[[nodiscard]] std::uint64_t ulp_distance_vs_ref(T test, double ref) {
    return ulp_distance(test, static_cast<T>(ref));
}

/// Relative error of `test` against `ref`. Zero reference: exact match
/// is 0, anything else is +inf (there is no meaningful scale). NaN on
/// either side is +inf as well, so it lands in the worst histogram
/// bucket instead of poisoning accumulators.
[[nodiscard]] inline double relative_error(double test, double ref) {
    if (std::isnan(test) || std::isnan(ref))
        return std::numeric_limits<double>::infinity();
    const double scale = std::fabs(ref);
    if (scale == 0.0)
        return test == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    return std::fabs(test - ref) / scale;
}

// Log-bucketed relative-error histogram layout of the numerics telemetry
// records (obs/numerics.hpp): bucket 0 holds rel <= 10^kRelHistLowExp
// (including exact matches), bucket i holds [10^(lo+i-1), 10^(lo+i)), and
// the top bucket absorbs everything from 10^(lo+kRelHistBuckets-2) up to
// +inf.
inline constexpr int kRelHistBuckets = 12;
inline constexpr int kRelHistLowExp = -16;

[[nodiscard]] inline int rel_error_bucket(double rel) {
    if (std::isnan(rel) || std::isinf(rel)) return kRelHistBuckets - 1;
    if (rel <= 0.0) return 0;
    const int e = static_cast<int>(std::floor(std::log10(rel)));
    const int idx = e - kRelHistLowExp + 1;
    if (idx < 0) return 0;
    return idx >= kRelHistBuckets ? kRelHistBuckets - 1 : idx;
}

}  // namespace tp::fp
