#pragma once
// Order statistics, the regression-bound rule, and the state digest the
// suite uses. Header-only so --self-test checks exactly what the runs use.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perf_suite {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles exactly as Python's statistics.quantiles(values, n=4)
/// (method "exclusive") computes them, so the spreads the suite reports
/// match the ones an external check computes from the same values. A
/// single value is its own three quartiles; empty input gives zeros.
inline std::array<double, 3> quartiles(std::vector<double> v) {
    if (v.empty()) return {0.0, 0.0, 0.0};
    if (v.size() == 1) return {v[0], v[0], v[0]};
    std::sort(v.begin(), v.end());
    const auto ld = static_cast<long long>(v.size());
    const long long m = ld + 1;
    std::array<double, 3> q{};
    for (long long i = 1; i <= 3; ++i) {
        long long j = i * m / 4;
        j = std::clamp(j, 1LL, ld - 1);
        const long long delta = i * m - j * 4;
        q[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
             v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
            4.0;
    }
    return q;
}

/// Interquartile distance as a share of the median (0 when the median is
/// 0 or fewer than two values exist).
inline double rel_spread(const std::vector<double>& v) {
    if (v.size() < 2) return 0.0;
    const auto q = quartiles(v);
    const double med = median(v);
    return med == 0.0 ? 0.0 : (q[2] - q[0]) / std::fabs(med);
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. p in (0, 100].
inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const auto k = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[k - 1];
}

/// Samples strictly above the p-th percentile. A tail percentile is worth
/// reporting only while at least ten samples lie beyond it.
inline std::size_t samples_beyond(const std::vector<double>& v, double p) {
    const double cut = percentile(v, p);
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

/// 64-bit FNV-1a, chained through `h` so several buffers fold into one
/// digest.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                                 std::uint64_t h = kFnvOffset) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}
inline std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvOffset) {
    return fnv1a_bytes(s.data(), s.size(), h);
}

enum class Verdict { Same, Better, Worse, Unresolved };

[[nodiscard]] constexpr const char* verdict_name(Verdict v) {
    switch (v) {
        case Verdict::Same: return "same";
        case Verdict::Better: return "better";
        case Verdict::Worse: return "worse";
        case Verdict::Unresolved: return "unresolved";
    }
    return "?";
}

/// One (workload, metric) comparison of a candidate set of runs against a
/// base set under a relative regression bound. `spread` is the wider of
/// the two sets' interquartile spreads (as a share of the median). A
/// metric whose spread exceeds the bound cannot be called the same; it is
/// unresolved unless every candidate run beats every base run.
inline Verdict judge(const std::vector<double>& base,
                     const std::vector<double>& cand, double spread,
                     double bound, bool higher_is_better) {
    if (base.empty() || cand.empty()) return Verdict::Unresolved;
    const double mb = median(base);
    const double mc = median(cand);
    const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
    const auto [cmin, cmax] = std::minmax_element(cand.begin(), cand.end());
    const bool all_better =
        higher_is_better ? *cmin > *bmax : *cmax < *bmin;
    if (spread > bound) return all_better ? Verdict::Better
                                          : Verdict::Unresolved;
    if (mb == 0.0) return mc == 0.0 ? Verdict::Same : Verdict::Unresolved;
    // Positive = the candidate is worse by that share of the base median.
    const double worse =
        (higher_is_better ? mb - mc : mc - mb) / std::fabs(mb);
    if (worse > bound) return Verdict::Worse;
    if (worse < -bound) return Verdict::Better;
    return Verdict::Same;
}

}  // namespace perf_suite
