#pragma once
// Numerical telemetry: per-kernel shadow-divergence profiling.
//
// Under --shadow-profile, every instrumented kernel (CLAMR cfl /
// flux_sweep / apply_update / rezone remap; SEM cfl / rhs / rk_stage /
// filter) re-executes a strided sample of its work in double precision
// and records how far the production result drifted from that reference
// — the practical shadow-execution recipe RAPTOR demonstrated for HPC
// codes, wired into this repo's flight recorder so numerical and
// performance telemetry land in one JSONL stream.
//
// Divergence is measured in the kernel's *output* precision: the double
// reference is rounded to the kernel's storage/compute scalar before the
// ULP distance is taken (fp::ulp_distance_vs_ref), so a full-precision
// policy whose reference replicates the operation order reports zero
// drift, and a reduced-precision policy reports exactly the information
// the cast threw away. Each (kernel, array) pair accumulates:
//   * samples / exact (ulp == 0) counts,
//   * max/mean ULP drift,
//   * max/mean relative error plus a log-bucketed histogram
//     (fp::kRelHistBuckets decades from fp::kRelHistLowExp),
//   * a cumulative error budget: sum |test - ref| and max |ref|, which
//     attributes absolute error mass to the array that created it.
//
// Cost contract (same as obs/trace.hpp spans): when --shadow-profile is
// off every hook is one relaxed atomic load; when on, hooks accumulate
// into stack-local DivergenceStats and merge under a mutex into a
// process-global registry that is alloc-free after the first merge per
// (kernel, array). The registry flushes as {"type":"numerics"} records
// through the metrics stream at finish_observability().

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "fp/ulp.hpp"

namespace tp::obs {

namespace detail {
extern std::atomic<bool> g_shadow_profile_enabled;
extern std::atomic<std::uint32_t> g_shadow_stride;
}  // namespace detail

/// True when --shadow-profile is on. One relaxed load — this is the only
/// cost an instrumented kernel pays when profiling is off.
[[nodiscard]] inline bool shadow_profile_enabled() {
    return detail::g_shadow_profile_enabled.load(std::memory_order_relaxed);
}

void set_shadow_profile(bool on);

/// Sampling stride: hooks shadow every stride-th work unit (cell, node,
/// element). 1 = everything, 16 = the default 1/16 sampling.
[[nodiscard]] inline std::uint32_t shadow_sample_stride() {
    return detail::g_shadow_stride.load(std::memory_order_relaxed);
}

/// Set the stride; values < 1 clamp to 1.
void set_shadow_sample_stride(std::uint32_t stride);

/// Restrict profiling to a comma-separated kernel list ("clamr.cfl,
/// sem.rhs"); empty = all kernels. Unknown names are accepted (they just
/// never match) so the filter composes across binaries.
void set_shadow_kernel_filter(const std::string& csv);

/// True when `kernel` passes the filter (always true when the filter is
/// empty). Callers gate on shadow_profile_enabled() first.
[[nodiscard]] bool shadow_kernel_enabled(std::string_view kernel);

/// The standard hook gate: profiling on AND this kernel selected.
[[nodiscard]] inline bool shadow_kernel_active(std::string_view kernel) {
    return shadow_profile_enabled() && shadow_kernel_enabled(kernel);
}

/// Accumulated divergence of one (kernel, array) pair. observe() is the
/// only way samples enter; merge() folds a stack-local accumulator into
/// the registry copy.
struct DivergenceStats {
    std::uint64_t samples = 0;
    std::uint64_t exact = 0;  ///< samples with 0 ULP drift
    std::uint64_t max_ulp = 0;
    double sum_ulp = 0.0;
    double max_rel = 0.0;
    double sum_rel = 0.0;
    double sum_abs_err = 0.0;  ///< cumulative |test - ref| (error budget)
    double max_abs_ref = 0.0;
    std::array<std::uint64_t, fp::kRelHistBuckets> rel_hist{};

    /// Record one production value against its double shadow reference.
    /// T is the kernel's output scalar; the ULP distance is taken in T.
    /// A non-builtin scalar (fp::Half) is measured on the float lattice
    /// after rounding the reference to T — zero iff the rounded values
    /// match, monotone in the drift, which is what the telemetry needs
    /// even if the unit is float ULPs rather than T ULPs.
    template <typename T>
    void observe(T test, double ref) {
        ++samples;
        std::uint64_t ulp;
        if constexpr (std::is_floating_point_v<T>) {
            ulp = fp::ulp_distance_vs_ref(test, ref);
        } else {
            const auto t =
                static_cast<float>(static_cast<double>(test));
            const auto r = static_cast<float>(
                static_cast<double>(static_cast<T>(ref)));
            ulp = fp::ulp_distance(t, r);
        }
        if (ulp == 0) ++exact;
        if (ulp > max_ulp) max_ulp = ulp;
        sum_ulp += static_cast<double>(ulp);
        const double t = static_cast<double>(test);
        const double rel = fp::relative_error(t, ref);
        if (!(rel <= max_rel)) max_rel = rel;  // also promotes inf
        if (std::isfinite(rel)) sum_rel += rel;
        const double abs_err = std::fabs(t - ref);
        if (std::isfinite(abs_err)) sum_abs_err += abs_err;
        const double ar = std::fabs(ref);
        if (ar > max_abs_ref) max_abs_ref = ar;
        ++rel_hist[static_cast<std::size_t>(fp::rel_error_bucket(rel))];
    }

    /// Fold another accumulator in. Inline (like observe) so consumers
    /// that only aggregate stats — fp's precision governor — need no link
    /// dependency on the registry machinery in numerics.cpp.
    void merge(const DivergenceStats& o) {
        samples += o.samples;
        exact += o.exact;
        max_ulp = o.max_ulp > max_ulp ? o.max_ulp : max_ulp;
        sum_ulp += o.sum_ulp;
        if (!(o.max_rel <= max_rel)) max_rel = o.max_rel;
        sum_rel += o.sum_rel;
        sum_abs_err += o.sum_abs_err;
        max_abs_ref =
            o.max_abs_ref > max_abs_ref ? o.max_abs_ref : max_abs_ref;
        for (std::size_t b = 0; b < rel_hist.size(); ++b)
            rel_hist[b] += o.rel_hist[b];
    }

    [[nodiscard]] double mean_ulp() const {
        return samples == 0 ? 0.0 : sum_ulp / static_cast<double>(samples);
    }
    [[nodiscard]] double mean_rel() const {
        return samples == 0 ? 0.0 : sum_rel / static_cast<double>(samples);
    }
};

/// Fold a hook's local accumulator into the global registry under
/// (kernel, array). No-op when `s.samples == 0`. Alloc-free after the
/// first merge for a given pair (heterogeneous string_view lookup).
void shadow_merge(std::string_view kernel, std::string_view array,
                  const DivergenceStats& s);

/// Snapshot of the registry: kernel -> array -> stats.
[[nodiscard]] std::map<std::string, std::map<std::string, DivergenceStats>>
shadow_report();

/// Drop all accumulated divergence (tests, or between runs in-process).
void shadow_reset();

/// Write one {"type":"numerics"} record per (kernel, array) to the
/// metrics stream. No-op when the stream is closed; safe to call with
/// nothing accumulated.
void shadow_flush_to_metrics();

/// Build the {"type":"numerics"} record for one (kernel, array) pair —
/// exposed so tests can round-trip the exact production schema.
[[nodiscard]] std::string numerics_record_json(const std::string& kernel,
                                               const std::string& array,
                                               const DivergenceStats& s);

}  // namespace tp::obs
