#pragma once
// Numerical-health probes: cheap per-kernel checks that catch a reduced-
// precision failure at the step it happens instead of letting it surface
// as silent drift in the final output (the failure mode the OpenFOAM
// precision study documents — arXiv:2209.06105).
//
// Three facilities:
//   * probe_array(kernel, data, n) — scan an array for NaN/Inf and track
//     min/max, accumulated per kernel in a process-global registry and
//     summarized into the metrics stream. Call sites gate on
//     probe_enabled() so a probe costs one relaxed load when --probe is
//     off.
//   * probe_ulp_drift(kernel, test, ref, n) — maximum ULP distance of an
//     array against a shadow reference (fp/ulp.hpp), for harnesses that
//     carry one (e.g. a double-precision twin of a reduced-precision run).
//   * raise_numerical_fault(...) — emit a structured {"type":"diagnostic"}
//     record to the metrics stream (when open) and throw NumericalFault.
//     This is what the solver dt guards call instead of silently stepping
//     on garbage.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "fp/ulp.hpp"

namespace tp::obs {

namespace detail {
extern std::atomic<bool> g_probe_enabled;
}

/// True when --probe sampling is on. One relaxed load.
[[nodiscard]] inline bool probe_enabled() {
    return detail::g_probe_enabled.load(std::memory_order_relaxed);
}

void set_probe_enabled(bool on);

/// Accumulated health statistics for one probed kernel/array.
struct ProbeStats {
    std::uint64_t samples = 0;    ///< values inspected
    std::uint64_t nan_count = 0;
    std::uint64_t inf_count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::uint64_t max_ulp_drift = 0;  ///< vs. shadow ref (ulp probes only)
    std::int64_t first_bad_index = -1;  ///< first NaN/Inf seen, -1 if none

    [[nodiscard]] bool healthy() const {
        return nan_count == 0 && inf_count == 0;
    }

    void merge(const ProbeStats& o);
};

namespace detail {
void record_probe(const std::string& kernel, const ProbeStats& s);
}

/// Scan `data[0..n)` for NaN/Inf and min/max, record the result under
/// `kernel` in the global registry, and return this call's stats. Works
/// for any type explicitly convertible to double (float, double, Half).
/// Callers gate on probe_enabled().
template <typename T>
ProbeStats probe_array(const std::string& kernel, const T* data,
                       std::size_t n) {
    ProbeStats s;
    s.samples = n;
    for (std::size_t i = 0; i < n; ++i) {
        const double v = static_cast<double>(data[i]);
        if (std::isnan(v)) {
            ++s.nan_count;
            if (s.first_bad_index < 0)
                s.first_bad_index = static_cast<std::int64_t>(i);
        } else if (std::isinf(v)) {
            ++s.inf_count;
            if (s.first_bad_index < 0)
                s.first_bad_index = static_cast<std::int64_t>(i);
        } else {
            s.min = v < s.min ? v : s.min;
            s.max = v > s.max ? v : s.max;
        }
    }
    detail::record_probe(kernel, s);
    return s;
}

/// Maximum ULP distance of `test` against a shadow reference computed in
/// `R` (typically double). NaN on either side counts as maximal drift.
template <typename T, typename R>
ProbeStats probe_ulp_drift(const std::string& kernel, const T* test,
                           const R* ref, std::size_t n) {
    ProbeStats s;
    s.samples = n;
    for (std::size_t i = 0; i < n; ++i) {
        const R t = static_cast<R>(test[i]);
        const R r = ref[i];
        const std::uint64_t d = fp::ulp_distance(t, r);
        s.max_ulp_drift = d > s.max_ulp_drift ? d : s.max_ulp_drift;
        const double v = static_cast<double>(t);
        if (std::isnan(v)) {
            ++s.nan_count;
            if (s.first_bad_index < 0)
                s.first_bad_index = static_cast<std::int64_t>(i);
        } else if (std::isinf(v)) {
            ++s.inf_count;
            if (s.first_bad_index < 0)
                s.first_bad_index = static_cast<std::int64_t>(i);
        } else {
            s.min = v < s.min ? v : s.min;
            s.max = v > s.max ? v : s.max;
        }
    }
    detail::record_probe(kernel, s);
    return s;
}

/// Snapshot of the accumulated per-kernel statistics.
[[nodiscard]] std::map<std::string, ProbeStats> probe_report();

/// Drop all accumulated statistics (tests, or between runs in one
/// process).
void probe_reset();

/// Write every accumulated probe as a {"type":"probe"} record to the
/// metrics stream (no-op when the stream is closed).
void probe_flush_to_metrics();

/// A numerical-health fault detected by a guard or probe. Carries the
/// kernel it fired in and the step count, so harnesses can report
/// precisely where a precision policy broke down.
class NumericalFault : public std::runtime_error {
public:
    NumericalFault(std::string kernel, std::int64_t step,
                   const std::string& detail_msg);

    [[nodiscard]] const std::string& kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t step() const { return step_; }

private:
    std::string kernel_;
    std::int64_t step_;
};

/// Emit a structured {"type":"diagnostic"} metrics record (when the
/// stream is open) and throw NumericalFault. The metrics record lands on
/// disk before the throw, so a run killed by the fault still documents
/// exactly what tripped it.
[[noreturn]] void raise_numerical_fault(const std::string& kernel,
                                        std::int64_t step,
                                        const std::string& detail_msg);

}  // namespace tp::obs
