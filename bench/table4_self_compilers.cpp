// Table IV — "Nonvectorized SELF consumes less runtime for double
// precision than for single precision with GNU compiler". The paper's GNU
// 4.9.3 and Intel 17.0 binaries differ in their subnormal mode: GCC keeps
// IEEE subnormals, and the Intel compilers set flush-to-zero and
// denormals-are-zero when optimizing. The bubble's float results underflow
// far sooner than its double ones, and each subnormal result costs a
// microcode assist under IEEE rules. So the same native kernels are timed
// four times: the GNU row under IEEE, the Intel row inside
// fp::FlushToZeroGuard (DESIGN.md section 2). Times are measured around the
// RK3 loop, where the paper put its CPU_TIME calls. Exits 1 unless both
// paper shapes hold, and when this target cannot flush to zero.

#include <optional>

#include "bench_common.hpp"
#include "fp/fenv.hpp"

using namespace tp;

namespace {

template <typename Policy>
double run_seconds(bool flush, int elems, int order, int steps) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = elems;
    cfg.order = order;
    std::optional<fp::FlushToZeroGuard> guard;
    if (flush) guard.emplace();
    sem::SpectralEulerSolver<Policy> s(cfg);
    s.initialize_thermal_bubble({});
    util::WallTimer t;
    s.run(steps);
    return t.elapsed_seconds();
}

}  // namespace

int main() {
    const int elems = 5, order = 7, steps = 12;
    bench::print_scale_note(
        "SELF thermal bubble, " + std::to_string(elems) + "^3 elements, "
        "order " + std::to_string(order) + ", " + std::to_string(steps) +
        " RK3 steps, measured on this host (paper: 20^3 elements, 100 "
        "steps, GNU 4.9.3 vs Intel 17.0)");

    const double gnu_single =
        run_seconds<fp::MinimumPrecision>(false, elems, order, steps);
    const double gnu_double =
        run_seconds<fp::FullPrecision>(false, elems, order, steps);
    const bool flush = fp::FlushToZeroGuard::supported();
    double intel_single = 0.0, intel_double = 0.0;
    if (flush) {
        intel_single =
            run_seconds<fp::MinimumPrecision>(true, elems, order, steps);
        intel_double =
            run_seconds<fp::FullPrecision>(true, elems, order, steps);
    }

    util::TextTable t(
        "TABLE IV: non-vectorized SELF runtime by compiler subnormal mode "
        "(s)");
    t.set_header({"", "Single Precision", "Double Precision"});
    t.add_row({"GNU (IEEE subnormals)", util::fixed(gnu_single, 3),
               util::fixed(gnu_double, 3)});
    if (flush)
        t.add_row({"Intel (FTZ|DAZ)", util::fixed(intel_single, 3),
                   util::fixed(intel_double, 3)});
    else
        t.add_row({"Intel (FTZ|DAZ)", "unsupported", "unsupported"});
    t.print();

    const bool gnu_shape = gnu_single > gnu_double;
    const bool intel_shape = flush && intel_single < intel_double;
    std::printf(
        "Paper shape check: GNU single (%.3f) SLOWER than double (%.3f): "
        "%s\n",
        gnu_single, gnu_double, gnu_shape ? "yes" : "NO");
    if (flush)
        std::printf(
            "                   Intel single (%.3f) faster than double "
            "(%.3f): %s\n",
            intel_single, intel_double, intel_shape ? "yes" : "NO");
    else
        std::printf(
            "                   Intel single faster than double: NO "
            "(this target cannot flush subnormals to zero)\n");
    return gnu_shape && intel_shape ? 0 : 1;
}
