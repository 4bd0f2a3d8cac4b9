// precision_recommend: the precision-analysis workflow (CRAFT /
// Precimonious family, paper §III.B) that produced CLAMR's mixed
// configuration, run on the solver itself. A short minimum-precision dam
// break runs with shadow profiling on, so every instrumented kernel
// re-executes a strided sample of its work in double (obs/numerics.hpp).
// The report prints, per (kernel, array), how far single precision drifted
// from that reference and the float/double verdict.
//
//   $ ./precision_recommend --steps 40 --threshold 1e-6

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "obs/numerics.hpp"
#include "shallow/solver.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace tp;

int main(int argc, char** argv) {
    util::ArgParser args("precision_recommend",
                         "shadow-execution precision analysis of a "
                         "minimum-precision dam break");
    args.add_int_option("steps", "dam-break steps to sample", "40");
    args.add_double_option("threshold",
                           "max relative error judged float-safe", "1e-6");
    if (!args.parse(argc, argv)) return 1;
    const int steps = args.get_int("steps");
    const double threshold = args.get_double("threshold");

    // 48^2 coarse cells with two refinement levels, so the rezone remap
    // is sampled too.
    const int n = 48;
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, 2};
    shallow::ShallowWaterSolver<fp::MinimumPrecision> solver(cfg);
    solver.initialize_dam_break({});
    obs::set_shadow_profile(true);
    solver.run(steps);
    obs::set_shadow_profile(false);

    util::TextTable t("Shadow-execution report (" + std::to_string(n) +
                      "^2 dam break, " + std::to_string(steps) +
                      " steps, threshold " + util::scientific(threshold, 0) +
                      ")");
    t.set_header({"kernel", "array", "samples", "worst digits",
                  "max rel error", "verdict"});
    for (const auto& [kernel, arrays] : obs::shadow_report())
        for (const auto& [array, s] : arrays) {
            const double digits =
                std::clamp(-std::log10(s.max_rel), 0.0, 17.0);
            t.add_row({kernel, array, std::to_string(s.samples),
                       util::fixed(digits, 1),
                       util::scientific(s.max_rel, 1),
                       s.max_rel <= threshold ? "float is safe"
                                              : "keep double"});
        }
    std::printf("%s\n", t.str().c_str());
    return 0;
}
