// Rezone-pipeline scaling study: the dam break's incremental dirty-span
// rezone across grid sizes, rezone intervals, and thread counts.
//
// Reports per-phase rezone time (flags/adapt/remap/cache) and the rezone
// share of total step time. Informational only: the rezone's bits are
// pinned by the checkpoint digests in tests/golden/.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/threads.hpp"

using namespace tp;

namespace {

struct Sample {
    double rezone = 0.0;
    double flags = 0.0;
    double adapt = 0.0;
    double remap = 0.0;
    double cache = 0.0;
    double step_total = 0.0;
    std::size_t cells = 0;
};

template <typename P>
Sample run_one(int n, int levels, int steps, int interval, int threads) {
    util::set_threads(threads);
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    cfg.rezone_interval = interval;
    shallow::ShallowWaterSolver<P> s(cfg);
    s.initialize_dam_break({});
    util::WallTimer t;
    s.run(steps);
    Sample out;
    out.step_total = t.elapsed_seconds();
    out.rezone = s.timers().total("rezone");
    out.flags = s.timers().total("rezone_flags");
    out.adapt = s.timers().total("rezone_adapt");
    out.remap = s.timers().total("rezone_remap");
    out.cache = s.timers().total("rezone_cache");
    out.cells = s.mesh().num_cells();
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args(
        "table_rezone_scaling",
        "Incremental rezone pipeline across cells/threads/interval");
    args.add_option("grids", "comma-separated coarse cells per side",
                    "24,48");
    args.add_option("levels", "max AMR refinement levels", "4");
    args.add_option("steps", "time steps per run", "40");
    args.add_option("intervals", "comma-separated rezone intervals", "2,4");
    args.add_option("max-threads",
                    "largest team size (0 = hardware threads)", "0");
    args.add_flag("quick", "CI smoke mode: one small cell, few steps");
    if (!args.parse(argc, argv)) return 1;

    auto parse_list = [](const std::string& csv) {
        std::vector<int> out;
        std::stringstream ss(csv);
        for (std::string tok; std::getline(ss, tok, ',');)
            out.push_back(std::stoi(tok));
        return out;
    };
    std::vector<int> grids = parse_list(args.get_string("grids"));
    std::vector<int> intervals = parse_list(args.get_string("intervals"));
    int levels = args.get_int("levels");
    int steps = args.get_int("steps");
    int tmax = args.get_int("max-threads");
    if (tmax <= 0) tmax = util::hardware_threads();
    if (args.get_flag("quick")) {
        grids = {16};
        intervals = {2};
        levels = 3;
        steps = 16;
        tmax = 1;
    }
    std::vector<int> teams{1};
    for (int t = 2; t <= tmax; t *= 2) teams.push_back(t);

    bench::print_scale_note(
        "CLAMR dam break rezone pipeline, levels=" + std::to_string(levels) +
        ", steps=" + std::to_string(steps));

    util::TextTable table("Rezone pipeline: incremental dirty-span update");
    table.set_header({"Grid", "Intv", "Thr", "Cells", "Rezone (s)",
                      "flags/adapt/remap/cache", "Rez% step"});
    for (const int n : grids) {
        for (const int interval : intervals) {
            for (const int t : teams) {
                const Sample r = run_one<fp::FullPrecision>(
                    n, levels, steps, interval, t);
                char phases[64];
                std::snprintf(phases, sizeof(phases),
                              "%.4f/%.4f/%.4f/%.4f", r.flags, r.adapt,
                              r.remap, r.cache);
                table.add_row(
                    {std::to_string(n), std::to_string(interval),
                     std::to_string(t), std::to_string(r.cells),
                     util::fixed(r.rezone, 4), phases,
                     util::fixed(100.0 * r.rezone / r.step_total, 1)});
            }
        }
    }
    util::set_threads(0);  // restore the runtime default

    table.print();
    return 0;
}
