// Block-structured AMR gate: bitwise equivalence + flux-sweep speedup.
//
// Two sections from one binary (DESIGN.md §13):
//   1. Bitwise gate: with --blocks=on the checkpoint after a
//      rezone-heavy run must match the cell path's to the last bit, for
//      every precision policy x SIMD shape x grid. The tile gather, the
//      fused dense bodies, and the flux_block_gather fallback regroup
//      the per-cell lanes — they must never change a bit.
//   2. Flux-sweep speedup on the rezone-heavy deep-AMR dam break: the
//      blocked sweep ("flux_sweep" timer, best-of-two) vs the cell path.
//      The full run enforces the >= 2x acceptance floor on the
//      minimum-precision native row.
//
// `--quick` shrinks the grids for CI; the bitwise gate runs in both
// modes, the speedup floor is only enforced in the full run.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fp/half_policy.hpp"
#include "util/cli.hpp"
#include "util/threads.hpp"

using namespace tp;

namespace {

shallow::Config amr_config(int grid, int levels, simd::Mode mode,
                           bool blocks, int rezone_interval) {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, grid, grid, levels};
    cfg.simd = mode;
    cfg.blocks = blocks;
    cfg.rezone_interval = rezone_interval;
    return cfg;
}

template <typename P>
std::string checkpoint_after(const shallow::Config& cfg, int steps) {
    shallow::ShallowWaterSolver<P> s(cfg);
    s.initialize_dam_break({});
    s.run(steps);
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);
    return std::move(os).str();
}

struct SweepRun {
    double sweep_seconds = 0.0;
    std::size_t tiles = 0;
    std::size_t fallback = 0;
};

template <typename P>
SweepRun run_sweep(int grid, int levels, int steps, simd::Mode mode,
                   bool blocks) {
    shallow::ShallowWaterSolver<P> s(
        amr_config(grid, levels, mode, blocks, /*rezone_interval=*/4));
    s.initialize_dam_break({});
    s.run(steps);
    SweepRun r;
    r.sweep_seconds = s.timers().total("flux_sweep");
    r.tiles = s.tile_blocks().size();
    r.fallback = s.fallback_cells().size();
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("table_block_amr",
                         "blocked AMR flux sweep: bitwise gate vs the "
                         "cell path, plus the sweep speedup floor");
    args.add_int_option("grid", "coarse cells per side for the timing run",
                        "96");
    args.add_int_option("steps", "steps for the timing run", "200");
    args.add_flag("quick", "CI smoke mode: small grids, few steps");
    if (!args.parse(argc, argv)) return 1;
    const bool quick = args.get_flag("quick");
    util::set_threads(1);

    int failures = 0;

    // --- 1. Blocked-vs-cell bitwise gate --------------------------------
    const int bsteps = quick ? 16 : 30;
    const std::vector<int> bgrids = quick ? std::vector<int>{12, 16}
                                          : std::vector<int>{12, 16, 24};
    bench::print_scale_note(
        "blocked-vs-cell checkpoints after " + std::to_string(bsteps) +
        " rezone-heavy steps (rezone every 2), then the deep-AMR sweep "
        "timing");
    util::TextTable t1("Bitwise gate: --blocks=on checkpoint vs cell path "
                       "(policy x simd x grid)");
    t1.set_header({"policy", "combos", "verdict"});
    auto bit_gate = [&]<typename P>(const std::string& label) {
        int combos = 0, bad = 0;
        for (const simd::Mode mode :
             {simd::Mode::Scalar, simd::Mode::Native})
            for (const int grid : bgrids) {
                const int levels = grid <= 16 ? 3 : 2;
                ++combos;
                const auto cell = checkpoint_after<P>(
                    amr_config(grid, levels, mode, false, 2), bsteps);
                const auto blocked = checkpoint_after<P>(
                    amr_config(grid, levels, mode, true, 2), bsteps);
                if (blocked != cell) ++bad;
            }
        failures += bad;
        t1.add_row({label, std::to_string(combos),
                    bad == 0 ? "IDENTICAL"
                             : std::to_string(bad) + " MISMATCH"});
    };
    bit_gate.template operator()<fp::MinimumPrecision>("minimum");
    bit_gate.template operator()<fp::MixedPrecision>("mixed");
    bit_gate.template operator()<fp::FullPrecision>("full");
    bit_gate.template operator()<fp::HalfStoragePrecision>("half");
    t1.print();
    std::printf("\n");

    // --- 2. Flux-sweep speedup on the deep-AMR dam break ----------------
    const int tgrid = quick ? 48 : args.get_int("grid");
    const int tlevels = quick ? 3 : 4;
    const int tsteps = quick ? 40 : args.get_int("steps");
    util::TextTable t2("Flux sweep, cell path vs blocked tiles (" +
                       std::to_string(tgrid) + "^2 coarse, " +
                       std::to_string(tlevels) + " levels, " +
                       std::to_string(tsteps) +
                       " steps, rezone every 4, 1 thread)");
    t2.set_header({"policy/simd", "cell ms/step", "blocked ms/step",
                   "tiles", "fallback", "speedup"});
    double min_native_speedup = 0.0;
    auto time_row = [&]<typename P>(const std::string& label,
                                    simd::Mode mode, bool headline) {
        // Best-of-two per path: the point is the ratio, and timings
        // jitter on a shared host.
        SweepRun cell = run_sweep<P>(tgrid, tlevels, tsteps, mode, false);
        const SweepRun cell2 =
            run_sweep<P>(tgrid, tlevels, tsteps, mode, false);
        if (cell2.sweep_seconds < cell.sweep_seconds) cell = cell2;
        SweepRun blk = run_sweep<P>(tgrid, tlevels, tsteps, mode, true);
        const SweepRun blk2 =
            run_sweep<P>(tgrid, tlevels, tsteps, mode, true);
        if (blk2.sweep_seconds < blk.sweep_seconds) blk = blk2;
        const double speedup = blk.sweep_seconds > 0.0
                                   ? cell.sweep_seconds / blk.sweep_seconds
                                   : 0.0;
        if (headline) min_native_speedup = speedup;
        t2.add_row({label,
                    util::fixed(cell.sweep_seconds * 1e3 / tsteps, 3),
                    util::fixed(blk.sweep_seconds * 1e3 / tsteps, 3),
                    std::to_string(blk.tiles), std::to_string(blk.fallback),
                    util::fixed(speedup, 2) + "x"});
    };
    time_row.template operator()<fp::MinimumPrecision>(
        "minimum/native", simd::Mode::Native, true);
    time_row.template operator()<fp::MixedPrecision>(
        "mixed/native", simd::Mode::Native, false);
    time_row.template operator()<fp::FullPrecision>(
        "full/native", simd::Mode::Native, false);
    time_row.template operator()<fp::MinimumPrecision>(
        "minimum/scalar", simd::Mode::Scalar, false);
    t2.print();

    std::printf(
        "\nblocked flux-sweep speedup (minimum/native): %.2fx "
        "(acceptance floor: 2.0x%s)\n%s\n",
        min_native_speedup, quick ? ", not enforced in --quick" : "",
        failures == 0 ? "All blocked configurations bit-identical."
                      : "BITWISE MISMATCH in a blocked configuration!");
    if (failures != 0) return 1;
    if (!quick && min_native_speedup < 2.0) return 1;
    return 0;
}
