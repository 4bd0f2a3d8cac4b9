// SIMD speedup + bitwise-equivalence gate: for every precision policy,
// run the same workload under --simd=scalar and --simd=native from this
// one binary, report the per-kernel speedup, and *verify* the two paths
// produce bit-identical solution state. Exits nonzero when any pair
// diverges by even one bit, so this doubles as a correctness harness for
// the pack kernel layer (DESIGN.md §"SIMD kernel layer").
//
// The rows compare CLAMR's flux-sweep (finite_diff) kernel across the
// three storage/compute policies: it is the one kernel with a scalar
// path, because Table III measures it both ways.

#include <cstdio>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "simd/pack.hpp"
#include "util/cli.hpp"

using namespace tp;

namespace {

struct ModeRun {
    double kernel_seconds = 0.0;
    std::uint32_t lanes = 0;
    std::string state_bits;  // serialized solution state, exact bits
};

template <typename P>
ModeRun run_clamr(int coarse, int levels, int steps, simd::Mode mode) {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, coarse, coarse, levels};
    cfg.simd = mode;
    shallow::ShallowWaterSolver<P> s(cfg);
    s.initialize_dam_break({});
    s.run(steps);
    ModeRun r;
    r.kernel_seconds = s.timers().total("finite_diff");
    if (const perf::KernelWork* w = s.ledger().find("finite_diff"))
        r.lanes = w->simd_lanes;
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);  // storage-precision bits, cells + state
    r.state_bits = std::move(os).str();
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args(
        "table_simd_speedup",
        "Per-mode SIMD speedup with bitwise scalar/native verification");
    args.add_option("grid", "CLAMR coarse grid cells per side", "192");
    args.add_option("steps", "CLAMR time steps", "60");
    if (!args.parse(argc, argv)) return 1;
    const int grid = args.get_int("grid");
    const int steps = args.get_int("steps");

    bench::print_scale_note(
        "one binary, --simd=scalar vs --simd=native per row; CLAMR dam "
        "break " +
        std::to_string(grid) + "^2 x" + std::to_string(steps) + " steps");

    util::TextTable t("SIMD speedup: scalar vs native pack kernels "
                      "(bit-identical state required)");
    t.set_header({"workload / policy", "scalar (s)", "native (s)", "speedup",
                  "lanes", "ISA", "bitwise"});
    int failures = 0;
    double clamr_min_speedup = 0.0;
    auto add_row = [&](const std::string& label, const ModeRun& scal,
                       const ModeRun& nat) {
        const bool same = scal.state_bits == nat.state_bits;
        if (!same) ++failures;
        const double speedup = nat.kernel_seconds > 0.0
                                   ? scal.kernel_seconds / nat.kernel_seconds
                                   : 0.0;
        t.add_row({label, util::fixed(scal.kernel_seconds, 3),
                   util::fixed(nat.kernel_seconds, 3),
                   util::fixed(speedup, 2) + "x",
                   std::to_string(scal.lanes) + "->" +
                       std::to_string(nat.lanes),
                   simd::isa_name(), same ? "IDENTICAL" : "MISMATCH"});
        return speedup;
    };

    // Best-of-two per mode: the table's point is the ratio, and kernel
    // timings jitter on a shared host.
    auto best = [](ModeRun a, const ModeRun& b) {
        if (b.kernel_seconds < a.kernel_seconds)
            a.kernel_seconds = b.kernel_seconds;
        return a;
    };
    auto clamr_pair = [&]<typename P>(const std::string& label) {
        const ModeRun scal =
            best(run_clamr<P>(grid, 2, steps, simd::Mode::Scalar),
                 run_clamr<P>(grid, 2, steps, simd::Mode::Scalar));
        const ModeRun nat =
            best(run_clamr<P>(grid, 2, steps, simd::Mode::Native),
                 run_clamr<P>(grid, 2, steps, simd::Mode::Native));
        return add_row("CLAMR finite_diff / " + label, scal, nat);
    };
    clamr_min_speedup =
        clamr_pair.template operator()<fp::MinimumPrecision>("minimum");
    clamr_pair.template operator()<fp::MixedPrecision>("mixed");
    clamr_pair.template operator()<fp::FullPrecision>("full");

    t.print();
    std::printf(
        "CLAMR minimum-precision flux-sweep speedup: %.2fx "
        "(acceptance floor: 1.5x)\n%s\n",
        clamr_min_speedup,
        failures == 0
            ? "All scalar/native pairs bit-identical."
            : "BITWISE MISMATCH between scalar and native paths!");
    return failures == 0 ? 0 : 1;
}
