// Table III — "CLAMR precision comparisons and vectorization": measured
// host time of the finite_diff kernel, scalar vs pack-vectorized, for the
// three precision modes, plus checkpoint file sizes.
//
// Unlike the architecture tables, these rows are *measured on this host*,
// and both kernel shapes live in this one binary: the runtime --simd
// toggle selects between the W = 1 pack instantiation (compiled with the
// auto-vectorizer off) and the native-width instantiation. The two paths
// are bit-identical per cell, so the contrast is instruction shape alone —
// the same study the paper engineered with Intel compiler reports and
// OpenMP SIMD pragmas. Exits 1 unless the paper's shape holds: minimum
// precision gains more over full precision when vectorized than when
// scalar (twice the float lanes per instruction).

#include <algorithm>

#include "bench_common.hpp"
#include "simd/pack.hpp"
#include "util/cli.hpp"

using namespace tp;

int main(int argc, char** argv) {
    util::ArgParser args("table3_clamr_vectorization",
                         "Table III: CLAMR finite_diff scalar vs SIMD per "
                         "precision mode");
    util::add_simd_option(args);
    args.add_option("grid", "Coarse grid cells per side", "192");
    args.add_option("steps", "Time steps per run", "100");
    if (!args.parse(argc, argv)) return 1;
    const simd::Mode vec_mode = util::apply_simd_option(args);
    const int n = args.get_int("grid"), levels = 2,
              steps = args.get_int("steps");
    bench::print_scale_note(
        "CLAMR dam break, " + std::to_string(n) + "x" + std::to_string(n) +
        " coarse cells, 2 AMR levels, " + std::to_string(steps) +
        " iterations, measured on this host (paper: 1920x1920, 200 iters "
        "on Haswell)");

    // Best-of-two repetitions per variant: kernel timings on a shared host
    // jitter by 10-20%, and the table's point is the ratio.
    auto best_of_two = [&](simd::Mode mode) {
        auto a = bench::run_clamr_suite(n, levels, steps, mode);
        const auto b = bench::run_clamr_suite(n, levels, steps, mode);
        for (auto& [prec, r] : a)
            r.finite_diff_seconds = std::min(r.finite_diff_seconds,
                                             b.at(prec).finite_diff_seconds);
        return a;
    };
    const auto unvec = best_of_two(simd::Mode::Scalar);
    const auto vec = best_of_two(vec_mode);

    util::TextTable t("TABLE III: CLAMR precision comparisons and "
                      "vectorization (host-measured)");
    t.set_header({"", "Min Precision", "Mixed Precision", "Full Precision"});
    auto row = [&](const std::string& label,
                   const std::map<std::string, bench::RunArtifacts>& runs,
                   auto getter) {
        t.add_row({label, getter(runs.at("minimum")),
                   getter(runs.at("mixed")), getter(runs.at("full"))});
    };
    auto lanes_of = [](const bench::RunArtifacts& r) {
        const perf::KernelWork* w = r.ledger.find("finite_diff");
        return w != nullptr ? w->simd_lanes : 0u;
    };
    row("finite_diff time --simd=scalar (s)", unvec,
        [](const bench::RunArtifacts& r) {
            return util::fixed(r.finite_diff_seconds, 3);
        });
    row("  lanes / instruction set", unvec,
        [&](const bench::RunArtifacts& r) {
            return std::to_string(lanes_of(r)) + " (scalar issue)";
        });
    row("finite_diff time --simd=" + std::string(simd::to_string(vec_mode)) +
            " (s)",
        vec, [](const bench::RunArtifacts& r) {
            return util::fixed(r.finite_diff_seconds, 3);
        });
    row("  lanes / instruction set", vec,
        [&](const bench::RunArtifacts& r) {
            return std::to_string(lanes_of(r)) + " (" +
                   std::string(simd::isa_name()) + ")";
        });
    row("Checkpoint file size", vec, [](const bench::RunArtifacts& r) {
        return util::human_bytes(r.checkpoint_bytes);
    });
    row("finite_diff threads", vec, [](const bench::RunArtifacts& r) {
        const perf::KernelWork* w = r.ledger.find("finite_diff");
        return std::to_string(w != nullptr ? w->threads : 1);
    });
    t.print();

    const double unvec_gain = unvec.at("full").finite_diff_seconds /
                              unvec.at("minimum").finite_diff_seconds;
    const double vec_gain = vec.at("full").finite_diff_seconds /
                            vec.at("minimum").finite_diff_seconds;
    std::printf(
        "min-vs-full finite_diff speedup: scalar %.2fx, vectorized "
        "%.2fx\n(paper: ~1.11x unvectorized, ~1.9x vectorized)\n"
        "checkpoint min/full size ratio: %.3f (paper: 86M/128M = 0.672)\n",
        unvec_gain, vec_gain,
        static_cast<double>(vec.at("minimum").checkpoint_bytes) /
            static_cast<double>(vec.at("full").checkpoint_bytes));
    const bool shape = vec_gain > unvec_gain;
    std::printf("Paper shape check: vectorized min-vs-full gain exceeds "
                "scalar: %s\n",
                shape ? "yes" : "NO");
    return shape ? 0 : 1;
}
