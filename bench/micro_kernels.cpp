// Google-benchmark micro-benchmarks for the hot kernels and the
// reproducible-sum ladder. These complement the table harnesses: they
// measure the raw host-side effect of precision and vectorization on the
// kernels the paper's evaluation hinges on.

#include <benchmark/benchmark.h>

#include <vector>

#include "fp/half.hpp"
#include "fp/precision.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "sum/basic.hpp"
#include "sum/expansion.hpp"
#include "sum/reproducible.hpp"
#include "util/rng.hpp"

using namespace tp;

namespace {

std::vector<double> bench_random_data(std::size_t n) {
    util::Rng rng(42);
    std::vector<double> xs(n);
    for (auto& v : xs) v = rng.uniform(-1e6, 1e6);
    return xs;
}

}  // namespace

// ------------------------------------------------------------------- sums
static void BM_SumNaive(benchmark::State& state) {
    const auto xs = bench_random_data(1 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(sum::sum_naive<double>(xs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_SumNaive);

static void BM_SumKahan(benchmark::State& state) {
    const auto xs = bench_random_data(1 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(sum::sum_kahan<double>(xs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_SumKahan);

static void BM_SumNeumaier(benchmark::State& state) {
    const auto xs = bench_random_data(1 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(sum::sum_neumaier<double>(xs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_SumNeumaier);

static void BM_SumPairwise(benchmark::State& state) {
    const auto xs = bench_random_data(1 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(sum::sum_pairwise<double>(xs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_SumPairwise);

static void BM_SumReproducible(benchmark::State& state) {
    const auto xs = bench_random_data(1 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(sum::sum_reproducible<double>(xs).value);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_SumReproducible);

static void BM_SumExactExpansion(benchmark::State& state) {
    const auto xs = bench_random_data(1 << 16);  // exact sum is O(n k); keep small
    for (auto _ : state) benchmark::DoNotOptimize(sum::sum_exact(xs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_SumExactExpansion);

// ---------------------------------------------------------- CLAMR kernels
template <typename Policy>
static void BM_ClamrStep(benchmark::State& state) {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 128, 128, 2};
    cfg.simd = state.range(0) != 0 ? simd::Mode::Native : simd::Mode::Scalar;
    shallow::ShallowWaterSolver<Policy> s(cfg);
    s.initialize_dam_break({});
    for (auto _ : state) benchmark::DoNotOptimize(s.step());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(s.mesh().num_cells()));
    state.SetLabel(std::string(Policy::name) +
                   (state.range(0) != 0 ? "/simd" : "/scalar"));
}
BENCHMARK_TEMPLATE(BM_ClamrStep, fp::MinimumPrecision)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_ClamrStep, fp::MixedPrecision)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_ClamrStep, fp::FullPrecision)->Arg(0)->Arg(1);

// ------------------------------------------------------------ SEM kernels
template <typename Policy>
static void BM_SemStep(benchmark::State& state) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.order = 7;
    sem::SpectralEulerSolver<Policy> s(cfg);
    s.initialize_thermal_bubble({});
    for (auto _ : state) benchmark::DoNotOptimize(s.step());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(s.num_nodes()));
    state.SetLabel(std::string(Policy::name));
}
BENCHMARK_TEMPLATE(BM_SemStep, fp::MinimumPrecision);
BENCHMARK_TEMPLATE(BM_SemStep, fp::FullPrecision);

// ------------------------------------------------------------------- half
static void BM_HalfEncodeDecode(benchmark::State& state) {
    util::Rng rng(7);
    std::vector<float> xs(1 << 16);
    for (auto& v : xs)
        v = static_cast<float>(rng.uniform(-60000.0, 60000.0));
    for (auto _ : state) {
        float acc = 0.0f;
        for (const float v : xs)
            acc += static_cast<float>(fp::Half(v));
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_HalfEncodeDecode);

BENCHMARK_MAIN();
