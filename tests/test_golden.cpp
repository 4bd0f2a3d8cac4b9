// Golden digests: absolute pins on the solvers' output bits. Every other
// bitwise gate is relative (path A matches path B), so a change that
// every path shares passes them all; these catch it. Each entry is the
// 64-bit FNV-1a (util/fnv.hpp) of a byte stream a solver produces:
//   - shallow_checkpoint.txt: the write_checkpoint() bytes after a
//     rezone-heavy dam break, per policy x SIMD shape x refinement depth,
//     on a tile-aligned and an edge-straddling coarse grid, plus governed
//     runs that switch the flux sweep's compute precision both ways;
//   - dist_gather_height.txt: the row-stripe distributed solver's
//     gather_height() field, per policy x rank count x schedule;
//   - sem_state.txt: the SEM solver's state_fingerprint() after a thermal
//     bubble, per policy x order, plus a viscous run and governed runs
//     that switch the rhs kernels' compute precision.
// The arithmetic is IEEE-deterministic (no contraction in kernel TUs,
// fixed-shape reductions), so the digests hold on any x86-64 host, at
// any thread count, and at any pack width: a -DTP_ENABLE_SIMD=OFF build
// computes the "native" lines with the W = 1 kernels and must match them.
//
// A mismatch prints the file's text and the recomputed text with a line
// diff. After an intentional change to the numerics, the recomputed text
// becomes the file; say why in the commit.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "fp/governor.hpp"
#include "fp/half_policy.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "util/fnv.hpp"

using namespace tp;

namespace {

// Append one "key digest" line to a golden text.
void add_digest(std::string& text, const std::string& key,
                std::uint64_t digest) {
    text += key + ' ' + util::digest_hex(digest) + '\n';
}

// The golden file `name` must hold exactly `expected`.
void expect_golden(const std::string& name, const std::string& expected) {
    const std::string path = std::string(TP_GOLDEN_DIR) + "/" + name;
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good()) << "cannot read " << path;
    std::ostringstream golden;
    golden << is.rdbuf();
    EXPECT_EQ(golden.str(), expected) << path;
}

// ------------------------------------------------ shallow checkpoints

// One dam-break configuration: coarse grid, steps, rezone interval, and
// the max_levels to run it at.
struct ShallowCase {
    int grid;
    int steps;
    int rezone_interval;
    std::vector<int> levels;
};

// The 16^2 grid's 8x8 flux tiles align with the domain at every level.
// The 12^2 grid's level-0 tiles do not: they run off the domain edge, so
// their ghost rings and partial member sets are pinned too (uniform, where
// they are dense, and refined, where they thin out).
const ShallowCase kAlignedCase{16, 30, 2, {0, 2, 4}};
const ShallowCase kEdgeCase{12, 30, 4, {0, 3}};

// Digest of the checkpoint after `sc.steps` steps at `levels`, with
// `gov` (if any) attached and stepped like a driver does.
template <typename P>
std::uint64_t checkpoint_digest(const ShallowCase& sc, int levels,
                                simd::Mode mode, fp::PrecisionGovernor* gov) {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, sc.grid, sc.grid, levels};
    cfg.simd = mode;
    cfg.rezone_interval = sc.rezone_interval;
    shallow::ShallowWaterSolver<P> s(cfg);
    if (gov != nullptr) s.set_governor(gov);
    s.initialize_dam_break({});
    for (int k = 0; k < sc.steps; ++k) {
        s.step();
        if (gov != nullptr) gov->end_step(s.step_count());
    }
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);
    return util::fnv1a(os.view());
}

template <typename P>
void shallow_digests(const ShallowCase& sc, std::string& text) {
    for (const simd::Mode mode : {simd::Mode::Scalar, simd::Mode::Native})
        for (const int levels : sc.levels)
            add_digest(text,
                       std::string(P::name) + ' ' + simd::to_string(mode) +
                           " L" + std::to_string(levels),
                       checkpoint_digest<P>(sc, levels, mode, nullptr));
}

// Governed runs on the edge-straddling grid. A zero drift budget promotes
// the flux sweep after the warmup step and demotes it again after each
// clean hysteresis window, so every policy computes steps in both its own
// and the alternate compute precision: a float-compute policy's promoted
// steps and a double-compute policy's demoted ones cast the compute_t face
// widths to the other type and store their increments back into compute_t.
// 100/12 is not exact in float, so these lines pin how those widths are
// rounded; the half-storage lines pin double arithmetic stored straight
// into float increments.
constexpr int kGovernedLevel = 2;

template <typename P>
void governed_digests(std::string& text) {
    fp::GovernorConfig cfg;
    cfg.enabled = true;
    cfg.drift_budget_ulp = 0;
    cfg.tail_budget_frac = 0.0;
    cfg.warmup = 1;
    cfg.hysteresis = 3;
    for (const simd::Mode mode : {simd::Mode::Scalar, simd::Mode::Native}) {
        fp::PrecisionGovernor gov(cfg);
        const std::uint64_t digest =
            checkpoint_digest<P>(kEdgeCase, kGovernedLevel, mode, &gov);
        std::size_t promotes = 0;
        std::size_t demotes = 0;
        for (const auto& d : gov.decisions())
            (d.action == "promote" ? promotes : demotes) += 1;
        EXPECT_GE(promotes, 1u) << P::name;
        EXPECT_GE(demotes, 1u) << P::name;
        add_digest(text,
                   "governed " + std::string(P::name) + ' ' +
                       simd::to_string(mode) + " L" +
                       std::to_string(kGovernedLevel),
                   digest);
    }
}

TEST(Golden, ShallowCheckpointDigests) {
    std::string text =
        "# FNV-1a of ShallowWaterSolver::write_checkpoint() after a dam "
        "break on a\n";
    for (const ShallowCase* sc : {&kAlignedCase, &kEdgeCase}) {
        text += "# " + std::to_string(sc->grid) + "^2 coarse grid, " +
                std::to_string(sc->steps) + " steps, rezone every " +
                std::to_string(sc->rezone_interval) +
                " steps. Key: policy simd max_level.\n";
        shallow_digests<fp::MinimumPrecision>(*sc, text);
        shallow_digests<fp::MixedPrecision>(*sc, text);
        shallow_digests<fp::FullPrecision>(*sc, text);
        shallow_digests<fp::HalfStoragePrecision>(*sc, text);
    }
    text += "# Governed: " + std::to_string(kEdgeCase.grid) +
            "^2 coarse grid, " + std::to_string(kEdgeCase.steps) +
            " steps, rezone every " +
            std::to_string(kEdgeCase.rezone_interval) +
            " steps, zero drift budget, warmup 1, hysteresis 3.\n"
            "# Key: governed policy simd max_level.\n";
    governed_digests<fp::MinimumPrecision>(text);
    governed_digests<fp::MixedPrecision>(text);
    governed_digests<fp::FullPrecision>(text);
    governed_digests<fp::HalfStoragePrecision>(text);
    expect_golden("shallow_checkpoint.txt", text);
}

// ------------------------------------------- distributed gather_height

constexpr int kDistGrid = 32;
constexpr int kDistSteps = 20;

template <typename P>
void dist_digests(std::string& text) {
    for (const int ranks : {1, 3, 8})
        for (const bool overlap : {false, true}) {
            par::DistConfig cfg;
            cfg.nx = cfg.ny = kDistGrid;
            cfg.ranks = ranks;
            cfg.overlap = overlap;
            par::DistributedShallowSolver<P> s(cfg);
            s.initialize_dam_break();
            s.run(kDistSteps);
            const std::vector<double> h = s.gather_height();
            add_digest(text,
                       std::string(P::name) + " ranks=" +
                           std::to_string(ranks) +
                           (overlap ? " overlapped" : " bsp"),
                       util::fnv1a_bytes(h.data(), h.size() * sizeof(double)));
        }
}

TEST(Golden, DistGatherHeightDigests) {
    std::string text =
        "# FNV-1a of DistributedShallowSolver::gather_height() (row-major "
        "doubles)\n# after a dam break on a " +
        std::to_string(kDistGrid) + "^2 grid, " +
        std::to_string(kDistSteps) +
        " steps. Key: policy ranks schedule.\n";
    dist_digests<fp::MinimumPrecision>(text);
    dist_digests<fp::MixedPrecision>(text);
    dist_digests<fp::FullPrecision>(text);
    expect_golden("dist_gather_height.txt", text);
}

// ------------------------------------------------------- SEM state bits

// A 2^3-element bubble. Orders 5 and 7 run the np = 6 and np = 8
// micro-kernels; the viscous and governed runs use order 5.
constexpr int kSemElems = 2;
constexpr int kSemSteps = 12;
constexpr int kSemSideOrder = 5;

// Digest of state_fingerprint() after kSemSteps steps, with `gov` (if any)
// attached and stepped like a driver does.
template <typename P>
std::uint64_t sem_digest(int order, double viscosity,
                         fp::PrecisionGovernor* gov) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = kSemElems;
    cfg.order = order;
    cfg.viscosity = viscosity;
    sem::SpectralEulerSolver<P> s(cfg);
    if (gov != nullptr) s.set_governor(gov);
    s.initialize_thermal_bubble({});
    for (int k = 0; k < kSemSteps; ++k) {
        s.step();
        if (gov != nullptr) gov->end_step(s.step_count());
    }
    return util::fnv1a(s.state_fingerprint());
}

template <typename P>
void sem_digests(std::string& text) {
    for (const int order : {5, 7})
        add_digest(text,
                   std::string(P::name) + " native N" + std::to_string(order),
                   sem_digest<P>(order, 0.0, nullptr));
}

// Zero drift budget: the rhs kernels start in float, so the promote
// after the warmup step makes every policy compute steps in both float
// and double. Only the double-compute policies demote again: minimum
// precision's residual arrays are float, and the volume kernel rounds the
// gravity source and the flux divergence into them separately, so its
// promoted steps never match the double reference on the float lattice.
template <typename P>
void sem_governed_digest(std::string& text) {
    fp::GovernorConfig cfg;
    cfg.enabled = true;
    cfg.drift_budget_ulp = 0;
    cfg.tail_budget_frac = 0.0;
    cfg.warmup = 1;
    cfg.hysteresis = 3;
    fp::PrecisionGovernor gov(cfg);
    const std::uint64_t digest =
        sem_digest<P>(kSemSideOrder, 0.0, &gov);
    std::size_t promotes = 0;
    std::size_t demotes = 0;
    for (const auto& d : gov.decisions())
        (d.action == "promote" ? promotes : demotes) += 1;
    EXPECT_GE(promotes, 1u) << P::name;
    if constexpr (std::is_same_v<typename P::compute_t, double>) {
        EXPECT_GE(demotes, 1u) << P::name;
    }
    add_digest(text,
               "governed " + std::string(P::name) + " native N" +
                   std::to_string(kSemSideOrder),
               digest);
}

TEST(Golden, SemStateDigests) {
    std::string text =
        "# FNV-1a of SpectralEulerSolver::state_fingerprint() after a "
        "thermal bubble\n# on " +
        std::to_string(kSemElems) + "^3 elements, " +
        std::to_string(kSemSteps) +
        " steps, inviscid. Key: policy simd order.\n";
    sem_digests<fp::MinimumPrecision>(text);
    sem_digests<fp::MixedPrecision>(text);
    sem_digests<fp::FullPrecision>(text);
    text += "# Viscous (mu = 1 Pa s). Key: viscous policy simd order.\n";
    add_digest(text,
               "viscous full native N" + std::to_string(kSemSideOrder),
               sem_digest<fp::FullPrecision>(kSemSideOrder, 1.0, nullptr));
    text +=
        "# Governed, inviscid: zero drift budget, warmup 1, hysteresis 3.\n"
        "# Key: governed policy simd order.\n";
    sem_governed_digest<fp::MinimumPrecision>(text);
    sem_governed_digest<fp::MixedPrecision>(text);
    sem_governed_digest<fp::FullPrecision>(text);
    expect_golden("sem_state.txt", text);
}

}  // namespace
