// Distributed pipeline scaling + bitwise-equivalence gate.
//
// Three sections from one binary:
//   1. Schedule matrix on the large dam break (single thread): the first
//      row re-times a verbatim transliteration of the pre-pipeline seed
//      (BSP, per-cell flux lambda, separate full-grid dt pass, three
//      fresh fields allocated per rank per step) as the 1.00x baseline;
//      the other rows are the shipped pipeline's two schedules with
//      per-phase columns. The full run enforces the >= 2x acceptance
//      floor on the overlapped schedule vs seed.
//   2. Rank scaling of the overlapped pipeline (threads follow ranks up
//      to the host width).
//   3. Bitwise gate: gather_height() must repeat to the last bit across
//      every rank count (including one rank per row) x both schedules x
//      all three precision policies. Any single-bit divergence fails the
//      binary — this is the harness that keeps "overlap/decomposition
//      cannot change the physics" true.
//
// `--quick` shrinks the grids for CI; the bitwise gate runs in both modes.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "par/dist_shallow.hpp"
#include "util/cli.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

using namespace tp;

namespace {

struct PhaseRun {
    double step_seconds = 0.0;
    double pack = 0.0, pre = 0.0, wait = 0.0, interior = 0.0,
           boundary = 0.0;
    std::uint64_t halo_bytes = 0;
};

template <typename P>
PhaseRun run_phases(int grid, int steps, int ranks, bool overlap) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    cfg.overlap = overlap;
    par::DistributedShallowSolver<P> s(cfg);
    s.initialize_dam_break();
    util::WallTimer t;
    s.run(steps);
    PhaseRun r;
    r.step_seconds = t.elapsed_seconds();
    r.pack = s.timers().total("halo_pack");
    r.pre = s.timers().total("precompute");
    r.wait = s.timers().total("halo_wait");
    r.interior = s.timers().total("interior");
    r.boundary = s.timers().total("boundary");
    r.halo_bytes = s.halo_bytes_sent();
    return r;
}

template <typename P>
std::vector<double> run_state(int grid, int steps, int ranks,
                              bool overlap) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    cfg.overlap = overlap;
    par::DistributedShallowSolver<P> s(cfg);
    s.initialize_dam_break();
    s.run(steps);
    return s.gather_height();
}

std::string ms_per_step(double seconds, int steps) {
    return util::fixed(seconds * 1e3 / steps, 3);
}

// Faithful transliteration of the pre-pipeline solver (the "seed"): BSP
// halo exchange, a separate full-grid wavespeed pass for dt, and a
// per-cell flux lambda that allocates three replacement fields every
// step. Timing-only reference — this is the denominator of the bench's
// acceptance ratio, kept verbatim so the speedup means "shipped pipeline
// vs what the repo used to do".
class SeedReference {
public:
    SeedReference(int grid, int ranks)
        : nx_(grid), ny_(grid), ranks_count_(ranks), comm_(ranks) {
        dx_ = 100.0 / nx_;
        dy_ = 100.0 / ny_;
        ranks_.resize(static_cast<std::size_t>(ranks));
        const int base = ny_ / ranks;
        const int extra = ny_ % ranks;
        int row = 0;
        for (int r = 0; r < ranks; ++r) {
            Rank& rk = ranks_[static_cast<std::size_t>(r)];
            rk.row0 = row;
            rk.rows = base + (r < extra ? 1 : 0);
            row += rk.rows;
            const std::size_t n = static_cast<std::size_t>(rk.rows + 2) *
                                  static_cast<std::size_t>(nx_);
            rk.h.assign(n, 0.0);
            rk.hu.assign(n, 0.0);
            rk.hv.assign(n, 0.0);
        }
        const double cx = 50.0, cy = 50.0, r0 = 20.0;
        for (Rank& rk : ranks_)
            for (int j = 0; j < rk.rows; ++j)
                for (int i = 0; i < nx_; ++i) {
                    const double x = (i + 0.5) * dx_ - cx;
                    const double y = (rk.row0 + j + 0.5) * dy_ - cy;
                    rk.h[idx(rk, j + 1, i)] =
                        std::sqrt(x * x + y * y) < r0 ? 80.0 : 10.0;
                }
    }

    void run(int steps) {
        for (int s = 0; s < steps; ++s) step();
    }

private:
    struct Rank {
        int row0 = 0, rows = 0;
        std::vector<double> h, hu, hv;
    };
    std::size_t idx(const Rank&, int j, int i) const {
        return static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
               static_cast<std::size_t>(i);
    }

    void exchange_halos() {
        const auto nx = static_cast<std::size_t>(nx_);
        const std::size_t row_bytes = nx * 3 * sizeof(double);
        auto pack_row = [&](const Rank& rk, int lr) {
            std::vector<std::byte> buf = comm_.acquire(row_bytes);
            auto* p = reinterpret_cast<double*>(buf.data());
            for (std::size_t i = 0; i < nx; ++i) {
                p[i] = rk.h[idx(rk, lr, static_cast<int>(i))];
                p[nx + i] = rk.hu[idx(rk, lr, static_cast<int>(i))];
                p[2 * nx + i] = rk.hv[idx(rk, lr, static_cast<int>(i))];
            }
            return buf;
        };
        for (int r = 0; r < ranks_count_; ++r) {
            const Rank& rk = ranks_[static_cast<std::size_t>(r)];
            if (r > 0) comm_.send_bytes(r, r - 1, 2, pack_row(rk, 1));
            if (r + 1 < ranks_count_)
                comm_.send_bytes(r, r + 1, 1, pack_row(rk, rk.rows));
        }
        comm_.exchange();
        auto unpack_row = [&](Rank& rk, int lr, par::Message m) {
            const auto* p = reinterpret_cast<const double*>(m.bytes.data());
            for (std::size_t i = 0; i < nx; ++i) {
                rk.h[idx(rk, lr, static_cast<int>(i))] = p[i];
                rk.hu[idx(rk, lr, static_cast<int>(i))] = p[nx + i];
                rk.hv[idx(rk, lr, static_cast<int>(i))] = p[2 * nx + i];
            }
            comm_.release(std::move(m.bytes));
        };
        for (int r = 0; r < ranks_count_; ++r) {
            Rank& rk = ranks_[static_cast<std::size_t>(r)];
            if (r > 0) {
                unpack_row(rk, 0, comm_.recv(r, r - 1, 1));
            } else {
                for (int i = 0; i < nx_; ++i) {
                    rk.h[idx(rk, 0, i)] = rk.h[idx(rk, 1, i)];
                    rk.hu[idx(rk, 0, i)] = rk.hu[idx(rk, 1, i)];
                    rk.hv[idx(rk, 0, i)] = -rk.hv[idx(rk, 1, i)];
                }
            }
            if (r + 1 < ranks_count_) {
                unpack_row(rk, rk.rows + 1, comm_.recv(r, r + 1, 2));
            } else {
                for (int i = 0; i < nx_; ++i) {
                    rk.h[idx(rk, rk.rows + 1, i)] = rk.h[idx(rk, rk.rows, i)];
                    rk.hu[idx(rk, rk.rows + 1, i)] =
                        rk.hu[idx(rk, rk.rows, i)];
                    rk.hv[idx(rk, rk.rows + 1, i)] =
                        -rk.hv[idx(rk, rk.rows, i)];
                }
            }
        }
    }

    double global_dt() const {
        double rate = 0.0;
        for (const Rank& rk : ranks_)
            for (int j = 1; j <= rk.rows; ++j)
                for (int i = 0; i < nx_; ++i) {
                    const double hh = std::max(rk.h[idx(rk, j, i)], 1e-8);
                    const double inv = 1.0 / hh;
                    const double u = std::fabs(rk.hu[idx(rk, j, i)]) * inv;
                    const double v = std::fabs(rk.hv[idx(rk, j, i)]) * inv;
                    rate = std::max(rate, std::max(u, v) +
                                              std::sqrt(9.80665 * hh));
                }
        return 0.2 * std::min(dx_, dy_) / rate;
    }

    void update_rank(Rank& rk, double dt) {
        const double g = 9.80665, half = 0.5, half_g = half * g;
        const double hfloor = 1e-8;
        const double dtdx = dt / dx_, dtdy = dt / dy_;
        std::vector<double> nh(rk.h.size()), nhu(rk.hu.size()),
            nhv(rk.hv.size());
        auto flux = [&](double hL, double qnL, double qtL, double hR,
                        double qnR, double qtR, double out[3]) {
            hL = std::max(hL, hfloor);
            hR = std::max(hR, hfloor);
            const double invL = 1.0 / hL, invR = 1.0 / hR;
            const double unL = qnL * invL, unR = qnR * invR;
            const double utL = qtL * invL, utR = qtR * invR;
            const double smax = std::max(std::fabs(unL) + std::sqrt(g * hL),
                                         std::fabs(unR) + std::sqrt(g * hR));
            out[0] = half * (qnL + qnR) - half * smax * (hR - hL);
            out[1] = half * (qnL * unL + half_g * hL * hL + qnR * unR +
                             half_g * hR * hR) -
                     half * smax * (qnR - qnL);
            out[2] = half * (qnL * utL + qnR * utR) - half * smax * (qtR - qtL);
        };
        for (int j = 1; j <= rk.rows; ++j)
            for (int i = 0; i < nx_; ++i) {
                auto load = [&](int jj, int ii, bool mx, double& h,
                                double& hu, double& hv) {
                    h = rk.h[idx(rk, jj, ii)];
                    hu = rk.hu[idx(rk, jj, ii)];
                    hv = rk.hv[idx(rk, jj, ii)];
                    if (mx) hu = -hu;
                };
                double hC, huC, hvC;
                load(j, i, false, hC, huC, hvC);
                double f[3], dhx = 0, dhux = 0, dhvx = 0, dhy = 0,
                             dhuy = 0, dhvy = 0;
                double hN, huN, hvN;
                load(j, i > 0 ? i - 1 : 0, i == 0, hN, huN, hvN);
                flux(hN, huN, hvN, hC, huC, hvC, f);
                dhx += f[0]; dhux += f[1]; dhvx += f[2];
                load(j, i + 1 < nx_ ? i + 1 : nx_ - 1, i + 1 == nx_, hN,
                     huN, hvN);
                flux(hC, huC, hvC, hN, huN, hvN, f);
                dhx -= f[0]; dhux -= f[1]; dhvx -= f[2];
                load(j - 1, i, false, hN, huN, hvN);
                flux(hN, hvN, huN, hC, hvC, huC, f);
                dhy += f[0]; dhvy += f[1]; dhuy += f[2];
                load(j + 1, i, false, hN, huN, hvN);
                flux(hC, hvC, huC, hN, hvN, huN, f);
                dhy -= f[0]; dhvy -= f[1]; dhuy -= f[2];
                nh[idx(rk, j, i)] =
                    std::max(hC + dtdx * dhx + dtdy * dhy, hfloor);
                nhu[idx(rk, j, i)] = huC + dtdx * dhux + dtdy * dhuy;
                nhv[idx(rk, j, i)] = hvC + dtdx * dhvx + dtdy * dhvy;
            }
        rk.h = std::move(nh);
        rk.hu = std::move(nhu);
        rk.hv = std::move(nhv);
    }

    void step() {
        exchange_halos();
        const double dt = global_dt();
        for (Rank& rk : ranks_) update_rank(rk, dt);
    }

    int nx_, ny_, ranks_count_;
    double dx_, dy_;
    par::VirtualComm comm_;
    std::vector<Rank> ranks_;
};

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("table_dist_scaling",
                         "distributed pipeline phase split, rank scaling, "
                         "and the bitwise decomposition gate");
    args.add_int_option("grid", "cells per side for the timing matrix",
                        "512");
    args.add_int_option("steps", "steps for the timing matrix", "40");
    args.add_flag("quick", "CI smoke mode: small grids, few steps");
    if (!args.parse(argc, argv)) return 1;
    const bool quick = args.get_flag("quick");
    const int grid = quick ? 96 : args.get_int("grid");
    const int steps = quick ? 10 : args.get_int("steps");

    bench::print_scale_note(
        "distributed dam break " + std::to_string(grid) + "^2 x" +
        std::to_string(steps) + " steps, 4 simulated ranks, 1 thread for "
        "the schedule matrix");

    // --- 1. Schedule matrix ---------------------------------------------
    util::set_threads(1);
    util::TextTable t1("Schedules on " + std::to_string(grid) +
                       "^2, full precision, 4 ranks, 1 thread");
    t1.set_header({"schedule", "step ms", "pack", "pre", "wait",
                   "interior", "boundary", "speedup"});
    double base_seconds = 0.0, overlap_speedup = 0.0;
    {
        // Baseline: the pre-pipeline seed (BSP, per-cell lambda, separate
        // dt pass, three fresh fields per rank per step). Best-of-two.
        util::WallTimer t;
        SeedReference(grid, 4).run(steps);
        base_seconds = t.elapsed_seconds();
        t.restart();
        SeedReference(grid, 4).run(steps);
        base_seconds = std::min(base_seconds, t.elapsed_seconds());
        t1.add_row({"seed bsp", ms_per_step(base_seconds, steps),
                    "-", "-", "-", "-", "-", "1.00x"});
    }
    for (const bool overlap : {false, true}) {
        // Best-of-two: the matrix's point is the ratio, and timings
        // jitter on a shared host.
        PhaseRun r = run_phases<fp::FullPrecision>(grid, steps, 4, overlap);
        const PhaseRun r2 =
            run_phases<fp::FullPrecision>(grid, steps, 4, overlap);
        if (r2.step_seconds < r.step_seconds) r = r2;
        const double speedup =
            r.step_seconds > 0.0 ? base_seconds / r.step_seconds : 0.0;
        if (overlap) overlap_speedup = speedup;
        t1.add_row({overlap ? "overlap" : "bsp",
                    ms_per_step(r.step_seconds, steps),
                    ms_per_step(r.pack, steps), ms_per_step(r.pre, steps),
                    ms_per_step(r.wait, steps),
                    ms_per_step(r.interior, steps),
                    ms_per_step(r.boundary, steps),
                    util::fixed(speedup, 2) + "x"});
    }
    t1.print();
    std::printf("\n");

    // --- 2. Rank scaling of the overlapped pipeline ---------------------
    util::set_threads(0);  // hardware default
    util::TextTable t2("Rank scaling, overlap, threads = min(ranks, hw), " +
                       std::to_string(grid) + "^2");
    t2.set_header({"ranks", "step ms", "pre", "interior", "boundary",
                   "wait", "halo MiB"});
    for (const int ranks : {1, 2, 4, 8}) {
        const PhaseRun r =
            run_phases<fp::FullPrecision>(grid, steps, ranks, true);
        t2.add_row({std::to_string(ranks),
                    ms_per_step(r.step_seconds, steps),
                    ms_per_step(r.pre, steps),
                    ms_per_step(r.interior, steps),
                    ms_per_step(r.boundary, steps),
                    ms_per_step(r.wait, steps),
                    util::fixed(static_cast<double>(r.halo_bytes) /
                                    (1024.0 * 1024.0),
                                2)});
    }
    t2.print();
    std::printf("\n");

    // --- 3. Bitwise decomposition gate ----------------------------------
    const int ggrid = quick ? 32 : 48;
    const int gsteps = quick ? 12 : 25;
    int failures = 0;
    util::TextTable t3("Bitwise gate: gather_height across rank count x "
                       "schedule (" +
                       std::to_string(ggrid) + "^2, " +
                       std::to_string(gsteps) + " steps)");
    t3.set_header({"policy", "combos", "verdict"});
    auto gate = [&]<typename P>(const std::string& label) {
        const std::vector<double> ref =
            run_state<P>(ggrid, gsteps, 1, false);
        int combos = 1, bad = 0;
        for (const int ranks : {1, 2, 3, ggrid})
            for (const bool overlap : {false, true}) {
                if (ranks == 1 && !overlap)
                    continue;  // that is the reference itself
                ++combos;
                if (run_state<P>(ggrid, gsteps, ranks, overlap) != ref)
                    ++bad;
            }
        failures += bad;
        t3.add_row({label, std::to_string(combos),
                    bad == 0 ? "IDENTICAL"
                             : std::to_string(bad) + " MISMATCH"});
    };
    gate.template operator()<fp::MinimumPrecision>("minimum");
    gate.template operator()<fp::MixedPrecision>("mixed");
    gate.template operator()<fp::FullPrecision>("full");
    t3.print();

    // --- 4. Tracing-invisibility gate -----------------------------------
    // The flight recorder observes, never steers: running the same
    // pipeline with the cross-rank trace session active (rank spans +
    // message edges recording) must reproduce the untraced height field
    // bit for bit, in both schedules.
    {
        const std::string trace_path =
            (std::filesystem::temp_directory_path() /
             "table_dist_scaling.trace.json")
                .string();
        int traced_bad = 0;
        for (const bool overlap : {false, true}) {
            const std::vector<double> ref = run_state<fp::MixedPrecision>(
                ggrid, gsteps, 4, overlap);
            obs::trace_start(trace_path);
            const std::vector<double> traced =
                run_state<fp::MixedPrecision>(ggrid, gsteps, 4, overlap);
            const std::size_t events = obs::trace_stop();
            if (traced != ref) ++traced_bad;
            if (events == 0) ++traced_bad;  // the recorder saw nothing
        }
        std::remove(trace_path.c_str());
        std::printf("\ntracing gate: %s\n",
                    traced_bad == 0
                        ? "traced runs bit-identical to untraced"
                        : "TRACED RUN DIVERGED from untraced!");
        failures += traced_bad;
    }

    std::printf(
        "\noverlapped speedup over the seed BSP step: %.2fx "
        "(acceptance floor: 2.0x%s)\n%s\n",
        overlap_speedup, quick ? ", not enforced in --quick" : "",
        failures == 0 ? "All decompositions bit-identical."
                      : "BITWISE MISMATCH across decompositions!");
    if (failures != 0) return 1;
    if (!quick && overlap_speedup < 2.0) return 1;
    return 0;
}
