// dam_break_dist: the distributed dam break as an instrumented mini-app —
// the overlapped/SIMD/load-balanced pipeline of par/dist_shallow with the
// full flight-recorder surface (manifest, per-step metrics including halo
// traffic, spans), so tp_report can diff runs and obs_check can validate
// them exactly like the serial drivers.
//
//   $ ./dam_break_dist --precision mixed --grid 256 --ranks 8
//                      --overlap on --metrics run.jsonl
//
// With --checkpoint the run ends by writing a sharded restart set (one
// shard per rank plus a manifest, DESIGN.md §14.4); with --restart it
// adopts such a set before stepping, at any rank count. The closing
// `state digest` line (FNV-1a of the gathered height field) is the same
// on every rank count and schedule, so two restarts of one set can be
// compared by that line alone.
//
//   $ ./dam_break_dist --ranks 4 --steps 20 --checkpoint run.ck
//   $ ./dam_break_dist --ranks 3 --steps 10 --restart run.ck

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "par/dist_shallow.hpp"
#include "simd/pack.hpp"
#include "util/cli.hpp"
#include "util/fnv.hpp"
#include "util/format.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

using namespace tp;

namespace {

constexpr int kMassStride = 10;

std::string number_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out.push_back(',');
        obs::json::append_number(out, v[i]);
    }
    out.push_back(']');
    return out;
}

std::string byte_array(const std::vector<std::uint64_t>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += std::to_string(v[i]);
    }
    out.push_back(']');
    return out;
}

template <typename Policy>
int run(const util::ArgParser& args) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = args.get_int("grid");
    cfg.ranks = args.get_int("ranks");
    cfg.courant = args.get_double("courant");
    cfg.lb_interval = args.get_int("lb-interval");
    const std::string overlap = args.get_string("overlap");
    if (overlap != "on" && overlap != "off")
        throw std::invalid_argument("--overlap must be on or off");
    cfg.overlap = overlap == "on";
    const io::CheckpointOptions ckpt_opt = io::parse_checkpoint_compress(
        args.get_string("checkpoint-compress"));
    const std::string ckpt_base = args.get_string("checkpoint");
    const std::string restart_base = args.get_string("restart");

    const int nthreads = util::apply_threads_option(args);

    const obs::ObsGuard obs_guard(
        args, "dam_break_dist",
        {{"precision", std::string(Policy::name)},
         {"simd", simd::isa_name()},
         {"grid", std::to_string(cfg.nx)},
         {"ranks", std::to_string(cfg.ranks)},
         {"overlap", overlap},
         {"lb_interval", std::to_string(cfg.lb_interval)},
         {"courant", std::to_string(cfg.courant)}});

    par::DistributedShallowSolver<Policy> solver(cfg);
    solver.initialize_dam_break();
    if (!restart_base.empty()) {
        solver.restore_restart(restart_base);
        std::printf("restarted from %s at step %lld (t=%.5f)\n",
                    restart_base.c_str(),
                    static_cast<long long>(solver.step_count()),
                    solver.time());
    }
    const double mass0 = solver.total_mass();
    std::printf(
        "initialized: %d x %d cells on %d ranks (%s schedule), initial "
        "mass %.6e, %d thread%s (OpenMP %s)\n",
        cfg.nx, cfg.ny, cfg.ranks, cfg.overlap ? "overlapped" : "BSP",
        mass0, nthreads, nthreads == 1 ? "" : "s",
        util::openmp_enabled() ? "on" : "off");

    const int steps = args.get_int("steps");
    util::WallTimer timer;
    const int report = std::max(1, steps / 10);
    std::map<std::string, double> phase_baseline;
    // Per-rank deltas for the {"type":"dist"} record: halo bytes are
    // cumulative in the comm layer, resplits in the balancer's stats.
    const auto nranks = static_cast<std::size_t>(cfg.ranks);
    std::vector<std::uint64_t> rank_bytes_prev(nranks, 0);
    std::vector<std::uint64_t> rank_bytes_delta(nranks, 0);
    std::vector<double> post_s(nranks), precompute_s(nranks),
        interior_s(nranks), wait_s(nranks), boundary_s(nranks);
    std::uint64_t resplits_prev = 0;
    for (int s = 0; s < steps; ++s) {
        util::WallTimer step_timer;
        const double dt = solver.step();
        const double wall_s = step_timer.elapsed_seconds();
        if (obs::metrics().is_open()) {
            obs::json::Object rec;
            rec.field("type", "step")
                .field("step", solver.step_count())
                .field("t", solver.time())
                .field("dt", dt)
                .field("wall_s", wall_s);
            // The exact mass sum is a full-grid pass, so the record
            // carries it every kMassStride steps and on the last step,
            // as dam_break does.
            if ((s + 1) % kMassStride == 0 || s + 1 == steps)
                rec.field("mass", solver.total_mass());
            obs::metrics().write_line(
                rec.field("halo_bytes_sent", solver.halo_bytes_sent())
                    .field("lb_resplits", solver.lb_stats().resplits)
                    .field("flops", solver.ledger().total().flops())
                    .field_raw("phase_seconds",
                               obs::timer_delta_json(solver.timers(),
                                                     phase_baseline))
                    .str());
            // One {"type":"dist"} record per step: the per-rank phase
            // split the critical-path analyzer consumes (DESIGN.md §15).
            const auto& rp = solver.rank_phase_seconds();
            for (std::size_t r = 0; r < nranks; ++r) {
                post_s[r] = rp[r].post;
                precompute_s[r] = rp[r].precompute;
                interior_s[r] = rp[r].interior;
                wait_s[r] = rp[r].wait;
                boundary_s[r] = rp[r].boundary;
                const std::uint64_t sent =
                    solver.halo_bytes_sent(static_cast<int>(r));
                rank_bytes_delta[r] = sent - rank_bytes_prev[r];
                rank_bytes_prev[r] = sent;
            }
            const std::uint64_t resplits = solver.lb_stats().resplits;
            obs::metrics().write_line(
                obs::json::Object()
                    .field("type", "dist")
                    .field("step", solver.step_count())
                    .field("ranks", cfg.ranks)
                    .field("wall_s", wall_s)
                    .field_raw("post_s", number_array(post_s))
                    .field_raw("precompute_s", number_array(precompute_s))
                    .field_raw("interior_s", number_array(interior_s))
                    .field_raw("wait_s", number_array(wait_s))
                    .field_raw("boundary_s", number_array(boundary_s))
                    .field_raw("halo_bytes", byte_array(rank_bytes_delta))
                    .field("resplits", resplits - resplits_prev)
                    .str());
            resplits_prev = resplits;
        }
        if (args.get_flag("verbose") && (s + 1) % report == 0)
            std::printf("  step %6d  t=%.5f  dt=%.3e\n", s + 1,
                        solver.time(), dt);
    }
    const double seconds = timer.elapsed_seconds();

    std::printf(
        "ran %d steps to t=%.5f in %.3f s (%s precision, %s kernel, "
        "%s schedule)\n",
        steps, solver.time(), seconds, std::string(Policy::name).c_str(),
        simd::isa_name(), cfg.overlap ? "overlapped" : "BSP");
    std::printf(
        "phases: pack %.3f s | pre %.3f s | wait %.3f s | "
        "interior %.3f s | boundary %.3f s\n",
        solver.timers().total("halo_pack"),
        solver.timers().total("precompute"),
        solver.timers().total("halo_wait"),
        solver.timers().total("interior"),
        solver.timers().total("boundary"));
    std::printf("halo traffic: %s (%s storage rows)\n",
                util::human_bytes(solver.halo_bytes_sent()).c_str(),
                std::string(Policy::name).c_str());
    if (cfg.lb_interval > 0) {
        const auto& lb = solver.lb_stats();
        std::printf(
            "load balancer: %llu evaluations, %llu re-splits, %llu rows "
            "moved\n",
            static_cast<unsigned long long>(lb.evaluations),
            static_cast<unsigned long long>(lb.resplits),
            static_cast<unsigned long long>(lb.rows_moved));
    }
    std::printf("mass drift: %+.3e (relative)\n",
                (solver.total_mass() - mass0) / mass0);
    if (!ckpt_base.empty()) {
        const io::CheckpointWriteInfo info =
            solver.write_restart(ckpt_base, ckpt_opt);
        std::printf(
            "checkpoint: %s.manifest + %d shards, %llu -> %llu bytes "
            "(v%u)\n",
            ckpt_base.c_str(), cfg.ranks,
            static_cast<unsigned long long>(info.raw_bytes),
            static_cast<unsigned long long>(info.written_bytes),
            info.version);
    }
    const std::vector<double> h = solver.gather_height();
    std::printf("state digest: %s\n",
                util::digest_hex(util::fnv1a_bytes(
                                     h.data(), h.size() * sizeof(double)))
                    .c_str());
    if (!solver.comm_drained()) {
        std::fprintf(stderr,
                     "dam_break_dist: communicator not drained after run\n");
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("dam_break_dist",
                         "instrumented distributed dam break (overlapped "
                         "halo exchange, SIMD row sweeps, load balancing)");
    args.add_option("precision", "minimum | mixed | full", "full");
    args.add_int_option("grid", "global cells per side", "128");
    args.add_int_option("steps", "time steps to run", "100");
    args.add_int_option("ranks", "simulated rank count", "4");
    args.add_option("overlap", "on | off (BSP baseline)", "on");
    args.add_int_option("lb-interval",
                        "re-split rows by measured cost every N steps "
                        "(0 = static partition)",
                        "0");
    args.add_double_option("courant", "CFL number", "0.2");
    args.add_flag("verbose", "print periodic step diagnostics");
    args.add_option("checkpoint",
                    "write a sharded restart set to this base path after "
                    "the run; empty disables",
                    "");
    args.add_option("restart",
                    "restore from this sharded restart set (written at any "
                    "rank count) before stepping; empty starts from the "
                    "initial condition",
                    "");
    args.add_option("checkpoint-compress",
                    "restart shard payloads: off|drift|<bits in [2,32]>",
                    "off");
    util::add_threads_option(args);
    obs::add_obs_options(args);
    if (!args.parse(argc, argv)) return 1;

    try {
        const std::string p = args.get_string("precision");
        if (p == "minimum") return run<fp::MinimumPrecision>(args);
        if (p == "mixed") return run<fp::MixedPrecision>(args);
        if (p == "full") return run<fp::FullPrecision>(args);
        std::fprintf(stderr, "unknown precision '%s'\n%s", p.c_str(),
                     args.help().c_str());
        return 1;
    } catch (const obs::NumericalFault& fault) {
        std::fprintf(stderr,
                     "dam_break_dist: numerical fault in kernel '%s' at "
                     "step %lld: %s\n",
                     fault.kernel().c_str(),
                     static_cast<long long>(fault.step()), fault.what());
        return 2;
    } catch (const std::invalid_argument& err) {
        std::fprintf(stderr, "dam_break_dist: %s\n%s", err.what(),
                     args.help().c_str());
        return 1;
    } catch (const std::exception& e) {
        // Restart-set I/O failures (missing, corrupt, or mismatched
        // shards): a clean nonzero exit instead of std::terminate.
        std::fprintf(stderr, "dam_break_dist: %s\n", e.what());
        return 1;
    }
}
