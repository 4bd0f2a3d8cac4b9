// thermal_bubble: the SELF-analogue spectral element mini-app as a
// standalone command-line tool. Simulates a warm bubble rising in a
// neutrally stratified atmosphere with the DG spectral element solver.
//
//   $ ./thermal_bubble --precision single --elements 6 --order 7
//         --steps 50 --lineout rho.csv
//
// (one command, wrapped without a trailing backslash: -Werror=comment
// rejects one at the end of a line comment).

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "analysis/linecut.hpp"
#include "fp/governor.hpp"
#include "io/async_checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sem/dgsem.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

using namespace tp;

namespace {

template <typename Policy>
int run(const util::ArgParser& args) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = args.get_int("elements");
    cfg.order = args.get_int("order");
    cfg.courant = args.get_double("courant");

    sem::ThermalBubble bubble;
    bubble.dtheta = args.get_double("dtheta");
    bubble.radius = args.get_double("radius");

    const int nthreads = util::apply_threads_option(args);
    const fp::GovernorConfig gov_cfg = util::apply_governor_options(args);
    const io::CheckpointOptions ckpt_opt =
        util::apply_checkpoint_options(args, gov_cfg.drift_budget_ulp);

    const obs::ObsGuard obs_guard(
        args, "thermal_bubble",
        {{"precision", std::string(Policy::name)},
         {"elements", std::to_string(cfg.nx)},
         {"order", std::to_string(cfg.order)},
         {"courant", std::to_string(cfg.courant)},
         {"governor", gov_cfg.enabled ? "on" : "off"},
         {"drift_budget", std::to_string(gov_cfg.drift_budget_ulp)},
         {"checkpoint_compress", args.get_string("checkpoint-compress")},
         {"checkpoint_async",
          args.get_flag("checkpoint-async") ? "on" : "off"}});

    // The governor outlives the solver's use of it; the record sink routes
    // each transition into the metrics stream as a {"type":"governor"} line.
    fp::PrecisionGovernor governor(gov_cfg);
    governor.set_record_sink([](const std::string& line) {
        if (obs::metrics().is_open()) obs::metrics().write_line(line);
    });

    sem::SpectralEulerSolver<Policy> solver(cfg);
    solver.set_governor(&governor);
    solver.initialize_thermal_bubble(bubble);
    if (const std::string rpath = args.get_string("restart");
        !rpath.empty()) {
        std::ifstream is(rpath, std::ios::binary);
        if (!is)
            throw std::runtime_error("restart: cannot open " + rpath);
        solver.restore_checkpoint(
            sem::SpectralEulerSolver<Policy>::read_checkpoint(is));
        std::printf("restarted from %s at step %lld (t=%.4f)\n",
                    rpath.c_str(),
                    static_cast<long long>(solver.step_count()),
                    solver.time());
    }
    const double mass0 = solver.total_mass_perturbation();

    // Shared checkpoint sink (see dam_break.cpp): synchronous writes
    // emit the metrics record inline; asynchronous writes snapshot here
    // and report from the writer thread. Bytes are identical either way.
    io::AsyncCheckpointer<sem::SpectralEulerSolver<Policy>> async_ckpt(
        ckpt_opt);
    const bool ckpt_async = args.get_flag("checkpoint-async");
    const std::string ckpt_path = args.get_string("checkpoint");
    const int ckpt_interval = args.get_int("checkpoint-interval");
    auto write_ckpt = [&](const std::string& path) {
        if (ckpt_async) {
            async_ckpt.checkpoint(solver, path);
            return;
        }
        util::WallTimer write_timer;
        std::ofstream os(path, std::ios::binary);
        if (!os)
            throw std::runtime_error("checkpoint: cannot open " + path);
        const io::CheckpointWriteInfo info =
            solver.write_checkpoint(os, ckpt_opt);
        os.flush();
        io::require_write(os);
        if (obs::metrics().is_open())
            obs::metrics().write_line(io::checkpoint_record(
                path, solver.step_count(), info, 0.0,
                write_timer.elapsed_seconds(), 0.0, false));
    };
    std::printf(
        "initialized: %d^3 elements, order %d, %zu nodes (%zu DOF), "
        "%d thread%s\n",
        cfg.nx, cfg.order, solver.num_nodes(),
        solver.degrees_of_freedom(), nthreads,
        nthreads == 1 ? "" : "s");
    std::printf("bubble: dtheta=%.2f K, radius=%.0f m; initial integral "
                "rho' = %.6e\n",
                bubble.dtheta, bubble.radius, mass0);

    const int steps = args.get_int("steps");
    util::WallTimer timer;
    const int report = std::max(1, steps / 10);
    std::map<std::string, double> phase_baseline;
    for (int s = 0; s < steps; ++s) {
        util::WallTimer step_timer;
        const double dt = solver.step();
        if (governor.enabled()) governor.end_step(solver.step_count());
        const double wall_s = step_timer.elapsed_seconds();
        if (obs::metrics().is_open())
            obs::metrics().write_line(
                obs::json::Object()
                    .field("type", "step")
                    .field("step",
                           static_cast<std::int64_t>(solver.step_count()))
                    .field("t", solver.time())
                    .field("dt", dt)
                    .field("wall_s", wall_s)
                    .field("nodes",
                           static_cast<std::uint64_t>(solver.num_nodes()))
                    .field("mass_perturbation",
                           solver.total_mass_perturbation())
                    .field("flops", solver.ledger().total().flops())
                    .field_raw("phase_seconds",
                               obs::timer_delta_json(solver.timers(),
                                                     phase_baseline))
                    .str());
        if (!ckpt_path.empty() && ckpt_interval > 0 &&
            solver.step_count() % ckpt_interval == 0)
            write_ckpt(ckpt_path + "." +
                       std::to_string(solver.step_count()));
        if (args.get_flag("verbose") && (s + 1) % report == 0)
            std::printf("  step %5d  t=%.4f  dt=%.3e  max w-momentum "
                        "%.3e\n",
                        s + 1, solver.time(), dt,
                        solver.max_abs(sem::MZ));
    }
    const double seconds = timer.elapsed_seconds();

    std::printf("ran %d RK3 steps to t=%.4f s in %.3f s (%s precision)\n",
                steps, solver.time(), seconds,
                std::string(Policy::name).c_str());
    std::printf("volume: %.3fs | surface: %.3fs | rk: %.3fs | filter: "
                "%.3fs\n",
                solver.timers().total("volume"),
                solver.timers().total("surface"),
                solver.timers().total("rk_update"),
                solver.timers().total("filter"));
    std::printf("integral rho' drift: %+.3e (relative)\n",
                (solver.total_mass_perturbation() - mass0) / mass0);
    if (governor.enabled()) {
        std::size_t promotes = 0;
        for (const auto& d : governor.decisions())
            if (d.action == "promote") ++promotes;
        // The solver registers exactly one governed kernel, so id 0 is
        // sem.rhs.
        std::printf(
            "governor: %zu transitions (%zu promotes, %zu demotes), "
            "rhs reduced %llu of %llu governed steps\n",
            governor.decisions().size(), promotes,
            governor.decisions().size() - promotes,
            static_cast<unsigned long long>(governor.reduced_steps(0)),
            static_cast<unsigned long long>(governor.observed_steps(0)));
    }
    std::printf("state: %s resident, checkpoint %s%s\n",
                util::human_bytes(solver.state_bytes()).c_str(),
                util::human_bytes(solver.checkpoint_bytes(ckpt_opt)).c_str(),
                ckpt_opt.compressed() ? " (compressed)" : "");
    if (!ckpt_path.empty()) {
        write_ckpt(ckpt_path);
        async_ckpt.finish();  // rethrows the first writer-thread error
        std::printf("wrote checkpoint to %s%s\n", ckpt_path.c_str(),
                    ckpt_async ? " (async)" : "");
    }

    if (const std::string path = args.get_string("lineout");
        !path.empty()) {
        analysis::LineCut cut;
        cut.label = std::string(Policy::name);
        const int nsamples = 257;
        cut.position = solver.sample_positions_x(nsamples);
        cut.value = solver.sample_density_anomaly_x(
            0.5 * cfg.ly, bubble.center_z, nsamples);
        const std::vector<analysis::LineCut> cuts{cut};
        analysis::write_csv(path, cuts);
        std::printf("wrote density-anomaly line-out to %s\n", path.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("thermal_bubble",
                         "SELF-analogue rising warm bubble (3-D "
                         "compressible flow, DG spectral elements)");
    args.add_option("precision", "single | mixed | double", "double");
    args.add_int_option("elements", "elements per direction", "4");
    args.add_int_option("order", "polynomial order per direction", "7");
    args.add_int_option("steps", "RK3 steps to run", "20");
    args.add_double_option("courant", "CFL number", "0.3");
    args.add_double_option("dtheta",
                           "bubble potential-temperature excess (K)", "0.5");
    args.add_double_option("radius", "bubble radius (m)", "250.0");
    args.add_option("lineout",
                    "write density-anomaly line-out CSV to this path", "");
    args.add_flag("verbose", "print periodic step diagnostics");
    util::add_checkpoint_options(args);
    util::add_threads_option(args);
    util::add_governor_options(args);
    obs::add_obs_options(args);
    if (!args.parse(argc, argv)) return 1;

    try {
        const std::string p = args.get_string("precision");
        if (p == "single" || p == "minimum")
            return run<fp::MinimumPrecision>(args);
        if (p == "mixed") return run<fp::MixedPrecision>(args);
        if (p == "double" || p == "full")
            return run<fp::FullPrecision>(args);
        std::fprintf(stderr, "unknown precision '%s'\n%s", p.c_str(),
                     args.help().c_str());
        return 1;
    } catch (const obs::NumericalFault& fault) {
        std::fprintf(stderr,
                     "thermal_bubble: numerical fault in kernel '%s' at "
                     "step %lld: %s\n",
                     fault.kernel().c_str(),
                     static_cast<long long>(fault.step()), fault.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "thermal_bubble: %s\n", e.what());
        return 1;
    }
}
