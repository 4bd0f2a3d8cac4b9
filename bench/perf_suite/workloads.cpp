#include "workloads.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "compress/fixedrate.hpp"
#include "io/async_checkpoint.hpp"
#include "io/checkpoint.hpp"
#include "obs/trace.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace perf_suite {

namespace {

using namespace tp;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kCutPoints = 257;

// clang-format off
const std::vector<WorkloadSpec> kWorkloads = {
    {.name = "clamr_amr_ckpt_mixed",
     .why = "CLAMR dam break, 128^2 coarse grid with 4 AMR levels, mixed "
            "precision, async drift-compressed checkpoint every 20 steps: "
            "rezone steps form the step-time tail; the only I/O",
     .family = Family::Clamr, .precision = "mixed", .grid = 128,
     .levels = 4, .steps = 240, .checkpoint = true, .mass_tol = 1e-6,
     .cut_tol = 1e-5, .canonical_digest = "a56cec733acaea03"},
    {.name = "clamr_uniform_min",
     .why = "CLAMR dam break on a uniform 512^2 mesh, minimum precision, "
            "no checkpoints: the flux sweep streams a regular mesh; the "
            "bypass control for mesh and I/O changes",
     .family = Family::Clamr, .precision = "minimum", .grid = 512,
     .levels = 0, .steps = 200, .mass_tol = 1e-6, .cut_tol = 1e-5,
     .canonical_digest = "87c5cea7478db90a"},
    {.name = "sem_bubble_single",
     .why = "SELF thermal bubble, 8^3 elements at order 7, single "
            "precision: volume and surface kernels dominate; checked "
            "against a double-precision run of the same seed",
     .family = Family::Sem, .precision = "minimum", .elements = 8,
     .order = 7, .steps = 200, .mass_tol = 1e-4, .cut_tol = 1e-3,
     .canonical_digest = "fcd9d271435b46f1"},
    {.name = "dist_8rank_mixed",
     .why = "1024^2 dam break on 8 virtual ranks, overlapped schedule, "
            "mixed precision: the only workload with halo traffic and "
            "rank imbalance",
     .family = Family::Dist, .precision = "mixed", .grid = 1024,
     .ranks = 8, .steps = 160, .mass_tol = 1e-7, .cut_tol = 1e-5,
     .canonical_digest = "a55a5daabdcb4bb5"},
};
// clang-format on

double param(const Params& p, std::string_view name) {
    for (const auto& [key, value] : p)
        if (key == name) return value;
    throw std::logic_error("perf_suite: no parameter " + std::string(name));
}

bool all_finite(const std::vector<double>& v) {
    for (const double x : v)
        if (!std::isfinite(x)) return false;
    return true;
}

perf::KernelWork minus(perf::KernelWork a, const perf::KernelWork& b) {
    a.seconds -= b.seconds;
    a.flops_sp -= b.flops_sp;
    a.flops_dp -= b.flops_dp;
    a.convert_ops -= b.convert_ops;
    a.bytes -= b.bytes;
    a.bytes_compute -= b.bytes_compute;
    a.invocations -= b.invocations;
    return a;
}

/// A solver's stopwatch and ledger totals accrued since construction of
/// this object: the timed window's share, excluding setup.
class Since {
public:
    Since(const util::StopwatchRegistry& timers, const perf::WorkLedger& ledger)
        : timers_(timers), timers0_(timers), ledger_(ledger), ledger0_(ledger) {}

    [[nodiscard]] double seconds(const std::string& name) const {
        return timers_.total(name) - timers0_.total(name);
    }
    [[nodiscard]] perf::KernelWork work(const std::string& kernel) const {
        const perf::KernelWork* now = ledger_.find(kernel);
        const perf::KernelWork* then = ledger0_.find(kernel);
        return minus(now != nullptr ? *now : perf::KernelWork{},
                     then != nullptr ? *then : perf::KernelWork{});
    }
    [[nodiscard]] perf::KernelWork total() const {
        return minus(ledger_.total(), ledger0_.total());
    }

private:
    const util::StopwatchRegistry& timers_;
    const util::StopwatchRegistry timers0_;
    const perf::WorkLedger& ledger_;
    const perf::WorkLedger ledger0_;
};

/// Per-step work of a workload without extra per-step calls.
struct NoWindow {
    template <class Solver>
    NoWindow(const Solver&, const WorkloadSpec&, const RepeatOptions&) {}
    template <class Solver>
    void after_step(const Solver&) {}
    void finish() {}
};

// ---------------------------------------------------------------- CLAMR

template <class Policy>
struct ClamrOps {
    using Solver = shallow::ShallowWaterSolver<Policy>;
    static constexpr const char* kLayerTimers[] = {"cfl", "finite_diff",
                                                   "rezone"};

    static std::unique_ptr<Solver> make(const WorkloadSpec& w,
                                        const Params& p) {
        shallow::Config cfg;
        cfg.geom = {0.0, 0.0, 100.0, 100.0, w.grid, w.grid, w.levels};
        auto s = std::make_unique<Solver>(cfg);
        s->initialize_dam_break({param(p, "h_inside"), param(p, "h_outside"),
                                 param(p, "radius_fraction")});
        return s;
    }
    static double updates(const Solver& s, const WorkloadSpec&) {
        return static_cast<double>(s.mesh().num_cells());
    }
    static double mass(const Solver& s) { return s.total_mass(); }
    static std::vector<double> cut(const Solver& s, const WorkloadSpec& w,
                                   const Params&) {
        // A quarter of a finest cell off the centre line, so no sample
        // sits on a cell face.
        const double fine_dx =
            s.config().geom.width / static_cast<double>(w.grid << w.levels);
        return s.sample_height_vertical(
            s.config().geom.xmin + 0.5 * s.config().geom.width +
                0.25 * fine_dx,
            kCutPoints);
    }

    /// The checkpointing workload's asynchronous drift-compressed writes,
    /// plus the mesh counters' values at the start of the window.
    class Window {
    public:
        Window(const Solver& s, const WorkloadSpec& w, const RepeatOptions& o)
            : rz0_(s.rezone_stats()), dir_(o.scratch_dir) {
            if (w.checkpoint) {
                opt_.mode = io::CheckpointCompress::Drift;
                ckpt_.emplace(opt_);
            }
        }

        /// v1 for the plain workloads, drift-compressed v2 when checkpointing.
        [[nodiscard]] const io::CheckpointOptions& options() const {
            return opt_;
        }

        void after_step(const Solver& s) {
            if (!ckpt_ || s.step_count() % kCheckpointInterval != 0) return;
            last_path_ = dir_ + "/ckpt." + std::to_string(s.step_count());
            TP_OBS_SPAN("bench.checkpoint");
            util::WallTimer t;
            ckpt_->checkpoint(s, last_path_);
            calls_s_.push_back(t.elapsed_seconds());
        }

        void finish() {
            if (!ckpt_) return;
            TP_OBS_SPAN("bench.checkpoint_finish");
            util::WallTimer t;
            ckpt_->finish();
            finish_s_ = t.elapsed_seconds();
        }

        [[nodiscard]] const typename Solver::RezoneStats& rezone0() const {
            return rz0_;
        }

        /// io.* and compress.* metrics of the checkpointing workload.
        void report(const Solver& s, RepeatResult& r) const {
            if (!ckpt_) return;
            const auto n = static_cast<double>(calls_s_.size());
            auto& L = r.layer;
            L["io.ckpt_call_ms"] = median(calls_s_) * 1e3;
            L["io.stall_ms"] = ckpt_->stall_seconds() / n * 1e3;
            L["io.writer_busy_ms"] = ckpt_->writer().busy_seconds() / n * 1e3;
            L["io.finish_ms"] = finish_s_ * 1e3;
            const auto compressed =
                static_cast<double>(s.checkpoint_bytes(opt_));
            L["io.ckpt_kib"] = compressed / 1024.0;
            L["compress.ratio"] =
                static_cast<double>(s.checkpoint_bytes()) / compressed;
            TP_OBS_SPAN("bench.encode");
            std::ostringstream os;
            util::WallTimer t;
            (void)s.write_checkpoint(os, opt_);
            L["compress.encode_ms"] = t.elapsed_seconds() * 1e3;
        }

        /// The last checkpoint of the repeat reads back with every value
        /// within the compressor's advertised bound of the exact state.
        [[nodiscard]] bool verify(const shallow::CheckpointData& exact) const {
            if (!ckpt_) return true;
            try {
                std::ifstream is(last_path_, std::ios::binary);
                if (!is) return false;
                const shallow::CheckpointData back = Solver::read_checkpoint(is);
                const std::uint64_t budget = opt_.drift_budget_ulp;
                return back.step == exact.step && back.cells == exact.cells &&
                       within_bound(exact.h, back.h, budget) &&
                       within_bound(exact.hu, back.hu, budget) &&
                       within_bound(exact.hv, back.hv, budget);
            } catch (const std::exception&) {
                return false;
            }
        }

    private:
        static bool within_bound(const std::vector<double>& exact,
                                 const std::vector<double>& back,
                                 std::uint64_t budget_ulp) {
            if (exact.size() != back.size()) return false;
            const double peak = io::peak_abs(exact);
            const int bits = io::drift_bits(
                peak, budget_ulp,
                io::storage_digits_v<typename Solver::storage_t>);
            const double bound = compress::error_bound(peak, bits);
            for (std::size_t i = 0; i < exact.size(); ++i)
                if (!(std::fabs(back[i] - exact[i]) <= bound)) return false;
            return true;
        }

        typename Solver::RezoneStats rz0_;
        io::CheckpointOptions opt_;
        std::string dir_;
        std::string last_path_;
        std::vector<double> calls_s_;
        double finish_s_ = 0.0;
        std::optional<io::AsyncCheckpointer<Solver>> ckpt_;
    };

    static void layers(const Solver& s, const Since& d, const WorkloadSpec& w,
                       const Window& win, RepeatResult& r) {
        const auto steps = static_cast<double>(w.steps);
        const auto per_step_ms = [&](const char* t) {
            return d.seconds(t) / steps * 1e3;
        };
        auto& L = r.layer;
        L["shallow.cfl_ms"] = per_step_ms("cfl");
        L["shallow.flux_sweep_ms"] = per_step_ms("flux_sweep");
        L["shallow.apply_ms"] =
            per_step_ms("finite_diff") - per_step_ms("flux_sweep");
        const perf::KernelWork fd = d.work("finite_diff");
        L["shallow.gflops"] = fd.measured_gflops();
        L["shallow.flop_per_byte"] = fd.arithmetic_intensity();

        const auto& rz = s.rezone_stats();
        const auto& rz0 = win.rezone0();
        const auto rezones = static_cast<double>(rz.rezones - rz0.rezones);
        const auto touched =
            static_cast<double>(rz.cells_touched - rz0.cells_touched);
        const auto resolved =
            static_cast<double>(rz.resolved_cells - rz0.resolved_cells);
        const auto per_rezone_ms = [&](const char* t) {
            return rezones > 0 ? d.seconds(t) / rezones * 1e3 : 0.0;
        };
        L["mesh.rezones"] = rezones;
        L["mesh.rezone_ms"] = per_rezone_ms("rezone");
        L["mesh.flags_ms"] = per_rezone_ms("rezone_flags");
        L["mesh.adapt_ms"] = per_rezone_ms("rezone_adapt");
        L["mesh.remap_ms"] = per_rezone_ms("rezone_remap");
        L["mesh.cache_ms"] = per_rezone_ms("rezone_cache");
        L["mesh.cells_touched"] = rezones > 0 ? touched / rezones : 0.0;
        L["mesh.resolved_frac"] = touched > 0 ? resolved / touched : 0.0;
        L["mesh.cells_mean"] = r.updates / steps;
        L["mem.state_mib"] = static_cast<double>(s.state_bytes()) / kMiB;
        L["io.checkpoint_mib"] =
            static_cast<double>(s.checkpoint_bytes(win.options())) / kMiB;
        win.report(s, r);

        const perf::KernelWork all = d.total();
        r.counts["flops"] = static_cast<double>(all.flops());
        r.counts["bytes"] =
            static_cast<double>(all.bytes + all.bytes_compute);
        r.counts["rezones"] = rezones;
        r.counts["cells_touched"] = touched;
        r.counts["updates"] = r.updates;
    }

    static void final_state(const Solver& s, const WorkloadSpec& w,
                            const Params& p, const Window& win,
                            RepeatResult& r) {
        std::ostringstream os;
        s.write_checkpoint(os);
        const std::string bytes = std::move(os).str();
        r.digest = fnv1a(bytes);
        std::istringstream is(bytes);
        const shallow::CheckpointData exact = Solver::read_checkpoint(is);
        r.finite = all_finite(exact.h) && all_finite(exact.hu) &&
                   all_finite(exact.hv);
        r.cut = cut(s, w, p);
        r.readback_ok = win.verify(exact);
    }
};

// ------------------------------------------------------------------ SEM

template <class Policy>
struct SemOps {
    using Solver = sem::SpectralEulerSolver<Policy>;
    using Window = NoWindow;
    static constexpr const char* kLayerTimers[] = {
        "volume", "surface", "gradient", "viscous",
        "rk_update", "filter", "cfl"};

    static std::unique_ptr<Solver> make(const WorkloadSpec& w,
                                        const Params& p) {
        sem::SemConfig cfg;
        cfg.nx = cfg.ny = cfg.nz = w.elements;
        cfg.order = w.order;
        auto s = std::make_unique<Solver>(cfg);
        s->initialize_thermal_bubble({param(p, "dtheta"), param(p, "radius"),
                                      param(p, "center_z")});
        return s;
    }
    static double updates(const Solver& s, const WorkloadSpec&) {
        return static_cast<double>(s.num_nodes());
    }
    static double mass(const Solver& s) {
        return s.total_mass_perturbation();
    }
    static std::vector<double> cut(const Solver& s, const WorkloadSpec&,
                                   const Params& p) {
        return s.sample_density_anomaly_x(0.5 * s.config().ly,
                                          param(p, "center_z"), kCutPoints);
    }

    static void layers(const Solver& s, const Since& d, const WorkloadSpec& w,
                       const Window&, RepeatResult& r) {
        const auto steps = static_cast<double>(w.steps);
        const auto per_step_ms = [&](const char* t) {
            return d.seconds(t) / steps * 1e3;
        };
        auto& L = r.layer;
        L["sem.volume_ms"] = per_step_ms("volume");
        L["sem.surface_ms"] = per_step_ms("surface");
        L["sem.rk_update_ms"] = per_step_ms("rk_update");
        L["sem.filter_ms"] = per_step_ms("filter");
        L["sem.cfl_ms"] = per_step_ms("cfl");
        L["sem.volume_gflops"] = d.work("volume").measured_gflops();
        const perf::KernelWork all = d.total();
        L["sem.flop_per_byte"] = all.arithmetic_intensity();
        L["mem.state_mib"] = static_cast<double>(s.state_bytes()) / kMiB;
        L["io.checkpoint_mib"] =
            static_cast<double>(s.checkpoint_bytes()) / kMiB;
        r.counts["flops"] = static_cast<double>(all.flops());
        r.counts["bytes"] =
            static_cast<double>(all.bytes + all.bytes_compute);
        r.counts["updates"] = r.updates;
    }

    static void final_state(const Solver& s, const WorkloadSpec& w,
                            const Params& p, const Window&, RepeatResult& r) {
        r.digest = fnv1a(s.state_fingerprint());
        r.finite = true;
        for (int v = 0; v < sem::kVars; ++v)
            r.finite = r.finite && std::isfinite(s.max_abs(v));
        r.cut = cut(s, w, p);
    }
};

// ----------------------------------------------------------------- dist

template <class Policy>
struct DistOps {
    using Solver = par::DistributedShallowSolver<Policy>;
    static constexpr const char* kLayerTimers[] = {
        "halo_pack", "precompute", "halo_wait", "interior", "boundary",
        "rebalance"};

    static std::unique_ptr<Solver> make(const WorkloadSpec& w,
                                        const Params& p) {
        par::DistConfig cfg;
        cfg.nx = cfg.ny = w.grid;
        cfg.ranks = w.ranks;
        cfg.overlap = true;
        cfg.lb_interval = 0;
        auto s = std::make_unique<Solver>(cfg);
        s->initialize_dam_break(param(p, "h_inside"), param(p, "h_outside"),
                                param(p, "radius_fraction"));
        return s;
    }
    static double updates(const Solver&, const WorkloadSpec& w) {
        return static_cast<double>(w.grid) * static_cast<double>(w.grid);
    }
    static double mass(const Solver& s) { return s.total_mass(); }
    static std::vector<double> column(const std::vector<double>& h, int n) {
        std::vector<double> c(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j)
            c[static_cast<std::size_t>(j)] =
                h[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(n / 2)];
        return c;
    }
    static std::vector<double> cut(const Solver& s, const WorkloadSpec& w,
                                   const Params&) {
        return column(s.gather_height(), w.grid);
    }

    /// Per-rank phase totals summed over the window's steps, and the
    /// halo byte counter at its start.
    class Window {
    public:
        Window(const Solver& s, const WorkloadSpec& w, const RepeatOptions&)
            : halo0_(s.halo_bytes_sent()),
              total_(static_cast<std::size_t>(w.ranks), 0.0) {}
        void after_step(const Solver& s) {
            const auto& rp = s.rank_phase_seconds();
            for (std::size_t k = 0; k < rp.size() && k < total_.size(); ++k) {
                total_[k] += rp[k].total();
                wait_ += rp[k].wait;
            }
        }
        void finish() {}

        std::uint64_t halo0_;
        std::vector<double> total_;
        double wait_ = 0.0;
    };

    static void layers(const Solver& s, const Since& d, const WorkloadSpec& w,
                       const Window& win, RepeatResult& r) {
        const auto steps = static_cast<double>(w.steps);
        const auto per_step_ms = [&](const char* t) {
            return d.seconds(t) / steps * 1e3;
        };
        auto& L = r.layer;
        L["par.precompute_ms"] = per_step_ms("precompute");
        L["par.interior_ms"] = per_step_ms("interior");
        L["par.boundary_ms"] = per_step_ms("boundary");
        L["par.halo_pack_ms"] = per_step_ms("halo_pack");
        L["par.halo_wait_ms"] = per_step_ms("halo_wait");
        const auto halo =
            static_cast<double>(s.halo_bytes_sent() - win.halo0_);
        L["par.halo_kib"] = halo / steps / 1024.0;
        double sum = 0.0;
        double peak = 0.0;
        for (const double t : win.total_) {
            sum += t;
            peak = std::max(peak, t);
        }
        const double mean = sum / static_cast<double>(win.total_.size());
        L["par.imbalance_frac"] = peak > 0.0 ? 1.0 - mean / peak : 0.0;
        L["par.wait_frac"] = sum > 0.0 ? win.wait_ / sum : 0.0;
        const perf::KernelWork all = d.total();
        r.counts["flops"] = static_cast<double>(all.flops());
        r.counts["bytes"] =
            static_cast<double>(all.bytes + all.bytes_compute);
        r.counts["halo_bytes"] = halo;
    }

    static void final_state(const Solver& s, const WorkloadSpec& w,
                            const Params&, const Window&, RepeatResult& r) {
        const std::vector<double> h = s.gather_height();
        r.digest = fnv1a_bytes(h.data(), h.size() * sizeof(double));
        r.finite = all_finite(h);
        r.drained = s.comm_drained();
        r.cut = column(h, w.grid);
    }
};

// ---------------------------------------------------------------- drive

/// One repeat: setup, then w.steps steps as a closed loop (the next
/// step() starts only after the previous one returned), total_mass()
/// every kDiagnosticInterval steps, and the workload's per-step extras.
template <class Ops>
RepeatResult drive(const WorkloadSpec& w, const Params& p,
                   const RepeatOptions& o) {
    RepeatResult r;
    const bool traced = !o.trace_path.empty();
    if (traced) obs::trace_start(o.trace_path);
    const double rss0 = vmrss_bytes();
    util::WallTimer setup;
    std::unique_ptr<typename Ops::Solver> s;
    {
        TP_OBS_SPAN("bench.setup");
        s = Ops::make(w, p);
    }
    r.setup_s = setup.elapsed_seconds();
    if (o.setup_only) {
        if (traced) r.trace_events = obs::trace_stop();
        return r;
    }

    const Since since(s->timers(), s->ledger());
    typename Ops::Window win(*s, w, o);
    const double mass0 = Ops::mass(*s);
    r.step_s.reserve(static_cast<std::size_t>(w.steps));
    double mass_s = 0.0;
    int mass_calls = 0;
    bool diagnostics_finite = true;
    util::WallTimer window;
    for (int i = 1; i <= w.steps; ++i) {
        {
            TP_OBS_SPAN("bench.step");
            util::WallTimer t;
            s->step();
            r.step_s.push_back(t.elapsed_seconds());
        }
        r.updates += Ops::updates(*s, w);
        if (i % kDiagnosticInterval == 0) {
            TP_OBS_SPAN("bench.total_mass");
            util::WallTimer t;
            const double m = Ops::mass(*s);
            mass_s += t.elapsed_seconds();
            ++mass_calls;
            diagnostics_finite = diagnostics_finite && std::isfinite(m);
        }
        win.after_step(*s);
    }
    win.finish();
    r.wall_s = window.elapsed_seconds();
    r.rss_growth_bytes = vmrss_bytes() - rss0;

    double step_sum = 0.0;
    for (const double t : r.step_s) step_sum += t;
    double layer_s = 0.0;
    for (const char* name : Ops::kLayerTimers) layer_s += since.seconds(name);
    r.layer["bench.unattributed_frac"] = 1.0 - layer_s / step_sum;
    r.layer["sum.total_mass_ms"] =
        mass_calls > 0 ? mass_s / mass_calls * 1e3 : 0.0;
    Ops::layers(*s, since, w, win, r);
    if (traced) r.trace_events = obs::trace_stop();

    Ops::final_state(*s, w, p, win, r);
    r.finite = r.finite && diagnostics_finite;
    r.mass_drift = std::fabs((Ops::mass(*s) - mass0) / mass0);
    return r;
}

template <class Ops>
std::vector<double> run_reference(const WorkloadSpec& w, const Params& p) {
    auto s = Ops::make(w, p);
    for (int i = 0; i < w.steps; ++i) s->step();
    return Ops::cut(*s, w, p);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
    for (const auto& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

WorkloadSpec quick_variant(WorkloadSpec w) {
    switch (w.family) {
        case Family::Clamr:
            w.grid = w.levels > 0 ? 32 : 64;
            w.levels = std::min(w.levels, 2);
            break;
        case Family::Sem:
            w.elements = 2;
            w.order = 3;
            break;
        case Family::Dist:
            w.grid = 64;
            break;
    }
    w.steps = kCheckpointInterval;
    w.canonical_digest = "";
    return w;
}

Params draw_params(const WorkloadSpec& w, std::uint64_t seed) {
    Params p;
    if (w.family == Family::Sem) {
        const sem::ThermalBubble b{};
        p = {{"dtheta", b.dtheta},
             {"radius", b.radius},
             {"center_z", b.center_z}};
    } else {
        const shallow::DamBreak ic{};
        p = {{"h_inside", ic.h_inside},
             {"h_outside", ic.h_outside},
             {"radius_fraction", ic.radius_fraction}};
    }
    if (seed != 0) {
        util::Rng rng(seed);
        for (auto& [key, value] : p) value *= rng.uniform(0.95, 1.05);
    }
    return p;
}

RepeatResult run_repeat(const WorkloadSpec& w, const Params& params,
                        const RepeatOptions& opt) {
    const std::string_view prec = w.precision;
    switch (w.family) {
        case Family::Clamr:
            if (prec == "minimum")
                return drive<ClamrOps<fp::MinimumPrecision>>(w, params, opt);
            if (prec == "mixed")
                return drive<ClamrOps<fp::MixedPrecision>>(w, params, opt);
            break;
        case Family::Sem:
            if (prec == "minimum")
                return drive<SemOps<fp::MinimumPrecision>>(w, params, opt);
            break;
        case Family::Dist:
            if (prec == "mixed")
                return drive<DistOps<fp::MixedPrecision>>(w, params, opt);
            break;
    }
    throw std::invalid_argument(std::string("perf_suite: no ") + w.precision +
                                " precision for workload " + w.name);
}

std::vector<double> reference_cut(const WorkloadSpec& w,
                                  const Params& params) {
    switch (w.family) {
        case Family::Clamr:
            return run_reference<ClamrOps<fp::FullPrecision>>(w, params);
        case Family::Sem:
            return run_reference<SemOps<fp::FullPrecision>>(w, params);
        case Family::Dist:
            return run_reference<DistOps<fp::FullPrecision>>(w, params);
    }
    return {};
}

double vmrss_bytes() {
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0;  // reported in kB
    }
    return 0.0;
}

}  // namespace perf_suite
