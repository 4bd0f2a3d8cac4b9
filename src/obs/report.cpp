#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "obs/json.hpp"

namespace tp::obs::report {

namespace {

/// True when `name` nests inside some other phase in `phases` by the
/// naming convention parent + '_' + detail (rezone_remap under rezone).
bool is_sub_phase(const std::string& name,
                  const std::map<std::string, double>& phases) {
    for (const auto& [other, seconds] : phases) {
        (void)seconds;
        if (other.size() < name.size() && name.compare(0, other.size(), other) == 0 &&
            name[other.size()] == '_')
            return true;
    }
    return false;
}

void digest_manifest(const json::Value& rec, RunSummary& out) {
    out.program = rec.string_or("program", out.program);
    for (const auto& [key, value] : rec.members()) {
        if (key == "type") continue;
        if (value.is_string()) out.manifest[key] = value.as_string();
    }
}

void digest_step(const json::Value& rec, RunSummary& out) {
    ++out.steps;
    if (const json::Value* w = rec.find("wall_s");
        w != nullptr && w->is_number()) {
        out.wall_s_total += w->as_number();
        ++out.wall_s_steps;
    }
    out.final_time = rec.number_or("t", out.final_time);
    if (const json::Value* f = rec.find("flops");
        f != nullptr && f->is_number())
        out.flops = static_cast<std::uint64_t>(f->as_number());
    out.rezones = static_cast<std::int64_t>(
        rec.number_or("rezones", static_cast<double>(out.rezones)));
    if (const json::Value* phases = rec.find("phase_seconds");
        phases != nullptr && phases->is_object())
        for (const auto& [name, seconds] : phases->members())
            if (seconds.is_number())
                out.phase_seconds[name] += seconds.as_number();
}

void digest_numerics(const json::Value& rec, RunSummary& out) {
    const std::string key =
        rec.string_or("kernel", "?") + "/" + rec.string_or("array", "?");
    NumericsEntry& e = out.numerics[key];
    e.samples = static_cast<std::uint64_t>(rec.number_or("samples", 0.0));
    e.exact = static_cast<std::uint64_t>(rec.number_or("exact", 0.0));
    e.max_ulp = static_cast<std::uint64_t>(rec.number_or("max_ulp", 0.0));
    e.mean_ulp = rec.number_or("mean_ulp", 0.0);
    // The builder writes non-finite doubles as null; a null max_rel means
    // the true maximum was infinite (a NaN/zero-reference sample).
    if (const json::Value* mr = rec.find("max_rel");
        mr != nullptr && mr->is_number()) {
        e.max_rel = mr->as_number();
        e.max_rel_finite = true;
    } else {
        e.max_rel = 0.0;
        e.max_rel_finite = false;
    }
    e.mean_rel = rec.number_or("mean_rel", 0.0);
    e.sum_abs_err = rec.number_or("sum_abs_err", 0.0);
    e.max_abs_ref = rec.number_or("max_abs_ref", 0.0);
    e.rel_hist.clear();
    if (const json::Value* hist = rec.find("rel_hist");
        hist != nullptr && hist->is_array())
        for (const json::Value& bucket : hist->items())
            e.rel_hist.push_back(static_cast<std::uint64_t>(
                bucket.is_number() ? bucket.as_number() : 0.0));
    e.rel_hist_lo_exp =
        static_cast<std::int64_t>(rec.number_or("rel_hist_lo_exp", 0.0));
    e.sample_stride =
        static_cast<std::uint64_t>(rec.number_or("sample_stride", 0.0));
}

void digest_governor(const json::Value& rec, RunSummary& out) {
    GovernorEvent e;
    e.step = static_cast<std::int64_t>(rec.number_or("step", 0.0));
    e.kernel = rec.string_or("kernel", "?");
    e.action = rec.string_or("action", "?");
    e.from = rec.string_or("from", "?");
    e.to = rec.string_or("to", "?");
    e.max_ulp = static_cast<std::uint64_t>(rec.number_or("max_ulp", 0.0));
    e.tail_frac = rec.number_or("tail_frac", 0.0);
    e.samples = static_cast<std::uint64_t>(rec.number_or("samples", 0.0));
    out.governor_events.push_back(std::move(e));
}

void read_number_array(const json::Value& rec, const char* key,
                       std::vector<double>& out) {
    if (const json::Value* arr = rec.find(key);
        arr != nullptr && arr->is_array())
        for (const json::Value& v : arr->items())
            out.push_back(v.is_number() ? v.as_number() : 0.0);
}

void digest_dist(const json::Value& rec, RunSummary& out) {
    DistStep d;
    d.step = static_cast<std::int64_t>(rec.number_or("step", 0.0));
    d.wall_s = rec.number_or("wall_s", 0.0);
    read_number_array(rec, "post_s", d.post_s);
    read_number_array(rec, "precompute_s", d.precompute_s);
    read_number_array(rec, "interior_s", d.interior_s);
    read_number_array(rec, "wait_s", d.wait_s);
    read_number_array(rec, "boundary_s", d.boundary_s);
    if (const json::Value* arr = rec.find("halo_bytes");
        arr != nullptr && arr->is_array())
        for (const json::Value& v : arr->items())
            d.halo_bytes.push_back(static_cast<std::uint64_t>(
                v.is_number() ? v.as_number() : 0.0));
    d.resplits = static_cast<std::int64_t>(rec.number_or("resplits", 0.0));
    out.dist_steps.push_back(std::move(d));
}

void digest_trace(const json::Value& rec, RunSummary& out) {
    out.has_trace_record = true;
    out.trace_events +=
        static_cast<std::uint64_t>(rec.number_or("events", 0.0));
    out.trace_dropped_events +=
        static_cast<std::uint64_t>(rec.number_or("dropped", 0.0));
}

void digest_checkpoint(const json::Value& rec, RunSummary& out) {
    ++out.checkpoints;
    out.checkpoint_raw_bytes +=
        static_cast<std::uint64_t>(rec.number_or("raw_bytes", 0.0));
    out.checkpoint_written_bytes +=
        static_cast<std::uint64_t>(rec.number_or("written_bytes", 0.0));
    out.checkpoint_write_s += rec.number_or("write_s", 0.0);
    // stall_s is the writer's cumulative solver-side stall at record
    // time, so the last record carries the run total.
    out.checkpoint_stall_s =
        rec.number_or("stall_s", out.checkpoint_stall_s);
}

}  // namespace

double RunSummary::rezone_share() const {
    double top_total = 0.0;
    double rezone = 0.0;
    for (const auto& [name, seconds] : phase_seconds) {
        if (is_sub_phase(name, phase_seconds)) continue;
        top_total += seconds;
        if (name == "rezone") rezone = seconds;
    }
    return top_total > 0.0 ? rezone / top_total : 0.0;
}

RunSummary summarize(const std::vector<std::string>& lines) {
    RunSummary out;
    for (const std::string& line : lines) {
        if (line.empty()) continue;
        const auto rec = json::parse(line);
        if (!rec || !rec->is_object()) {
            ++out.invalid_lines;  // crash-truncated tail, or not a record
            continue;
        }
        const json::Value* type = rec->find("type");
        if (type == nullptr || !type->is_string()) {
            ++out.invalid_lines;
            continue;
        }
        const std::string& t = type->as_string();
        if (t == "manifest")
            digest_manifest(*rec, out);
        else if (t == "step")
            digest_step(*rec, out);
        else if (t == "numerics")
            digest_numerics(*rec, out);
        else if (t == "governor")
            digest_governor(*rec, out);
        else if (t == "checkpoint")
            digest_checkpoint(*rec, out);
        else if (t == "dist")
            digest_dist(*rec, out);
        else if (t == "trace")
            digest_trace(*rec, out);
        else if (t == "diagnostic")
            ++out.diagnostics;
        else if (t == "probe")
            ++out.probes;
        else if (t == "table")
            ;  // bench table echo; nothing to roll up
        else
            ++out.unknown_records;
    }
    return out;
}

std::optional<RunSummary> load_metrics_file(const std::string& path,
                                            std::string* error) {
    std::ifstream is(path);
    if (!is) {
        if (error != nullptr) *error = "cannot open " + path;
        return std::nullopt;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return summarize(lines);
}

DiffResult diff_runs(const RunSummary& baseline, const RunSummary& candidate,
                     const Thresholds& t) {
    DiffResult out;

    if (baseline.wall_s_steps > 0 && candidate.wall_s_steps > 0) {
        const double base = baseline.mean_step_wall_s();
        const double cand = candidate.mean_step_wall_s();
        const double limit = base * (1.0 + t.step_time_frac);
        if (cand > limit)
            out.regressions.push_back(
                {"mean_step_wall_s", base, cand, limit});
    } else {
        out.notes.push_back(
            "step-time comparison skipped: a run has no wall_s fields");
    }

    {
        const double base = baseline.rezone_share();
        const double cand = candidate.rezone_share();
        const double limit = base + t.rezone_share_pts;
        if (cand > limit)
            out.regressions.push_back({"rezone_share", base, cand, limit});
    }

    for (const auto& [key, cand] : candidate.numerics) {
        const auto bit = baseline.numerics.find(key);
        if (bit == baseline.numerics.end()) {
            out.notes.push_back("kernel only in candidate: " + key);
            continue;
        }
        const NumericsEntry& base = bit->second;
        const double limit =
            static_cast<double>(base.max_ulp) * t.ulp_factor;
        if (static_cast<double>(cand.max_ulp) > limit)
            out.regressions.push_back({"max_ulp[" + key + "]",
                                       static_cast<double>(base.max_ulp),
                                       static_cast<double>(cand.max_ulp),
                                       limit});
        // An infinite max_rel appearing where the baseline was finite is
        // a new NaN/zero-reference divergence even when ULP counts agree.
        if (!cand.max_rel_finite && base.max_rel_finite)
            out.regressions.push_back({"max_rel[" + key + "] became infinite",
                                       base.max_rel, 0.0, 0.0});
    }
    for (const auto& [key, base] : baseline.numerics) {
        (void)base;
        if (candidate.numerics.find(key) == candidate.numerics.end())
            out.notes.push_back("kernel only in baseline: " + key);
    }
    // Governor transitions are informational: the count depends on budget
    // and physics, so a shift is worth a note but is not a regression.
    if (baseline.governor_events.size() != candidate.governor_events.size())
        out.notes.push_back(
            "governor transitions differ: baseline " +
            std::to_string(baseline.governor_events.size()) +
            ", candidate " +
            std::to_string(candidate.governor_events.size()));

    // Critical-path imbalance gate — only when both runs carry dist
    // records (a serial run diffed against a distributed one is an
    // asymmetry, not a regression).
    if (!baseline.dist_steps.empty() && !candidate.dist_steps.empty()) {
        const CriticalPathReport base_cp = critical_path(baseline);
        const CriticalPathReport cand_cp = critical_path(candidate);
        const double limit =
            base_cp.imbalance_share + t.imbalance_share_pts;
        if (cand_cp.imbalance_share > limit)
            out.regressions.push_back({"dist_imbalance_share",
                                       base_cp.imbalance_share,
                                       cand_cp.imbalance_share, limit});
        // Halo traffic is a deterministic function of the decomposition:
        // when the runs took the same number of steps and the balancer
        // re-split the same number of times, the byte totals must match
        // exactly — a drift means the wire protocol changed.
        const auto totals = [](const RunSummary& r) {
            std::uint64_t bytes = 0;
            std::int64_t resplits = 0;
            for (const DistStep& d : r.dist_steps) {
                for (std::uint64_t b : d.halo_bytes) bytes += b;
                resplits += d.resplits;
            }
            return std::pair<std::uint64_t, std::int64_t>{bytes, resplits};
        };
        const auto [base_bytes, base_resplits] = totals(baseline);
        const auto [cand_bytes, cand_resplits] = totals(candidate);
        if (baseline.dist_steps.size() == candidate.dist_steps.size() &&
            base_resplits == cand_resplits) {
            if (base_bytes != cand_bytes)
                out.regressions.push_back(
                    {"dist_halo_bytes",
                     static_cast<double>(base_bytes),
                     static_cast<double>(cand_bytes),
                     static_cast<double>(base_bytes)});
        } else {
            out.notes.push_back(
                "halo-byte comparison skipped: step or re-split counts "
                "differ");
        }
    } else if (baseline.dist_steps.empty() !=
               candidate.dist_steps.empty()) {
        out.notes.push_back("dist records present in only one run");
    }
    return out;
}

namespace {

/// The longest phase that `name` nests inside (parent + '_' + detail
/// convention) — its direct parent. Empty for top-level phases.
std::string direct_parent(const std::string& name,
                          const std::map<std::string, double>& phases) {
    std::string best;
    for (const auto& [other, seconds] : phases) {
        (void)seconds;
        if (other.size() < name.size() && other.size() > best.size() &&
            name.compare(0, other.size(), other) == 0 &&
            name[other.size()] == '_')
            best = other;
    }
    return best;
}

}  // namespace

std::vector<PhaseRow> phase_rollup(const RunSummary& run) {
    const auto& phases = run.phase_seconds;
    double top_total = 0.0;
    for (const auto& [name, seconds] : phases)
        if (!is_sub_phase(name, phases)) top_total += seconds;

    // Exclusive (self) time: a phase's seconds minus its direct
    // children's. Nested timers make a parent read 100% inclusive,
    // which hides where the time actually goes.
    std::map<std::string, double> child_seconds;
    for (const auto& [name, seconds] : phases) {
        const std::string parent = direct_parent(name, phases);
        if (!parent.empty()) child_seconds[parent] += seconds;
    }
    const auto self_of = [&](const std::string& name, double seconds) {
        const auto it = child_seconds.find(name);
        const double self =
            it == child_seconds.end() ? seconds : seconds - it->second;
        return self < 0.0 ? 0.0 : self;  // clamp timer jitter
    };

    std::vector<PhaseRow> top;
    for (const auto& [name, seconds] : phases)
        if (!is_sub_phase(name, phases))
            top.push_back({name, seconds, self_of(name, seconds),
                           top_total > 0.0 ? seconds / top_total : 0.0,
                           false});
    std::sort(top.begin(), top.end(), [](const PhaseRow& a, const PhaseRow& b) {
        return a.seconds > b.seconds;
    });

    std::vector<PhaseRow> out;
    for (const PhaseRow& parent : top) {
        out.push_back(parent);
        std::vector<PhaseRow> subs;
        for (const auto& [name, seconds] : phases)
            if (name.size() > parent.phase.size() + 1 &&
                name.compare(0, parent.phase.size(), parent.phase) == 0 &&
                name[parent.phase.size()] == '_')
                subs.push_back({name, seconds, self_of(name, seconds),
                                top_total > 0.0 ? seconds / top_total : 0.0,
                                true});
        std::sort(subs.begin(), subs.end(),
                  [](const PhaseRow& a, const PhaseRow& b) {
                      return a.seconds > b.seconds;
                  });
        out.insert(out.end(), subs.begin(), subs.end());
    }
    return out;
}

CriticalPathReport critical_path(const RunSummary& run) {
    CriticalPathReport out;
    double sum_t = 0.0, sum_compute = 0.0, sum_wait = 0.0, sum_imb = 0.0;
    double before_t = 0.0, before_imb = 0.0;
    double after_t = 0.0, after_imb = 0.0;
    bool resplit_seen = false;
    for (const DistStep& d : run.dist_steps) {
        const std::size_t nr = d.post_s.size();
        if (nr == 0 || d.precompute_s.size() != nr ||
            d.interior_s.size() != nr || d.wait_s.size() != nr ||
            d.boundary_s.size() != nr)
            continue;  // malformed record — skip, don't fail
        if (out.ranks == 0) {
            out.ranks = static_cast<int>(nr);
            out.per_rank.assign(nr, {});
        }
        if (static_cast<int>(nr) != out.ranks) continue;
        // A re-split runs at the head of its step, so that step's time
        // already reflects the new partition: it counts as "after".
        if (d.resplits > 0) {
            ++out.resplit_steps;
            resplit_seen = true;
        }

        double compute_sum = 0.0, wait_sum = 0.0;
        double t_step = 0.0;
        std::size_t straggler = 0;
        for (std::size_t r = 0; r < nr; ++r) {
            const double compute = d.compute(r);
            const double wait = d.wait_s[r];
            compute_sum += compute;
            wait_sum += wait;
            const double total = compute + wait;
            if (total > t_step) {
                t_step = total;
                straggler = r;
            }
            out.per_rank[r].compute_s += compute;
            out.per_rank[r].wait_s += wait;
            if (r < d.halo_bytes.size())
                out.per_rank[r].halo_bytes += d.halo_bytes[r];
        }
        const double denom = static_cast<double>(nr);
        const double imb = t_step - (compute_sum + wait_sum) / denom;
        sum_t += t_step;
        sum_compute += compute_sum / denom;
        sum_wait += wait_sum / denom;
        sum_imb += imb;
        ++out.per_rank[straggler].straggler_steps;
        ++out.steps;
        if (resplit_seen) {
            after_t += t_step;
            after_imb += imb;
        } else {
            before_t += t_step;
            before_imb += imb;
        }
    }
    out.attributed_s = sum_t;
    if (sum_t > 0.0) {
        out.compute_share = sum_compute / sum_t;
        out.wait_share = sum_wait / sum_t;
        out.imbalance_share = sum_imb / sum_t;
    }
    std::int64_t best = -1;
    for (std::size_t r = 0; r < out.per_rank.size(); ++r)
        if (out.per_rank[r].straggler_steps > best) {
            best = out.per_rank[r].straggler_steps;
            out.straggler_rank = static_cast<int>(r);
        }
    out.imbalance_share_before =
        before_t > 0.0 ? before_imb / before_t : 0.0;
    out.imbalance_share_after = after_t > 0.0 ? after_imb / after_t : 0.0;
    return out;
}

}  // namespace tp::obs::report
