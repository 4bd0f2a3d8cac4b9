#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
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

// ---------------------------------------------------------------- schema

using Problems = std::vector<std::string>;

const char* kind_name(Kind k) {
    switch (k) {
    case Kind::String: return "a string";
    case Kind::Name: return "a non-empty string";
    case Kind::Number: return "a number";
    case Kind::Real: return "a number or null";
    case Kind::Bool: return "a bool";
    case Kind::Array: return "an array";
    case Kind::Object: return "an object";
    }
    return "?";
}

bool has_kind(const json::Value& v, Kind k) {
    switch (k) {
    case Kind::String: return v.is_string();
    case Kind::Name: return v.is_string() && !v.as_string().empty();
    case Kind::Number: return v.is_number();
    case Kind::Real: return v.is_number() || v.is_null();
    case Kind::Bool: return v.is_bool();
    case Kind::Array: return v.is_array();
    case Kind::Object: return v.is_object();
    }
    return false;
}

/// Check `obj`'s members against `fields`, one problem per missing
/// required field or field of the wrong kind; true when there are none.
bool check_fields(const json::Value& obj, const std::vector<Field>& fields,
                  const std::string& what, Problems& out) {
    const std::size_t before = out.size();
    for (const Field& f : fields) {
        const json::Value* v = obj.find(f.name);
        if (v == nullptr && f.required)
            out.push_back(what + " is missing " + kind_name(f.kind) + " '" +
                          f.name + "'");
        else if (v != nullptr && !has_kind(*v, f.kind))
            out.push_back(what + " field '" + f.name + "' is not " +
                          kind_name(f.kind));
    }
    return out.size() == before;
}

bool all_counts(const json::Value& arr) {
    return std::all_of(arr.items().begin(), arr.items().end(),
                       [](const json::Value& v) {
                           return v.is_number() && v.as_number() >= 0.0;
                       });
}

void no_negative_numbers(const json::Value& rec, const std::string& what,
                         Problems& out) {
    for (const auto& [key, value] : rec.members())
        if (value.is_number() && value.as_number() < 0.0)
            out.push_back(what + " field '" + key + "' is negative");
}

// The histogram buckets every sampled value once.
void numerics_rules(const json::Value& rec, Problems& out) {
    const json::Value& hist = *rec.find("rel_hist");
    double total = 0.0;
    for (const json::Value& bucket : hist.items())
        total += bucket.is_number() ? bucket.as_number() : 0.0;
    const double samples = rec.number_or("samples", 0.0);
    if (hist.items().empty() || !all_counts(hist) || total != samples)
        out.push_back(
            "numerics record rel_hist is not a list of counts summing to "
            "samples");
    if (rec.number_or("exact", 0.0) > samples)
        out.push_back("numerics record has exact > samples");
}

void governor_rules(const json::Value& rec, Problems& out) {
    const std::string action = rec.string_or("action", "");
    if (action != "promote" && action != "demote")
        out.push_back("governor record action is not promote|demote");
    for (const char* key : {"from", "to"})
        if (const std::string lattice = rec.string_or(key, "");
            lattice != "float" && lattice != "double")
            out.push_back(std::string("governor record field '") + key +
                          "' is not float|double");
}

// v1 carries an empty bits array, v2 one compressor rate per array.
void checkpoint_rules(const json::Value& rec, Problems& out) {
    const double version = rec.number_or("version", 0.0);
    const auto& bits = rec.find("bits")->items();
    if (version != 1.0 && version != 2.0)
        out.push_back("checkpoint record version is not 1|2");
    if (version == 2.0 && bits.empty())
        out.push_back(
            "checkpoint record is v2 but carries no per-array rates");
    if (!std::all_of(bits.begin(), bits.end(), [](const json::Value& b) {
            return b.is_number() && b.as_number() >= 2.0 &&
                   b.as_number() <= 32.0;
        }))
        out.push_back("checkpoint record has a bits entry outside [2,32]");
}

// critical_path() indexes every array by rank.
void dist_rules(const json::Value& rec, Problems& out) {
    const double ranks = rec.number_or("ranks", 0.0);
    if (ranks < 1.0) out.push_back("dist record has ranks < 1");
    no_negative_numbers(rec, "dist record", out);
    for (const auto& [key, value] : rec.members())
        if (value.is_array() &&
            (static_cast<double>(value.items().size()) != ranks ||
             !all_counts(value)))
            out.push_back("dist record field '" + key +
                          "' does not hold one non-negative number per rank");
}

// Flow-event (halo arrow) rules: every ph:"s" start carries a unique id
// and is closed by exactly one ph:"f" finish with the same id at a
// timestamp no earlier than the start, and every rank-track event (pid 2,
// including the flow endpoints' src/dst args) references a rank that the
// thread_name metadata declared. A trace that breaks one renders as
// dangling or misrouted arrows in Perfetto.
void check_flows(const json::Value& events, Problems& out) {
    std::set<double> rank_tracks;  // tids named by thread_name metadata
    for (const json::Value& e : events.items())
        if (e.string_or("ph", "") == "M" &&
            e.string_or("name", "") == "thread_name" &&
            e.number_or("pid", -1.0) == 2.0) {
            const double tid = e.number_or("tid", -1.0);
            if (tid < 0.0)
                out.push_back("declares a negative rank track id");
            else
                rank_tracks.insert(tid);
        }
    std::map<double, double> open_starts;  // flow id -> start ts
    bool flows = false;
    for (const json::Value& e : events.items()) {
        const std::string ph = e.string_or("ph", "");
        if (e.number_or("pid", -1.0) == 2.0 && ph != "M" &&
            rank_tracks.count(e.number_or("tid", -1.0)) == 0)
            out.push_back("event '" + e.string_or("name", "?") +
                          "' sits on an undeclared rank track");
        if (ph != "s" && ph != "f") continue;
        flows = true;
        const json::Value* id = e.find("id");
        if (id == nullptr || !id->is_number()) {
            out.push_back("flow event has no numeric id");
            continue;
        }
        const std::string flow = "flow id " + std::to_string(id->as_number());
        const json::Value* args = e.find("args");
        for (const char* endpoint : {"src", "dst"})
            if (args == nullptr ||
                rank_tracks.count(args->number_or(endpoint, -1.0)) == 0)
                out.push_back(flow + " names an out-of-range rank in args." +
                              endpoint);
        const double ts = e.number_or("ts", 0.0);
        if (ph == "s") {
            if (!open_starts.emplace(id->as_number(), ts).second)
                out.push_back("reuses " + flow);
        } else if (const auto it = open_starts.find(id->as_number());
                   it == open_starts.end()) {
            out.push_back(flow + " finish has no matching start");
        } else {
            if (ts < it->second)
                out.push_back(flow + " finishes before it starts");
            open_starts.erase(it);
        }
    }
    if (!open_starts.empty())
        out.push_back("has " + std::to_string(open_starts.size()) +
                      " flow start(s) with no finish");
    if (flows && rank_tracks.empty())
        out.push_back("carries flow events but no rank-track metadata");
}

}  // namespace

const std::vector<RecordType>& record_types() {
    using K = Kind;
    // A field is required when every emitter writes it and every
    // committed baseline (tools/baselines/) carries it. `dt` is a Number,
    // not Real: a non-finite step size (written as null) fails the check.
    static const std::vector<RecordType> table = {
        {"manifest",  // obs::write_manifest, plus per-program strings
         {{"program", K::Name, true}, {"git_sha", K::String, true},
          {"compiler", K::String, true}, {"build", K::String, true},
          {"host", K::String, true}, {"os", K::String, true},
          {"machine", K::String, true}, {"start_time", K::String, true},
          {"threads", K::Number, true}, {"openmp", K::Bool, true}},
         nullptr, digest_manifest},
        {"step",  // examples/{dam_break,thermal_bubble,dam_break_dist}
         {{"step", K::Number, true}, {"t", K::Number, true},
          {"dt", K::Number, true}, {"wall_s", K::Number, true},
          {"flops", K::Number, true}, {"phase_seconds", K::Object, true},
          {"mass", K::Real, false}, {"cells", K::Number, false},
          {"rezones", K::Number, false},
          {"rezone_cells_touched", K::Number, false},
          {"rezone_translated", K::Number, false},
          {"rezone_resolved", K::Number, false},
          {"halo_bytes_sent", K::Number, false},
          {"lb_resplits", K::Number, false}, {"nodes", K::Number, false},
          {"mass_perturbation", K::Real, false}},
         nullptr, digest_step},
        {"diagnostic",  // obs::raise_numerical_fault
         {{"severity", K::Name, true}, {"kernel", K::Name, true},
          {"step", K::Number, true}, {"detail", K::String, true}},
         nullptr, [](const json::Value&, RunSummary& out) {
             ++out.diagnostics;
         }},
        {"probe",  // obs::probe_flush_to_metrics; all-NaN: min/max null
         {{"kernel", K::Name, true}, {"samples", K::Number, true},
          {"nan_count", K::Number, true}, {"inf_count", K::Number, true},
          {"min", K::Real, true}, {"max", K::Real, true},
          {"max_ulp_drift", K::Number, true},
          {"first_bad_index", K::Number, true},
          {"healthy", K::Bool, true}},
         nullptr, [](const json::Value&, RunSummary& out) { ++out.probes; }},
        {"numerics",  // obs::numerics_record_json; max/mean_rel null if inf
         {{"kernel", K::Name, true}, {"array", K::Name, true},
          {"samples", K::Number, true}, {"exact", K::Number, true},
          {"max_ulp", K::Number, true}, {"mean_ulp", K::Number, true},
          {"max_rel", K::Real, true}, {"mean_rel", K::Real, true},
          {"sum_abs_err", K::Number, true}, {"max_abs_ref", K::Number, true},
          {"rel_hist", K::Array, true}, {"rel_hist_lo_exp", K::Number, true},
          {"sample_stride", K::Number, true}},
         numerics_rules, digest_numerics},
        {"governor",  // fp::PrecisionGovernor::decision_record_json
         {{"step", K::Number, true}, {"kernel", K::Name, true},
          {"action", K::String, true}, {"from", K::String, true},
          {"to", K::String, true}, {"max_ulp", K::Number, true},
          {"tail_frac", K::Number, true}, {"samples", K::Number, true},
          {"clean_steps", K::Number, true},
          {"drift_budget_ulp", K::Number, true},
          {"tail_budget_frac", K::Number, true}},
         governor_rules, digest_governor},
        {"table",  // util::TextTable::json_str (TP_TABLE_JSON)
         {{"title", K::String, true}, {"header", K::Array, true},
          {"rows", K::Array, true}},
         nullptr, nullptr},
        {"checkpoint",  // io::checkpoint_record
         {{"path", K::Name, true}, {"step", K::Number, true},
          {"version", K::Number, true}, {"raw_bytes", K::Number, true},
          {"written_bytes", K::Number, true}, {"ratio", K::Number, true},
          {"bits", K::Array, true}, {"snapshot_s", K::Number, true},
          {"write_s", K::Number, true}, {"stall_s", K::Number, true},
          {"async", K::Bool, true}},
         checkpoint_rules, digest_checkpoint},
        {"dist",  // examples/dam_break_dist, one per step
         {{"step", K::Number, true}, {"ranks", K::Number, true},
          {"wall_s", K::Number, true}, {"post_s", K::Array, true},
          {"precompute_s", K::Array, true}, {"interior_s", K::Array, true},
          {"wait_s", K::Array, true}, {"boundary_s", K::Array, true},
          {"halo_bytes", K::Array, true}, {"resplits", K::Number, true}},
         dist_rules, digest_dist},
        {"trace",  // obs::finish_observability after a traced run
         {{"events", K::Number, true}, {"dropped", K::Number, true}},
         [](const json::Value& rec, Problems& out) {
             no_negative_numbers(rec, "trace record", out);
         },
         digest_trace},
    };
    return table;
}

namespace {

const RecordType* find_type(const std::string& type) {
    for (const RecordType& rt : record_types())
        if (type == rt.type) return &rt;
    return nullptr;
}

}  // namespace

std::vector<std::string> check_record(const json::Value& rec) {
    Problems out;
    const json::Value* type = rec.find("type");
    if (type == nullptr || !type->is_string()) {
        out.push_back("record is not an object with a string 'type'");
        return out;
    }
    const RecordType* rt = find_type(type->as_string());
    if (rt == nullptr) {
        std::string known;
        for (const RecordType& r : record_types())
            known += (known.empty() ? "" : ", ") + std::string(r.type);
        out.push_back("unknown record type '" + type->as_string() +
                      "' (known: " + known + ")");
        return out;
    }
    const std::string what = std::string(rt->type) + " record";
    if (check_fields(rec, rt->fields, what, out) && rt->rules != nullptr)
        rt->rules(rec, out);
    return out;
}

std::vector<std::string> check_trace(
    const json::Value& root, const std::vector<std::string>& required_spans) {
    Problems out;
    const json::Value* events = root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        out.push_back("has no traceEvents array");
        return out;
    }
    // Spans ("X" complete events) are what the viewer draws; metadata and
    // flow events carry no duration. Each problem is reported once.
    static const std::vector<Field> kSpanFields = {
        {"name", Kind::Name, true}, {"ts", Kind::Number, true},
        {"dur", Kind::Number, true}, {"pid", Kind::Number, true},
        {"tid", Kind::Number, true}};
    std::set<std::string> names;
    std::set<std::string> span_problems;
    std::size_t spans = 0;
    for (const json::Value& e : events->items()) {
        names.insert(e.string_or("name", ""));
        if (e.string_or("ph", "") != "X") continue;
        ++spans;
        Problems p;
        check_fields(e, kSpanFields, "span event", p);
        span_problems.insert(p.begin(), p.end());
    }
    out.insert(out.end(), span_problems.begin(), span_problems.end());
    if (spans == 0) out.push_back("has no span events");
    for (const std::string& span : required_spans)
        if (names.count(span) == 0)
            out.push_back("has no '" + span + "' span");
    check_flows(*events, out);
    return out;
}

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

RunSummary summarize(const std::vector<std::string>& lines,
                     Problems* problems) {
    RunSummary out;
    // The first record names the stream: a run's metrics open with a
    // manifest, and a bench-table stream (TP_TABLE_JSON) holds only
    // table records.
    bool manifest_first = false;
    bool table_stream = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto report = [&](const std::string& what) {
            if (problems != nullptr)
                problems->push_back("line " + std::to_string(i + 1) + ": " +
                                    what);
        };
        if (lines[i].empty()) {
            report("empty line");
            continue;
        }
        const auto rec = json::parse(lines[i]);
        if (!rec) {
            ++out.invalid_lines;  // crash-truncated tail, or not JSON
            report("not valid JSON");
            continue;
        }
        if (problems != nullptr)
            for (const std::string& p : check_record(*rec)) report(p);
        const json::Value* type = rec->find("type");
        if (type == nullptr || !type->is_string()) {
            ++out.invalid_lines;
            continue;
        }
        if (i == 0) {
            manifest_first = type->as_string() == "manifest";
            table_stream = type->as_string() == "table";
        } else if (table_stream && type->as_string() != "table") {
            report("a bench-table stream holds only table records");
        }
        if (const RecordType* rt = find_type(type->as_string());
            rt == nullptr)
            ++out.unknown_records;
        else if (rt->digest != nullptr)
            rt->digest(*rec, out);
    }
    if (problems != nullptr && !table_stream) {
        if (!manifest_first)
            problems->push_back("does not start with a manifest record");
        if (out.steps == 0) problems->push_back("has no step records");
    }
    return out;
}

std::optional<RunSummary> load_metrics_file(const std::string& path,
                                            std::string* error,
                                            Problems* problems) {
    std::ifstream is(path);
    if (!is) {
        if (error != nullptr) *error = "cannot open " + path;
        return std::nullopt;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return summarize(lines, problems);
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
