// Tests for the offline metrics analyzer (obs/report.hpp) that backs
// tools/tp_report and examples/obs_check: stream digestion
// (manifest/step/numerics records, crash-truncated tails, unknown
// types), the record schema (every real emitter passes it, every field
// and value rule catches its breakage), the trace-file rules, the
// per-phase rollup, and the baseline-vs-candidate regression gate with
// its three thresholds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fp/governor.hpp"
#include "io/checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "obs/obs.hpp"
#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace report = tp::obs::report;
namespace json = tp::obs::json;
namespace obs = tp::obs;

namespace {

std::string manifest_line() {
    return json::Object()
        .field("type", "manifest")
        .field("program", "dam_break")
        .field("precision", "mixed")
        .field("grid", "32")
        .str();
}

std::string step_line(double wall_s, double rezone_s, double flux_s,
                      int rezones = 0) {
    const std::string phases = json::Object()
                                   .field("finite_diff", flux_s)
                                   .field("rezone", rezone_s)
                                   .field("rezone_remap", rezone_s * 0.5)
                                   .str();
    return json::Object()
        .field("type", "step")
        .field("t", 0.1)
        .field("dt", 0.01)
        .field("wall_s", wall_s)
        .field("rezones", rezones)
        .field("flops", std::uint64_t{1000})
        .field_raw("phase_seconds", phases)
        .str();
}

std::string numerics_line(const std::string& kernel,
                          const std::string& array, std::uint64_t max_ulp) {
    obs::DivergenceStats s;
    s.samples = 100;
    s.exact = 90;
    s.max_ulp = max_ulp;
    s.sum_ulp = static_cast<double>(max_ulp) * 10.0;
    s.max_rel = 1e-7;
    s.rel_hist[0] = 100;
    return obs::numerics_record_json(kernel, array, s);
}

// ------------------------------------------------------------- summarize

TEST(Summarize, DigestsManifestStepsAndNumerics) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.010, 0.002, 0.006, 1),
         step_line(0.020, 0.002, 0.006, 1),
         numerics_line("clamr.flux_sweep", "dh", 3)});
    EXPECT_EQ(run.program, "dam_break");
    EXPECT_EQ(run.manifest.at("precision"), "mixed");
    EXPECT_EQ(run.steps, 2);
    EXPECT_DOUBLE_EQ(run.wall_s_total, 0.030);
    EXPECT_DOUBLE_EQ(run.mean_step_wall_s(), 0.015);
    EXPECT_EQ(run.rezones, 1);
    EXPECT_DOUBLE_EQ(run.phase_seconds.at("finite_diff"), 0.012);
    ASSERT_EQ(run.numerics.count("clamr.flux_sweep/dh"), 1u);
    EXPECT_EQ(run.numerics.at("clamr.flux_sweep/dh").max_ulp, 3u);
    EXPECT_EQ(run.invalid_lines, 0);
    EXPECT_EQ(run.unknown_records, 0);
}

TEST(Summarize, ToleratesCrashTruncatedTailAndUnknownTypes) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.01, 0.0, 0.01),
         "{\"type\":\"wibble\",\"x\":1}", "{\"type\":\"step\",\"t\":0.2,"});
    EXPECT_EQ(run.steps, 1);
    EXPECT_EQ(run.unknown_records, 1);
    EXPECT_EQ(run.invalid_lines, 1);
}

TEST(Summarize, EmptyStreamYieldsEmptySummary) {
    const report::RunSummary run = report::summarize({});
    EXPECT_EQ(run.steps, 0);
    EXPECT_EQ(run.mean_step_wall_s(), 0.0);
    EXPECT_EQ(run.rezone_share(), 0.0);
    EXPECT_TRUE(report::phase_rollup(run).empty());
}

TEST(Summarize, NullMaxRelMarksInfiniteDivergence) {
    obs::DivergenceStats s;
    s.observe(1.0f, 0.0);  // rel = inf -> null in the record
    const report::RunSummary run =
        report::summarize({obs::numerics_record_json("k", "a", s)});
    ASSERT_EQ(run.numerics.count("k/a"), 1u);
    EXPECT_FALSE(run.numerics.at("k/a").max_rel_finite);
}

// ---------------------------------------------------------------- schema

std::string temp_path(const char* stem) {
    return std::string(::testing::TempDir()) + stem;
}

std::vector<std::string> lines_of(const std::string& path) {
    std::ifstream is(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
}

/// What `emit` writes to the metrics stream.
template <class Emit>
std::vector<std::string> metrics_lines(const char* stem, Emit&& emit) {
    const std::string path = temp_path(stem);
    obs::metrics().open(path);
    emit();
    obs::metrics().close();
    return lines_of(path);
}

std::string number_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out.push_back(',');
        json::append_number(out, v[i]);
    }
    return out + "]";
}

std::string dist_trace_path() {
    return temp_path("schema.dist.trace.json");
}

// Step records as examples/dam_break.cpp writes them; the second step
// carries no mass, as on the steps between the example's mass strides.
std::vector<std::string> clamr_step_records() {
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break({});
    std::map<std::string, double> previous;
    std::vector<std::string> out;
    for (int k = 0; k < 2; ++k) {
        const double dt = solver.step();
        const auto& rz = solver.rezone_stats();
        json::Object rec;
        rec.field("type", "step")
            .field("step", solver.step_count())
            .field("t", solver.time())
            .field("dt", dt)
            .field("wall_s", 1e-3)
            .field("cells",
                   static_cast<std::uint64_t>(solver.mesh().num_cells()));
        if (k == 0) rec.field("mass", solver.total_mass());
        out.push_back(
            rec.field("rezones", rz.rezones)
                .field("rezone_cells_touched", rz.cells_touched)
                .field("rezone_translated", rz.translated_cells)
                .field("rezone_resolved", rz.resolved_cells)
                .field("flops", solver.ledger().total().flops())
                .field_raw("phase_seconds",
                           obs::timer_delta_json(solver.timers(), previous))
                .str());
    }
    return out;
}

// A step record as examples/thermal_bubble.cpp writes it.
std::string sem_step_record() {
    tp::sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 3;
    tp::sem::SpectralEulerSolver<tp::fp::MinimumPrecision> solver(cfg);
    solver.initialize_thermal_bubble({});
    const double dt = solver.step();
    std::map<std::string, double> previous;
    return json::Object()
        .field("type", "step")
        .field("step", static_cast<std::int64_t>(solver.step_count()))
        .field("t", solver.time())
        .field("dt", dt)
        .field("wall_s", 1e-3)
        .field("nodes", static_cast<std::uint64_t>(solver.num_nodes()))
        .field("mass_perturbation", solver.total_mass_perturbation())
        .field("flops", solver.ledger().total().flops())
        .field_raw("phase_seconds",
                   obs::timer_delta_json(solver.timers(), previous))
        .str();
}

// Step and dist records of a traced 3-rank run as
// examples/dam_break_dist.cpp writes them, closed by the trace record
// finish_observability() writes; the trace file lands at
// dist_trace_path().
std::vector<std::string> dist_records() {
    return metrics_lines("schema.dist.jsonl", [] {
        obs::trace_start(dist_trace_path());
        tp::par::DistConfig cfg;
        cfg.nx = cfg.ny = 32;
        cfg.ranks = 3;
        tp::par::DistributedShallowSolver<tp::fp::MixedPrecision> solver(cfg);
        solver.initialize_dam_break();
        std::map<std::string, double> previous;
        std::vector<double> sent_before(3, 0.0);
        for (int k = 0; k < 2; ++k) {
            const double dt = solver.step();
            obs::metrics().write_line(
                json::Object()
                    .field("type", "step")
                    .field("step", solver.step_count())
                    .field("t", solver.time())
                    .field("dt", dt)
                    .field("wall_s", 1e-3)
                    .field("mass", solver.total_mass())
                    .field("halo_bytes_sent", solver.halo_bytes_sent())
                    .field("lb_resplits", solver.lb_stats().resplits)
                    .field("flops", solver.ledger().total().flops())
                    .field_raw("phase_seconds",
                               obs::timer_delta_json(solver.timers(),
                                                     previous))
                    .str());
            std::vector<double> post, pre, interior, wait, boundary, bytes;
            for (int r = 0; r < 3; ++r) {
                const auto& p = solver.rank_phase_seconds()[r];
                post.push_back(p.post);
                pre.push_back(p.precompute);
                interior.push_back(p.interior);
                wait.push_back(p.wait);
                boundary.push_back(p.boundary);
                const auto sent =
                    static_cast<double>(solver.halo_bytes_sent(r));
                bytes.push_back(sent - sent_before[r]);
                sent_before[r] = sent;
            }
            obs::metrics().write_line(
                json::Object()
                    .field("type", "dist")
                    .field("step", solver.step_count())
                    .field("ranks", cfg.ranks)
                    .field("wall_s", 1e-3)
                    .field_raw("post_s", number_array(post))
                    .field_raw("precompute_s", number_array(pre))
                    .field_raw("interior_s", number_array(interior))
                    .field_raw("wait_s", number_array(wait))
                    .field_raw("boundary_s", number_array(boundary))
                    .field_raw("halo_bytes", number_array(bytes))
                    .field("resplits", std::uint64_t{0})
                    .str());
        }
        obs::finish_observability();
    });
}

/// A stream holding records of every type, each from its real emitter:
/// the manifest first, NaN probes, infinite divergence, v1 and v2
/// checkpoints, both governor transitions.
const std::vector<std::string>& emitter_stream() {
    static const std::vector<std::string> lines = [] {
        std::vector<std::string> out;
        const auto add = [&](const std::vector<std::string>& more) {
            out.insert(out.end(), more.begin(), more.end());
        };
        add(metrics_lines("schema.manifest.jsonl", [] {
            obs::write_manifest("test_report", {{"precision", "mixed"}});
        }));
        add(clamr_step_records());
        out.push_back(sem_step_record());
        add(metrics_lines("schema.fault.jsonl", [] {
            try {
                obs::raise_numerical_fault("unit.cfl", 7, "dt is NaN");
            } catch (const obs::NumericalFault&) {
            }
        }));
        add(metrics_lines("schema.probe.jsonl", [] {
            obs::probe_reset();
            const float healthy[3] = {1.0f, 2.0f, 3.0f};
            const float poisoned[2] = {std::nanf(""), std::nanf("")};
            obs::probe_array("unit.healthy", healthy, 3);
            obs::probe_array("unit.nan", poisoned, 2);
            obs::probe_flush_to_metrics();
            obs::probe_reset();
        }));
        obs::DivergenceStats drift;
        drift.observe(std::nextafterf(1.0f, 2.0f), 1.0);
        out.push_back(obs::numerics_record_json("unit.kernel", "a", drift));
        obs::DivergenceStats infinite;
        infinite.observe(1.0f, 0.0);
        out.push_back(
            obs::numerics_record_json("unit.kernel", "b", infinite));
        tp::fp::GovernorConfig gcfg;
        gcfg.enabled = true;
        const tp::fp::PrecisionGovernor governor(gcfg);
        out.push_back(governor.decision_record_json(
            {12, "clamr.flux_sweep", "promote", 9, 0.02, 64, 0}));
        out.push_back(governor.decision_record_json(
            {20, "clamr.flux_sweep", "demote", 0, 0.0, 64, 8}));
        tp::util::TextTable table("Table X: demo");
        table.set_header({"a", "b"});
        table.add_row({"1", "2"});
        out.push_back(table.json_str());
        out.push_back(tp::io::checkpoint_record(
            "ck.bin", 40, {1, 3000, 3000, {}}, 1e-3, 2e-3, 0.0, false));
        out.push_back(tp::io::checkpoint_record(
            "ck.bin", 40, {2, 3000, 1200, {12, 14, 14}}, 1e-3, 2e-3, 5e-4,
            true));
        add(dist_records());
        return out;
    }();
    return lines;
}

/// The first emitter record of `type`.
json::Value sample(const std::string& type) {
    for (const std::string& line : emitter_stream())
        if (auto rec = json::parse(line); rec->string_or("type", "") == type)
            return *rec;
    ADD_FAILURE() << "no emitter record of type " << type;
    return json::Value::make_object();
}

/// `rec` with member `key` set to `value` (appended if absent), or
/// removed when `value` is null.
json::Value with(const json::Value& rec, const std::string& key,
                 const json::Value* value) {
    json::Value out = json::Value::make_object();
    bool set = false;
    for (const auto& [k, v] : rec.members()) {
        if (k != key) {
            out.push_member(k, v);
        } else if (value != nullptr) {
            out.push_member(k, *value);
            set = true;
        }
    }
    if (value != nullptr && !set) out.push_member(key, *value);
    return out;
}

json::Value with(const json::Value& rec, const std::string& key,
                 const json::Value& value) {
    return with(rec, key, &value);
}

json::Value array_of(std::initializer_list<double> xs) {
    json::Value a = json::Value::make_array();
    for (double x : xs) a.push_item(json::Value(x));
    return a;
}

json::Value wrong_kind(report::Kind k) {
    return k == report::Kind::Number || k == report::Kind::Real
               ? json::Value(std::string("x"))
               : json::Value(1.0);
}

std::string quoted(const char* name) {
    return std::string(1, '\'') + name + '\'';
}

std::size_t count_naming(const std::vector<std::string>& problems,
                         const std::string& what) {
    return static_cast<std::size_t>(
        std::count_if(problems.begin(), problems.end(),
                      [&](const std::string& p) {
                          return p.find(what) != std::string::npos;
                      }));
}

TEST(Schema, EveryEmitterWritesValidRecords) {
    std::vector<std::string> problems;
    const report::RunSummary run =
        report::summarize(emitter_stream(), &problems);
    EXPECT_TRUE(problems.empty()) << problems.front();
    EXPECT_EQ(run.invalid_lines, 0);
    EXPECT_EQ(run.unknown_records, 0);
    std::set<std::string> types;
    for (const std::string& line : emitter_stream())
        types.insert(json::parse(line)->string_or("type", "?"));
    ASSERT_EQ(report::record_types().size(), 10u);
    for (const report::RecordType& rt : report::record_types())
        EXPECT_EQ(types.count(rt.type), 1u) << rt.type;
    // The all-NaN probe and the infinite divergence write Real nulls.
    EXPECT_EQ(run.probes, 2);
    EXPECT_TRUE(sample("probe").find("min")->is_number());
    const auto nan_probe = std::find_if(
        emitter_stream().begin(), emitter_stream().end(),
        [](const std::string& line) {
            return line.find("\"unit.nan\"") != std::string::npos;
        });
    ASSERT_NE(nan_probe, emitter_stream().end());
    EXPECT_TRUE(json::parse(*nan_probe)->find("min")->is_null());
    EXPECT_FALSE(run.numerics.at("unit.kernel/b").max_rel_finite);
    EXPECT_TRUE(run.has_trace_record);
}

TEST(Schema, MissingFieldIsOneProblemWhenRequired) {
    for (const report::RecordType& rt : report::record_types()) {
        const json::Value rec = sample(rt.type);
        for (const report::Field& f : rt.fields) {
            const auto problems =
                report::check_record(with(rec, f.name, nullptr));
            ASSERT_EQ(problems.size(), f.required ? 1u : 0u)
                << rt.type << "." << f.name;
            if (f.required) {
                EXPECT_EQ(count_naming(problems, quoted(f.name)), 1u)
                    << problems[0];
            }
        }
    }
}

TEST(Schema, WrongKindIsOneProblemNamingTheField) {
    for (const report::RecordType& rt : report::record_types()) {
        const json::Value rec = sample(rt.type);
        for (const report::Field& f : rt.fields) {
            const auto problems =
                report::check_record(with(rec, f.name, wrong_kind(f.kind)));
            ASSERT_EQ(problems.size(), 1u) << rt.type << "." << f.name;
            EXPECT_EQ(count_naming(problems, quoted(f.name)), 1u)
                << problems[0];
        }
    }
    // A Name is a non-empty string.
    const auto problems = report::check_record(
        with(sample("numerics"), "kernel", json::Value(std::string())));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_EQ(count_naming(problems, "'kernel' is not a non-empty string"),
              1u);
}

TEST(Schema, EachValueRuleHasAFailingCase) {
    const json::Value numerics = sample("numerics");
    const double samples = numerics.number_or("samples", 0.0);
    const json::Value v1 = sample("checkpoint");
    const json::Value v2 = with(v1, "bits", array_of({12, 16}));
    const json::Value dist = sample("dist");
    const std::vector<std::pair<json::Value, std::string>> cases = {
        {with(sample("step"), "dt", json::Value()),
         "field 'dt' is not a number"},
        {with(numerics, "samples", json::Value(samples + 1)),
         "rel_hist is not a list of counts summing to samples"},
        {with(with(numerics, "samples", json::Value(1.0)), "rel_hist",
              array_of({2, -1})),
         "rel_hist is not a list of counts summing to samples"},
        {with(with(with(numerics, "samples", json::Value(0.0)), "exact",
                   json::Value(0.0)),
              "rel_hist", array_of({})),
         "rel_hist is not a list of counts summing to samples"},
        {with(numerics, "exact", json::Value(samples + 1)),
         "exact > samples"},
        {with(sample("governor"), "action", json::Value(std::string("hold"))),
         "action is not promote|demote"},
        {with(sample("governor"), "from", json::Value(std::string("half"))),
         "field 'from' is not float|double"},
        {with(sample("governor"), "to", json::Value(std::string("half"))),
         "field 'to' is not float|double"},
        {with(v1, "version", json::Value(3.0)), "version is not 1|2"},
        {with(v1, "version", json::Value(2.0)),
         "v2 but carries no per-array rates"},
        {with(with(v2, "version", json::Value(2.0)), "bits",
              array_of({12, 33})),
         "bits entry outside [2,32]"},
        {with(with(v2, "version", json::Value(2.0)), "bits", array_of({1})),
         "bits entry outside [2,32]"},
        {with(dist, "wait_s", array_of({0.1, 0.2})),
         "field 'wait_s' does not hold one non-negative number per rank"},
        {with(dist, "halo_bytes", array_of({1, -1, 1})),
         "field 'halo_bytes' does not hold one non-negative number per rank"},
        {with(dist, "resplits", json::Value(-1.0)),
         "field 'resplits' is negative"},
        {*json::parse("{\"type\":\"dist\",\"step\":1,\"ranks\":0,"
                      "\"wall_s\":0,\"post_s\":[],\"precompute_s\":[],"
                      "\"interior_s\":[],\"wait_s\":[],"
                      "\"boundary_s\":[],\"halo_bytes\":[],"
                      "\"resplits\":0}"),
         "ranks < 1"},
        {with(sample("trace"), "events", json::Value(-1.0)),
         "field 'events' is negative"},
        {with(sample("trace"), "dropped", json::Value(-1.0)),
         "field 'dropped' is negative"},
        {*json::parse("{\"type\":\"wibble\"}"),
         "unknown record type 'wibble' (known: manifest, step"},
        {*json::parse("{\"kind\":\"step\"}"),
         "not an object with a string 'type'"},
        {*json::parse("[1]"), "not an object with a string 'type'"},
    };
    for (const auto& [rec, expect] : cases) {
        const auto problems = report::check_record(rec);
        ASSERT_EQ(problems.size(), 1u) << expect;
        EXPECT_EQ(count_naming(problems, expect), 1u) << problems[0];
    }
}

TEST(Schema, SummarizeChecksTheStreamWhenAsked) {
    const std::string manifest = emitter_stream()[0];
    const std::string step = emitter_stream()[1];
    const auto problems_of = [](const std::vector<std::string>& lines) {
        std::vector<std::string> problems;
        (void)report::summarize(lines, &problems);
        return problems;
    };
    EXPECT_TRUE(problems_of({manifest, step}).empty());
    using Problems = std::vector<std::string>;
    EXPECT_EQ(problems_of({step, manifest}),
              Problems{"does not start with a manifest record"});
    EXPECT_EQ(problems_of({manifest}), Problems{"has no step records"});
    EXPECT_EQ(problems_of({}),
              (Problems{"does not start with a manifest record",
                        "has no step records"}));
    EXPECT_EQ(problems_of({manifest, step, ""}),
              Problems{"line 3: empty line"});
    EXPECT_EQ(problems_of({manifest, step, "{\"type\":\"step\",\"t\":"}),
              Problems{"line 3: not valid JSON"});
    const Problems unknown =
        problems_of({manifest, step, "{\"type\":\"wibble\"}"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0].rfind("line 3: unknown record type 'wibble'", 0),
              0u);
}

TEST(Schema, BenchTableStreamHoldsOnlyValidTables) {
    tp::util::TextTable first("Table A");
    first.set_header({"mode", "seconds"});
    first.add_row({"scalar", "0.150"});
    tp::util::TextTable second("Table B");
    second.set_header({"x"});
    const std::string a = first.json_str();
    const std::string b = second.json_str();
    const auto problems_of = [](const std::vector<std::string>& lines) {
        std::vector<std::string> problems;
        (void)report::summarize(lines, &problems);
        return problems;
    };
    using Problems = std::vector<std::string>;
    // What TP_TABLE_JSON collects: no manifest and no step is needed.
    EXPECT_TRUE(problems_of({a}).empty());
    EXPECT_TRUE(problems_of({a, b}).empty());
    // Every line is still checked against the table record.
    const Problems no_rows = problems_of(
        {a, "{\"type\":\"table\",\"title\":\"t\",\"header\":[]}"});
    ASSERT_EQ(no_rows.size(), 1u);
    EXPECT_EQ(no_rows[0].rfind("line 2: table record is missing", 0), 0u)
        << no_rows[0];
    EXPECT_NE(no_rows[0].find("'rows'"), std::string::npos) << no_rows[0];
    EXPECT_EQ(problems_of({a, emitter_stream()[1]}),
              Problems{"line 2: a bench-table stream holds only table "
                       "records"});
    // A run's metrics may carry a table, and still need their manifest
    // and steps.
    EXPECT_EQ(problems_of({emitter_stream()[0], a}),
              Problems{"has no step records"});
}

// ---------------------------------------------------------- trace file

std::string trace_doc(const std::vector<std::string>& events) {
    std::string doc = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i != 0) doc += ',';
        doc += events[i];
    }
    return doc + "]}";
}

std::string track(int tid) {
    return "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"rank\"}}";
}

std::string span(int tid, const char* extra = ",\"dur\":2") {
    return "{\"name\":\"dist.rank.post\",\"ph\":\"X\",\"ts\":1" +
           std::string(extra) + ",\"pid\":2,\"tid\":" +
           std::to_string(tid) + "}";
}

std::string flow(char ph, int id, int ts, int src, int dst) {
    return std::string("{\"name\":\"halo\",\"ph\":\"") + ph +
           "\",\"id\":" + std::to_string(id) + ",\"ts\":" +
           std::to_string(ts) + ",\"pid\":2,\"tid\":" +
           std::to_string(ph == 's' ? src : dst) + ",\"args\":{\"src\":" +
           std::to_string(src) + ",\"dst\":" + std::to_string(dst) + "}}";
}

std::vector<std::string> trace_problems(
    const std::string& doc, const std::vector<std::string>& spans = {}) {
    const auto root = json::parse(doc);
    EXPECT_TRUE(root.has_value()) << doc;
    return root ? report::check_trace(*root, spans)
                : std::vector<std::string>{"unparsed"};
}

TEST(TraceCheck, RealTracedDistRunPasses) {
    (void)emitter_stream();  // runs the traced 3-rank solver
    std::ifstream is(dist_trace_path());
    std::stringstream buf;
    buf << is.rdbuf();
    EXPECT_EQ(trace_problems(buf.str(), {"dist.step", "dist.rank.post",
                                         "dist.rank.wait", "halo"}),
              std::vector<std::string>{});
}

TEST(TraceCheck, EachRuleHasAFailingCase) {
    const std::string t0 = track(0), t1 = track(1);
    const std::string s01 = flow('s', 1, 1, 0, 1), f01 = flow('f', 1, 2, 0, 1);
    EXPECT_TRUE(trace_problems(trace_doc({t0, t1, span(0), s01, f01}),
                               {"dist.rank.post", "halo"})
                    .empty());
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {trace_problems("{\"events\":[]}"), "has no traceEvents array"},
            {trace_problems(trace_doc({t0, t1, s01, f01})),
             "has no span events"},
            {trace_problems(trace_doc({t0, span(0, "")})),
             "span event is missing a number 'dur'"},
            {trace_problems(trace_doc({t0, span(0)}), {"dist.step"}),
             "has no 'dist.step' span"},
            {trace_problems(trace_doc({t0, span(7)})),
             "event 'dist.rank.post' sits on an undeclared rank track"},
            {trace_problems(trace_doc({track(-1), t0, span(0)})),
             "declares a negative rank track id"},
            {trace_problems(trace_doc(
                 {t0, t1, span(0),
                  "{\"name\":\"halo\",\"ph\":\"s\",\"ts\":1,\"pid\":2,"
                  "\"tid\":0}"})),
             "flow event has no numeric id"},
            {trace_problems(trace_doc(
                 {t0, t1, span(0), flow('s', 1, 1, 0, 5), f01})),
             "names an out-of-range rank in args.dst"},
            {trace_problems(trace_doc({t0, t1, span(0), s01, s01, f01})),
             "reuses flow id"},
            {trace_problems(trace_doc({t0, t1, span(0), f01})),
             "finish has no matching start"},
            {trace_problems(
                 trace_doc({t0, t1, span(0), s01, flow('f', 1, 0, 0, 1)})),
             "finishes before it starts"},
            {trace_problems(trace_doc({t0, t1, span(0), s01})),
             "has 1 flow start(s) with no finish"},
            {trace_problems(trace_doc({span(0), s01, f01})),
             "carries flow events but no rank-track metadata"},
        };
    for (const auto& [problems, expect] : cases)
        EXPECT_EQ(count_naming(problems, expect), 1u) << expect;
}

// ---------------------------------------------------------- phase rollup

TEST(PhaseRollup, SubPhasesNestAndSharesExcludeThem) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.01, 0.002, 0.006)});
    // rezone_share denominator is finite_diff + rezone (rezone_remap is a
    // sub-phase of rezone and must not double count).
    EXPECT_NEAR(run.rezone_share(), 0.002 / 0.008, 1e-12);
    const auto rows = report::phase_rollup(run);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].phase, "finite_diff");
    EXPECT_FALSE(rows[0].sub_phase);
    EXPECT_EQ(rows[1].phase, "rezone");
    EXPECT_EQ(rows[2].phase, "rezone_remap");
    EXPECT_TRUE(rows[2].sub_phase);
    EXPECT_NEAR(rows[0].share + rows[1].share, 1.0, 1e-12);
}

// Step records as dam_break and dam_break_dist write them: the step wall
// around step(), the phase deltas from timer_delta_json, and the running
// rezone total.
template <class Solver>
std::vector<std::string> example_step_records(Solver& solver, int steps) {
    std::vector<std::string> lines;
    std::map<std::string, double> previous;
    for (int k = 0; k < steps; ++k) {
        tp::util::WallTimer step_timer;
        solver.step();
        json::Object rec;
        rec.field("type", "step").field("wall_s", step_timer.elapsed_seconds());
        if constexpr (requires { solver.rezone_stats(); })
            rec.field("rezones", solver.rezone_stats().rezones);
        rec.field_raw("phase_seconds",
                      tp::obs::timer_delta_json(solver.timers(), previous));
        lines.push_back(std::move(rec).str());
    }
    return lines;
}

// The rollup of a real run: every sub-phase sits under its parent, and
// the top-level phases are disjoint, so they fit inside the step walls
// and their shares sum to one.
void expect_disjoint_top_level(const report::RunSummary& run) {
    double top_seconds = 0.0, top_share = 0.0;
    for (const report::PhaseRow& row : report::phase_rollup(run))
        if (!row.sub_phase) {
            top_seconds += row.seconds;
            top_share += row.share;
        }
    EXPECT_NEAR(top_share, 1.0, 1e-12);
    EXPECT_GT(top_seconds, 0.0);
    EXPECT_LE(top_seconds, run.wall_s_total);
}

TEST(PhaseRollup, RealClamrRunNestsFluxSweepAndCountsRezones) {
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 3};
    cfg.rezone_interval = 2;
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break({});
    const report::RunSummary run =
        report::summarize(example_step_records(solver, 12));

    EXPECT_EQ(run.rezones,
              static_cast<std::int64_t>(solver.rezone_stats().rezones));
    EXPECT_EQ(run.phase_seconds.count("flux_sweep"), 0u);
    EXPECT_EQ(run.phase_seconds.count("rezone_flags"), 1u);
    const auto rows = report::phase_rollup(run);
    const auto at = [&](const std::string& phase) {
        return std::find_if(rows.begin(), rows.end(),
                            [&](const report::PhaseRow& r) {
                                return r.phase == phase;
                            });
    };
    const auto parent = at("finite_diff");
    const auto sweep = at("finite_diff_flux_sweep");
    ASSERT_NE(parent, rows.end());
    ASSERT_NE(sweep, rows.end());
    EXPECT_FALSE(parent->sub_phase);
    EXPECT_TRUE(sweep->sub_phase);
    // Listed under its parent: after it, with no top-level row between.
    ASSERT_LT(parent, sweep);
    EXPECT_TRUE(std::all_of(parent + 1, sweep, [](const report::PhaseRow& r) {
        return r.sub_phase;
    }));
    EXPECT_LT(sweep->seconds, parent->seconds);
    expect_disjoint_top_level(run);
}

TEST(PhaseRollup, RealDistRunHasNoStepRow) {
    tp::par::DistConfig cfg;
    cfg.nx = cfg.ny = 32;
    cfg.ranks = 3;
    tp::par::DistributedShallowSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break();
    const report::RunSummary run =
        report::summarize(example_step_records(solver, 6));

    EXPECT_EQ(run.phase_seconds.count("step"), 0u);
    EXPECT_EQ(run.phase_seconds.count("interior"), 1u);
    expect_disjoint_top_level(run);
}

// ------------------------------------------------------------------ diff

report::RunSummary baseline_run() {
    return report::summarize({manifest_line(),
                              step_line(0.010, 0.001, 0.008),
                              step_line(0.010, 0.001, 0.008),
                              numerics_line("clamr.flux_sweep", "dh", 10)});
}

TEST(Diff, IdenticalRunsPass) {
    const auto base = baseline_run();
    const auto diff = report::diff_runs(base, base, {});
    EXPECT_TRUE(diff.ok()) << (diff.regressions.empty()
                                   ? ""
                                   : diff.regressions[0].metric);
}

TEST(Diff, StepTimeRegressionPastThresholdFails) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.013, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 10)});
    report::Thresholds t;
    t.step_time_frac = 0.20;
    const auto diff = report::diff_runs(base, cand, t);
    ASSERT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions[0].metric, "mean_step_wall_s");
    // +30% fails the 20% gate but passes a 50% one.
    t.step_time_frac = 0.50;
    EXPECT_TRUE(report::diff_runs(base, cand, t).ok());
}

TEST(Diff, UlpDriftPastFactorFails) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 21)});  // > 2 x 10
    const auto diff = report::diff_runs(base, cand, {});
    ASSERT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions[0].metric, "max_ulp[clamr.flux_sweep/dh]");
    EXPECT_EQ(diff.regressions[0].baseline, 10.0);
    EXPECT_EQ(diff.regressions[0].candidate, 21.0);
    // Exactly 2x is allowed.
    const auto cand2x = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 20)});
    EXPECT_TRUE(report::diff_runs(base, cand2x, {}).ok());
}

TEST(Diff, NewDriftWhereBaselineWasExactFails) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 0)});
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 1)});
    EXPECT_FALSE(report::diff_runs(base, cand, {}).ok());
}

TEST(Diff, RezoneShareGrowthPastPointsFails) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.009)});  // 10% share
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.003, 0.007)});  // 30% share
    report::Thresholds t;
    t.rezone_share_pts = 0.10;
    const auto diff = report::diff_runs(base, cand, t);
    ASSERT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions[0].metric, "rezone_share");
    t.rezone_share_pts = 0.25;
    EXPECT_TRUE(report::diff_runs(base, cand, t).ok());
}

TEST(Diff, KernelAsymmetryIsANoteNotARegression) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         numerics_line("clamr.flux_sweep", "dh", 10),
         numerics_line("sem.rhs", "rho", 5)});
    const auto diff = report::diff_runs(base, cand, {});
    EXPECT_TRUE(diff.ok());
    ASSERT_FALSE(diff.notes.empty());
    EXPECT_NE(diff.notes[0].find("sem.rhs/rho"), std::string::npos);
}

TEST(Diff, MissingWallSecondsSkipsStepTimeWithNote) {
    // Baseline steps carry phase timings (so the rezone-share gate is
    // comparable) but no wall_s — the step-time gate must skip, not trip.
    const std::string phases =
        json::Object().field("finite_diff", 0.008).field("rezone", 0.001)
            .str();
    const auto base = report::summarize(
        {manifest_line(), json::Object()
                              .field("type", "step")
                              .field("t", 0.1)
                              .field_raw("phase_seconds", phases)
                              .str(),
         numerics_line("clamr.flux_sweep", "dh", 10)});
    const auto cand = baseline_run();
    const auto diff = report::diff_runs(base, cand, {});
    EXPECT_TRUE(diff.ok());
    bool noted = false;
    for (const auto& note : diff.notes)
        if (note.find("wall_s") != std::string::npos) noted = true;
    EXPECT_TRUE(noted);
}

// ---------------------------------------------- dist digestion + critical path

// One {"type":"dist"} record. Per-rank compute seconds come from
// `compute`, per-rank wait from `wait`; post/interior/boundary are folded
// into compute via the post_s array to keep the arithmetic transparent.
std::string dist_line(const std::vector<double>& compute,
                      const std::vector<double>& wait,
                      std::int64_t resplits = 0, int step = 1) {
    auto arr = [](const std::vector<double>& v) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out.push_back(',');
            json::append_number(out, v[i]);
        }
        out.push_back(']');
        return out;
    };
    const std::vector<double> zero(compute.size(), 0.0);
    std::string bytes = "[";
    for (std::size_t i = 0; i < compute.size(); ++i) {
        if (i != 0) bytes.push_back(',');
        bytes += "1000";
    }
    bytes.push_back(']');
    double wall = 0.0;
    for (std::size_t r = 0; r < compute.size(); ++r)
        wall = std::max(wall, compute[r] + wait[r]);
    return json::Object()
        .field("type", "dist")
        .field("step", step)
        .field("ranks", static_cast<std::int64_t>(compute.size()))
        .field("wall_s", wall)
        .field_raw("post_s", arr(compute))
        .field_raw("precompute_s", arr(zero))
        .field_raw("interior_s", arr(zero))
        .field_raw("wait_s", arr(wait))
        .field_raw("boundary_s", arr(zero))
        .field_raw("halo_bytes", bytes)
        .field("resplits", resplits)
        .str();
}

TEST(Summarize, DigestsDistAndTraceRecords) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.004, 0.002}, {0.0, 0.001}),
         json::Object()
             .field("type", "trace")
             .field("events", std::uint64_t{42})
             .field("dropped", std::uint64_t{7})
             .str()});
    ASSERT_EQ(run.dist_steps.size(), 1u);
    EXPECT_EQ(run.dist_steps[0].ranks(), 2);
    EXPECT_DOUBLE_EQ(run.dist_steps[0].compute(0), 0.004);
    EXPECT_DOUBLE_EQ(run.dist_steps[0].total(1), 0.003);
    EXPECT_EQ(run.dist_steps[0].halo_bytes[0], 1000u);
    EXPECT_TRUE(run.has_trace_record);
    EXPECT_EQ(run.trace_events, 42u);
    EXPECT_EQ(run.trace_dropped_events, 7u);
    EXPECT_EQ(run.unknown_records, 0);
}

TEST(CriticalPath, SharesSumToOneAndNameTheStraggler) {
    // Rank 0 bounds every step: compute {4,2} ms, wait {0,1} ms.
    // Per step: T = 4 ms, mean compute = 3 ms, mean wait = 0.5 ms,
    // imbalance = 4 - 3.5 = 0.5 ms.
    const report::RunSummary run = report::summarize(
        {manifest_line(), dist_line({0.004, 0.002}, {0.0, 0.001}, 0, 1),
         dist_line({0.004, 0.002}, {0.0, 0.001}, 0, 2)});
    const auto cp = report::critical_path(run);
    ASSERT_FALSE(cp.empty());
    EXPECT_EQ(cp.steps, 2);
    EXPECT_EQ(cp.ranks, 2);
    EXPECT_NEAR(cp.attributed_s, 0.008, 1e-12);
    EXPECT_NEAR(cp.compute_share, 0.003 / 0.004, 1e-12);
    EXPECT_NEAR(cp.wait_share, 0.0005 / 0.004, 1e-12);
    EXPECT_NEAR(cp.imbalance_share, 0.0005 / 0.004, 1e-12);
    EXPECT_NEAR(
        cp.compute_share + cp.wait_share + cp.imbalance_share, 1.0, 1e-12);
    EXPECT_EQ(cp.straggler_rank, 0);
    ASSERT_EQ(cp.per_rank.size(), 2u);
    EXPECT_EQ(cp.per_rank[0].straggler_steps, 2);
    EXPECT_EQ(cp.per_rank[1].straggler_steps, 0);
    EXPECT_EQ(cp.per_rank[0].halo_bytes, 2000u);
}

TEST(CriticalPath, ResplitSplitsTheImbalanceWindows) {
    // Imbalanced before the re-split, perfectly balanced from it onward
    // (the re-split runs at the head of its step, so that step counts as
    // "after").
    const report::RunSummary run = report::summarize(
        {manifest_line(), dist_line({0.004, 0.002}, {0.0, 0.0}, 0, 1),
         dist_line({0.003, 0.003}, {0.0, 0.0}, 1, 2),
         dist_line({0.003, 0.003}, {0.0, 0.0}, 0, 3)});
    const auto cp = report::critical_path(run);
    EXPECT_EQ(cp.resplit_steps, 1);
    EXPECT_NEAR(cp.imbalance_share_before, 0.001 / 0.004, 1e-12);
    EXPECT_NEAR(cp.imbalance_share_after, 0.0, 1e-12);
}

TEST(CriticalPath, SkipsMalformedRecordsAndEmptyRuns) {
    EXPECT_TRUE(report::critical_path(report::summarize({})).empty());
    // A record whose arrays disagree with the run's rank count is skipped
    // by the analyzer; the valid one still contributes.
    const report::RunSummary run = report::summarize(
        {manifest_line(), dist_line({0.004, 0.002}, {0.0, 0.0}),
         "{\"type\":\"dist\",\"step\":2,\"ranks\":2,\"wall_s\":0.1,"
         "\"post_s\":[0.1],\"precompute_s\":[0.1],\"interior_s\":[0.1],"
         "\"wait_s\":[0.1],\"boundary_s\":[0.1],\"halo_bytes\":[1],"
         "\"resplits\":0}"});
    const auto cp = report::critical_path(run);
    EXPECT_EQ(cp.steps, 1);
}

TEST(PhaseRollup, SelfTimeExcludesDirectChildren) {
    const report::RunSummary run = report::summarize(
        {manifest_line(), step_line(0.01, 0.002, 0.006)});
    const auto rows = report::phase_rollup(run);
    ASSERT_EQ(rows.size(), 3u);
    // rezone: 0.002 inclusive, child rezone_remap 0.001 -> self 0.001.
    EXPECT_EQ(rows[1].phase, "rezone");
    EXPECT_NEAR(rows[1].self_seconds, 0.001, 1e-12);
    // Leaves keep self == inclusive.
    EXPECT_NEAR(rows[0].self_seconds, rows[0].seconds, 1e-12);
    EXPECT_NEAR(rows[2].self_seconds, rows[2].seconds, 1e-12);
}

TEST(Diff, ImbalanceShareGrowthPastPointsFails) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.003, 0.003}, {0.0, 0.0})});  // balanced
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.006, 0.002}, {0.0, 0.0})});  // imbalance 1/3
    report::Thresholds t;
    t.imbalance_share_pts = 0.15;
    const auto diff = report::diff_runs(base, cand, t);
    bool found = false;
    for (const auto& r : diff.regressions)
        if (r.metric == "dist_imbalance_share") found = true;
    EXPECT_TRUE(found);
    // Inside the allowance it passes.
    report::Thresholds loose;
    loose.imbalance_share_pts = 0.50;
    EXPECT_TRUE(report::diff_runs(base, cand, loose).ok());
}

TEST(Diff, HaloByteDriftIsARegressionWhenComparable) {
    const auto base = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.003, 0.003}, {0.0, 0.0})});
    // Same shape, same (zero) resplits, different bytes: deterministic
    // traffic changed -> regression.
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         "{\"type\":\"dist\",\"step\":1,\"ranks\":2,\"wall_s\":0.003,"
         "\"post_s\":[0.003,0.003],\"precompute_s\":[0,0],"
         "\"interior_s\":[0,0],\"wait_s\":[0,0],\"boundary_s\":[0,0],"
         "\"halo_bytes\":[1000,999],\"resplits\":0}"});
    const auto diff = report::diff_runs(base, cand, {});
    bool found = false;
    for (const auto& r : diff.regressions)
        if (r.metric == "dist_halo_bytes") found = true;
    EXPECT_TRUE(found);

    // A resplit-count mismatch makes byte totals legitimately diverge
    // (block-solver traffic depends on the partition) -> note, not gate.
    const auto resplit_cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         "{\"type\":\"dist\",\"step\":1,\"ranks\":2,\"wall_s\":0.003,"
         "\"post_s\":[0.003,0.003],\"precompute_s\":[0,0],"
         "\"interior_s\":[0,0],\"wait_s\":[0,0],\"boundary_s\":[0,0],"
         "\"halo_bytes\":[1000,999],\"resplits\":1}"});
    const auto skipped = report::diff_runs(base, resplit_cand, {});
    for (const auto& r : skipped.regressions)
        EXPECT_NE(r.metric, "dist_halo_bytes");
}

TEST(Diff, DistPresentInOnlyOneRunIsANote) {
    const auto base = baseline_run();
    const auto cand = report::summarize(
        {manifest_line(), step_line(0.010, 0.001, 0.008),
         dist_line({0.003, 0.003}, {0.0, 0.0})});
    const auto diff = report::diff_runs(base, cand, {});
    EXPECT_TRUE(diff.ok());
    bool noted = false;
    for (const auto& note : diff.notes)
        if (note.find("dist") != std::string::npos) noted = true;
    EXPECT_TRUE(noted);
}

TEST(Diff, InfiniteMaxRelAppearingIsARegression) {
    obs::DivergenceStats inf_stats;
    inf_stats.observe(1.0f, 0.0);
    const auto base = baseline_run();
    auto cand_lines = std::vector<std::string>{
        manifest_line(), step_line(0.010, 0.001, 0.008),
        obs::numerics_record_json("clamr.flux_sweep", "dh", inf_stats)};
    const auto cand = report::summarize(cand_lines);
    // max_ulp also regressed here (inf observation counts ULPs), so just
    // assert the infinite-rel regression is among them.
    const auto diff = report::diff_runs(base, cand, {});
    bool found = false;
    for (const auto& r : diff.regressions)
        if (r.metric.find("became infinite") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
}

}  // namespace
