// Tests for the flight-recorder observability layer (src/obs/): the JSON
// builder/validator, the trace session, the metrics stream + manifest,
// the numerical-health probes, and the two contracts the solvers rely on:
// instrumentation is allocation-free when the flags are off, and an
// injected NaN is caught and reported as a structured NumericalFault.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "obs/obs.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace obs = tp::obs;
namespace json = tp::obs::json;

// ------------------------------------------------- allocation bookkeeping

// Count every heap allocation in the test binary so the zero-cost-when-off
// contract is testable: N instrumentation points with tracing/probing off
// must perform zero allocations (and, per Phase's design, no clock
// reads — not observable here, but the allocation half is).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// Out of line: inlined, GCC sees free() take a pointer from the operator
// new above and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

std::string slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::vector<std::string> lines_of(const std::string& path) {
    std::ifstream is(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
}

std::string temp_path(const char* stem) {
    return std::string(::testing::TempDir()) + stem;
}

// Pull one numeric field out of a single-line JSON object written by the
// emitters (keys are unique per event line, no inner whitespace).
double field_of(const std::string& line, const std::string& key) {
    const auto pos = line.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << line;
    return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

// --------------------------------------------------------------- builder

TEST(Json, EscapesControlAndQuoteCharacters) {
    std::string out;
    json::append_escaped(out, "a\"b\\c\nd\te\x01" "f");
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    EXPECT_TRUE(json::valid(out));
}

TEST(Json, NonFiniteNumbersBecomeNull) {
    std::string out;
    json::append_number(out, std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(out, "null");
    out.clear();
    json::append_number(out, std::numeric_limits<double>::infinity());
    EXPECT_EQ(out, "null");

    const std::string doc = json::Object()
                                .field("dt", std::nan(""))
                                .field("ok", 1.5)
                                .str();
    EXPECT_EQ(doc, "{\"dt\":null,\"ok\":1.5}");
    EXPECT_TRUE(json::valid(doc));
}

TEST(Json, ObjectBuilderOutputIsValid) {
    const std::string doc = json::Object()
                                .field("type", "step")
                                .field("step", std::int64_t{7})
                                .field("cells", std::uint64_t{1768})
                                .field("enabled", true)
                                .field("mass", 1.25e-3)
                                .field_raw("phases", "{\"cfl\":0.5}")
                                .str();
    EXPECT_TRUE(json::valid(doc));
    EXPECT_NE(doc.find("\"cells\":1768"), std::string::npos);
    EXPECT_NE(doc.find("\"phases\":{\"cfl\":0.5}"), std::string::npos);
}

TEST(Json, WellFormedUtf8PassesThroughVerbatim) {
    std::string out;
    json::append_escaped(out, "h\xC3\xA9llo \xE6\x97\xA5\xE6\x9C\xAC");
    EXPECT_EQ(out, "\"h\xC3\xA9llo \xE6\x97\xA5\xE6\x9C\xAC\"");
    EXPECT_TRUE(json::valid(out));
}

TEST(Json, InvalidBytesEscapeAsLatin1) {
    // A lone 0xFF (not valid UTF-8 anywhere) must not leak into the
    // document raw; it re-interprets as Latin-1 U+00FF.
    std::string out;
    json::append_escaped(out, "a\xFF" "b");
    EXPECT_EQ(out, "\"a\\u00ffb\"");
    // Truncated multi-byte sequence at end of string: same treatment.
    out.clear();
    json::append_escaped(out, "x\xC3");
    EXPECT_EQ(out, "\"x\\u00c3\"");
}

TEST(Json, EveryByteValueEscapesToAParseableDocument) {
    // Fuzz-ish sweep: singleton bytes and adversarial multi-byte soups
    // must always produce strictly valid, parseable JSON.
    for (int b = 0; b < 256; ++b) {
        std::string s = "x";
        s.push_back(static_cast<char>(b));
        s += "y";
        std::string out;
        json::append_escaped(out, s);
        EXPECT_TRUE(json::valid(out)) << "byte " << b;
        EXPECT_TRUE(json::parse(out).has_value()) << "byte " << b;
    }
    std::uint32_t lcg = 12345;
    for (int trial = 0; trial < 64; ++trial) {
        std::string s;
        for (int i = 0; i < 48; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            s.push_back(static_cast<char>(lcg >> 24));
        }
        std::string out;
        json::append_escaped(out, s);
        EXPECT_TRUE(json::valid(out)) << "trial " << trial;
        EXPECT_TRUE(json::parse(out).has_value()) << "trial " << trial;
    }
}

TEST(JsonDom, ParsesObjectsArraysAndEscapes) {
    const auto v = json::parse(
        "{\"a\":1.5,\"b\":[true,null,\"x\"],\"c\":{\"d\":-2e3}}");
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(v->number_or("a", 0.0), 1.5);
    const json::Value* b = v->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->items().size(), 3u);
    EXPECT_TRUE(b->items()[0].as_bool());
    EXPECT_TRUE(b->items()[1].is_null());
    EXPECT_EQ(b->items()[2].as_string(), "x");
    ASSERT_NE(v->find("c"), nullptr);
    EXPECT_DOUBLE_EQ(v->find("c")->number_or("d", 0.0), -2000.0);
    EXPECT_FALSE(json::parse("{\"a\":1,}").has_value());
    EXPECT_FALSE(json::parse("[1] junk").has_value());
}

TEST(JsonDom, DecodesUnicodeEscapesAndSurrogatePairs) {
    const auto v =
        json::parse("{\"s\":\"a\\u00e9\\ud83d\\ude00\\n\"}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->string_or("s", ""),
              "a\xC3\xA9\xF0\x9F\x98\x80\n");
    EXPECT_FALSE(json::parse("{\"s\":\"\\ud83d\"}").has_value());
    EXPECT_FALSE(json::parse("{\"s\":\"\\ude00\"}").has_value());
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
    EXPECT_TRUE(json::valid("{}"));
    EXPECT_TRUE(json::valid("[1, 2.5, -3e-2, \"x\", null, true]"));
    EXPECT_TRUE(json::valid("{\"a\":{\"b\":[{}]}}"));
    EXPECT_FALSE(json::valid(""));
    EXPECT_FALSE(json::valid("{"));
    EXPECT_FALSE(json::valid("{\"a\":1,}"));
    EXPECT_FALSE(json::valid("{\"a\":NaN}"));
    EXPECT_FALSE(json::valid("{\"a\":1} trailing"));
    EXPECT_FALSE(json::valid("{'a':1}"));
    EXPECT_FALSE(json::valid("{\"a\":01}"));
    // Unpaired surrogates: valid() accepts exactly what parse() accepts.
    EXPECT_FALSE(json::valid("\"\\ud800\""));
    EXPECT_FALSE(json::valid("\"\\udc00\""));
}

// ----------------------------------------------------------------- trace

TEST(Trace, SpansAreDroppedWhenOff) {
    ASSERT_FALSE(obs::trace_enabled());
    {
        TP_OBS_SPAN("off.outer");
        TP_OBS_SPAN("off.inner");
    }
    EXPECT_EQ(obs::trace_event_count(), 0u);
    EXPECT_EQ(obs::trace_stop(), 0u);  // no session: no-op
}

TEST(Trace, WritesValidChromeTraceWithNestedSpans) {
    const std::string path = temp_path("nested.trace.json");
    obs::trace_start(path);
    {
        TP_OBS_SPAN("outer");
        { TP_OBS_SPAN("inner"); }
    }
    EXPECT_EQ(obs::trace_event_count(), 2u);
    EXPECT_EQ(obs::trace_stop(), 2u);

    const std::string doc = slurp(path);
    ASSERT_TRUE(json::valid(doc)) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);

    // Events are one per line; the inner span completes (and is appended)
    // first. The outer interval must contain the inner one.
    std::string inner_line, outer_line;
    for (const auto& line : lines_of(path)) {
        if (line.find("\"inner\"") != std::string::npos) inner_line = line;
        if (line.find("\"outer\"") != std::string::npos) outer_line = line;
    }
    ASSERT_FALSE(inner_line.empty());
    ASSERT_FALSE(outer_line.empty());
    const double outer_ts = field_of(outer_line, "ts");
    const double outer_end = outer_ts + field_of(outer_line, "dur");
    const double inner_ts = field_of(inner_line, "ts");
    const double inner_end = inner_ts + field_of(inner_line, "dur");
    EXPECT_LE(outer_ts, inner_ts);
    EXPECT_LE(inner_end, outer_end);
}

TEST(Trace, RestartDiscardsPriorSession) {
    const std::string a = temp_path("a.trace.json");
    const std::string b = temp_path("b.trace.json");
    obs::trace_start(a);
    { TP_OBS_SPAN("first"); }
    obs::trace_start(b);  // restart without stop
    { TP_OBS_SPAN("second"); }
    EXPECT_EQ(obs::trace_stop(), 1u);
    EXPECT_EQ(slurp(b).find("\"first\""), std::string::npos);
}

TEST(Trace, StartRejectsUnwritablePath) {
    EXPECT_THROW(obs::trace_start("/nonexistent-dir/x/y.trace.json"),
                 std::runtime_error);
    EXPECT_FALSE(obs::trace_enabled());
}

TEST(Trace, RankSpansLandOnVirtualRankTracks) {
    const std::string path = temp_path("rank.trace.json");
    obs::trace_start(path);
    { obs::Phase rank_phase("dist.rank.interior", 3); }
    { TP_OBS_SPAN("host.phase"); }
    EXPECT_EQ(obs::trace_stop(), 2u);

    const std::string doc = slurp(path);
    ASSERT_TRUE(json::valid(doc)) << doc;
    // The rank span sits on pid 2 / tid 3 under named track metadata;
    // the plain span stays on the host-thread process (pid 1).
    std::string rank_line, host_line;
    bool named_track = false;
    for (const auto& line : lines_of(path)) {
        if (line.find("\"dist.rank.interior\"") != std::string::npos)
            rank_line = line;
        if (line.find("\"host.phase\"") != std::string::npos)
            host_line = line;
        if (line.find("\"rank 3\"") != std::string::npos) named_track = true;
    }
    ASSERT_FALSE(rank_line.empty());
    ASSERT_FALSE(host_line.empty());
    EXPECT_TRUE(named_track) << doc;
    EXPECT_EQ(field_of(rank_line, "pid"), 2.0);
    EXPECT_EQ(field_of(rank_line, "tid"), 3.0);
    EXPECT_EQ(field_of(host_line, "pid"), 1.0);
}

TEST(Trace, EdgesFlushAsPairedFlowEvents) {
    const std::string path = temp_path("edge.trace.json");
    obs::trace_start(path);
    obs::trace_edge(/*src=*/0, /*dst=*/2, /*tag=*/7, /*bytes=*/4096,
                    /*post_ns=*/1000, /*deliver_ns=*/5000);
    EXPECT_EQ(obs::trace_event_count(), 2u);  // one edge = s + f
    EXPECT_EQ(obs::trace_stop(), 2u);

    const std::string doc = slurp(path);
    ASSERT_TRUE(json::valid(doc)) << doc;
    std::string s_line, f_line;
    for (const auto& line : lines_of(path)) {
        if (line.find("\"ph\":\"s\"") != std::string::npos) s_line = line;
        if (line.find("\"ph\":\"f\"") != std::string::npos) f_line = line;
    }
    ASSERT_FALSE(s_line.empty()) << doc;
    ASSERT_FALSE(f_line.empty()) << doc;
    // Start on the source rank track at post time, finish on the
    // destination track at deliver time, bound by one shared flow id.
    EXPECT_EQ(field_of(s_line, "tid"), 0.0);
    EXPECT_EQ(field_of(f_line, "tid"), 2.0);
    EXPECT_EQ(field_of(s_line, "id"), field_of(f_line, "id"));
    EXPECT_LT(field_of(s_line, "ts"), field_of(f_line, "ts"));
    EXPECT_NE(f_line.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(s_line.find("\"bytes\":4096"), std::string::npos);
    // Both endpoint ranks got named tracks even without any rank span.
    EXPECT_NE(doc.find("\"rank 0\""), std::string::npos);
    EXPECT_NE(doc.find("\"rank 2\""), std::string::npos);
}

TEST(Trace, BufferCapDropsAndCountsExcessEvents) {
    const std::size_t saved = obs::trace_buffer_cap();
    obs::trace_set_buffer_cap(4);
    const std::string path = temp_path("cap.trace.json");
    obs::trace_start(path);
    EXPECT_EQ(obs::trace_dropped_events(), 0u);  // reset by trace_start
    for (int i = 0; i < 10; ++i) {
        TP_OBS_SPAN("cap.span");
    }
    EXPECT_EQ(obs::trace_event_count(), 4u);
    EXPECT_EQ(obs::trace_stop(), 4u);
    obs::trace_set_buffer_cap(saved);
    // The loss is sticky after stop so drivers can report it, and the
    // trace header carries it for the viewer.
    EXPECT_EQ(obs::trace_dropped_events(), 6u);
    EXPECT_NE(slurp(path).find("\"droppedEvents\":6"), std::string::npos);
}

// ------------------------------------------------- one clock per phase

TEST(Phase, StopReturnsTheSecondsItAddsToTheStopwatch) {
    tp::util::StopwatchRegistry timers;
    obs::Phase phase("t.phase", timers, "phase");
    const double seconds = phase.stop();
    EXPECT_EQ(timers.total("phase"), seconds);
    EXPECT_EQ(timers.calls("phase"), 1u);
    EXPECT_EQ(phase.stop(), 0.0);  // already stopped: no second entry
    EXPECT_EQ(timers.calls("phase"), 1u);
    ASSERT_FALSE(obs::trace_enabled());
    obs::Phase span_only("t.span");  // tracing off: no clock read
    EXPECT_EQ(span_only.stop(), 0.0);
}

// One timed phase: its stopwatch key, the span that times it, and the
// ledger kernel fed from the same stop() (nullptr: none, or a combined
// entry such as dist_update = interior + boundary).
struct PhaseSinks {
    const char* key;
    const char* span;
    const char* kernel;
};

// Nanoseconds per span name, summed over a written Chrome trace.
std::map<std::string, std::int64_t> span_ns(const std::string& path) {
    std::map<std::string, std::int64_t> out;
    const auto doc = json::parse(slurp(path));
    EXPECT_TRUE(doc && doc->find("traceEvents") != nullptr);
    if (!doc || doc->find("traceEvents") == nullptr) return out;
    for (const json::Value& e : doc->find("traceEvents")->items())
        if (e.string_or("ph", "") == "X")
            out[e.string_or("name", "")] +=
                std::llround(e.number_or("dur", 0.0) * 1e3);
    return out;
}

// Build a solver with `make()` and run it `steps` steps under one trace
// session, then check every phase it timed: the stopwatch total equals
// the ledger seconds bit for bit, and the spans of the phase sum to the
// stopwatch total to the nanosecond.
template <class Make>
void expect_one_clock_per_phase(const char* stem, Make make, int steps,
                                std::initializer_list<PhaseSinks> phases) {
    const std::string path = temp_path(stem);
    obs::trace_start(path);
    const auto solver = make();
    solver->run(steps);
    obs::trace_stop();
    ASSERT_EQ(obs::trace_dropped_events(), 0u);
    const auto spans = span_ns(path);

    std::set<std::string> timed, listed;
    for (const auto& [key, entry] : solver->timers().entries())
        timed.insert(key);
    for (const PhaseSinks& p : phases) {
        SCOPED_TRACE(p.key);
        listed.insert(p.key);
        const double total = solver->timers().total(p.key);
        EXPECT_GT(solver->timers().calls(p.key), 0u);
        ASSERT_EQ(spans.count(p.span), 1u) << p.span;
        EXPECT_EQ(spans.at(p.span), std::llround(total * 1e9)) << p.span;
        if (p.kernel != nullptr) {
            const tp::perf::KernelWork* w = solver->ledger().find(p.kernel);
            ASSERT_NE(w, nullptr) << p.kernel;
            EXPECT_EQ(w->seconds, total) << p.kernel;
        }
    }
    EXPECT_EQ(timed, listed) << "a timed phase is missing from the list";
}

TEST(Phase, ClamrAmrPhasesShareOneClock) {
    const auto make = [] {
        tp::shallow::Config cfg;
        cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 3};
        cfg.rezone_interval = 2;
        auto s = std::make_unique<
            tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision>>(cfg);
        s->initialize_dam_break({});
        return s;
    };
    expect_one_clock_per_phase(
        "clamr.phase.trace.json", make, 12,
        {{"cfl", "clamr.cfl", "cfl"},
         {"finite_diff", "clamr.finite_diff", "finite_diff"},
         {"flux_sweep", "clamr.flux_sweep", nullptr},
         {"rezone", "clamr.rezone", nullptr},
         {"rezone_flags", "clamr.rezone_flags", "rezone_flags"},
         {"rezone_adapt", "clamr.rezone_adapt", "rezone_adapt"},
         {"rezone_remap", "clamr.rezone_remap", "rezone_remap"},
         {"rezone_cache", "clamr.rezone_cache", "rezone_cache"}});
}

TEST(Phase, SemBubblePhasesShareOneClock) {
    const auto make = [] {
        tp::sem::SemConfig cfg;
        cfg.nx = cfg.ny = cfg.nz = 3;
        cfg.order = 4;
        auto s = std::make_unique<
            tp::sem::SpectralEulerSolver<tp::fp::MinimumPrecision>>(cfg);
        s->initialize_thermal_bubble({});
        return s;
    };
    expect_one_clock_per_phase("sem.phase.trace.json", make, 3,
                               {{"volume", "sem.volume", "volume"},
                                {"surface", "sem.surface", "surface"},
                                {"rk_update", "sem.rk_stage", "rk_update"},
                                {"filter", "sem.filter", "filter"},
                                {"cfl", "sem.cfl", "cfl"}});
}

TEST(Phase, DistOverlappedPhasesShareOneClock) {
    const auto make = [] {
        tp::par::DistConfig cfg;
        cfg.nx = cfg.ny = 32;
        cfg.ranks = 3;
        cfg.overlap = true;
        cfg.lb_interval = 2;
        auto s = std::make_unique<
            tp::par::DistributedShallowSolver<tp::fp::MixedPrecision>>(cfg);
        s->initialize_dam_break();
        return s;
    };
    expect_one_clock_per_phase(
        "dist.phase.trace.json", make, 6,
        {{"precompute", "dist.precompute", "dist_pre"},
         {"halo_pack", "dist.halo_post", "dist_halo_post"},
         {"halo_wait", "dist.halo_wait", "dist_halo_wait"},
         {"interior", "dist.interior", nullptr},
         {"boundary", "dist.boundary", nullptr},
         {"rebalance", "dist.rebalance", nullptr}});
}

// --------------------------------------------------------------- metrics

TEST(Metrics, ManifestIsFirstAndCarriesBuildFields) {
    const std::string path = temp_path("run.metrics.jsonl");
    obs::metrics().open(path);
    obs::write_manifest("test_obs", {{"precision", "mixed"}});
    obs::metrics().write_line(
        json::Object().field("type", "step").field("dt", 0.5).str());
    EXPECT_EQ(obs::metrics().lines_written(), 2u);
    obs::metrics().close();
    EXPECT_FALSE(obs::metrics().is_open());

    const auto lines = lines_of(path);
    ASSERT_EQ(lines.size(), 2u);
    for (const auto& line : lines) EXPECT_TRUE(json::valid(line)) << line;
    for (const char* key :
         {"\"type\":\"manifest\"", "\"program\":\"test_obs\"", "\"git_sha\"",
          "\"build\"", "\"start_time\"", "\"threads\"",
          "\"precision\":\"mixed\""})
        EXPECT_NE(lines[0].find(key), std::string::npos) << key;
    EXPECT_NE(lines[1].find("\"type\":\"step\""), std::string::npos);
}

TEST(Metrics, WritesAreNoOpsWhenClosed) {
    ASSERT_FALSE(obs::metrics().is_open());
    const std::uint64_t before = obs::metrics().lines_written();
    obs::metrics().write_line("{}");          // must not crash
    obs::write_manifest("ignored", {});       // must not crash
    EXPECT_EQ(obs::metrics().lines_written(), before);
}

TEST(Metrics, TimerDeltaJsonReportsPerStepIncrements) {
    tp::util::StopwatchRegistry timers;
    std::map<std::string, double> previous;
    timers.add("cfl", 0.5);
    timers.add("flux", 1.0);
    EXPECT_EQ(obs::timer_delta_json(timers, previous),
              "{\"cfl\":0.5,\"flux\":1}");
    timers.add("cfl", 0.25);
    EXPECT_EQ(obs::timer_delta_json(timers, previous),
              "{\"cfl\":0.25,\"flux\":0}");
}

TEST(Table, JsonExportMatchesRows) {
    tp::util::TextTable t("Table X: demo");
    t.set_header({"col a", "col b"});
    t.add_row({"1", "2.5"});
    t.add_row({"x \"quoted\"", ""});
    const std::string doc = t.json_str();
    EXPECT_TRUE(json::valid(doc)) << doc;
    EXPECT_EQ(doc,
              "{\"type\":\"table\",\"title\":\"Table X: demo\","
              "\"header\":[\"col a\",\"col b\"],"
              "\"rows\":[[\"1\",\"2.5\"],[\"x \\\"quoted\\\"\",\"\"]]}");
}

// ---------------------------------------------------------------- probes

TEST(Probe, DetectsNanAndInfWithFirstBadIndex) {
    obs::probe_reset();
    std::vector<float> data{1.0f, 2.0f, std::nanf(""), 4.0f,
                            std::numeric_limits<float>::infinity()};
    const obs::ProbeStats s =
        obs::probe_array("unit.h", data.data(), data.size());
    EXPECT_EQ(s.samples, 5u);
    EXPECT_EQ(s.nan_count, 1u);
    EXPECT_EQ(s.inf_count, 1u);
    EXPECT_EQ(s.first_bad_index, 2);
    EXPECT_FALSE(s.healthy());
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, 4.0);

    // The registry accumulates across calls under the same kernel name.
    obs::probe_array("unit.h", data.data(), 2);
    const auto report = obs::probe_report();
    ASSERT_EQ(report.count("unit.h"), 1u);
    EXPECT_EQ(report.at("unit.h").samples, 7u);
    EXPECT_EQ(report.at("unit.h").nan_count, 1u);
    obs::probe_reset();
    EXPECT_TRUE(obs::probe_report().empty());
}

TEST(Probe, UlpDriftAgainstShadowReference) {
    obs::probe_reset();
    std::vector<float> test{1.0f, 2.0f, 3.0f};
    std::vector<float> ref{1.0f, std::nextafterf(2.0f, 3.0f), 3.0f};
    const obs::ProbeStats s =
        obs::probe_ulp_drift("unit.ulp", test.data(), ref.data(), 3);
    EXPECT_EQ(s.max_ulp_drift, 1u);
    EXPECT_TRUE(s.healthy());
    obs::probe_reset();
}

TEST(Probe, RaiseWritesDiagnosticRecordBeforeThrowing) {
    const std::string path = temp_path("fault.metrics.jsonl");
    obs::metrics().open(path);
    try {
        obs::raise_numerical_fault("unit.cfl", 42, "dt is NaN");
        FAIL() << "raise_numerical_fault must throw";
    } catch (const obs::NumericalFault& fault) {
        EXPECT_EQ(fault.kernel(), "unit.cfl");
        EXPECT_EQ(fault.step(), 42);
        EXPECT_NE(std::string(fault.what()).find("dt is NaN"),
                  std::string::npos);
    }
    obs::metrics().close();
    const auto lines = lines_of(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(json::valid(lines[0]));
    for (const char* key :
         {"\"type\":\"diagnostic\"", "\"severity\":\"fatal\"",
          "\"kernel\":\"unit.cfl\"", "\"step\":42"})
        EXPECT_NE(lines[0].find(key), std::string::npos) << key;
}

// --------------------------------------------- solver-level NaN injection

TEST(Probe, CatchesInjectedNanInShallowSolver) {
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    tp::shallow::DamBreak ic;
    ic.h_inside = std::numeric_limits<double>::quiet_NaN();
    solver.initialize_dam_break(ic);

    obs::probe_reset();
    obs::set_probe_enabled(true);
    EXPECT_THROW(solver.step(), obs::NumericalFault);
    obs::set_probe_enabled(false);

    const auto report = obs::probe_report();
    ASSERT_EQ(report.count("clamr.h"), 1u);
    EXPECT_GT(report.at("clamr.h").nan_count, 0u);
    obs::probe_reset();
}

TEST(Probe, HealthySolverStepRaisesNothing) {
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break({});
    obs::probe_reset();
    obs::set_probe_enabled(true);
    EXPECT_NO_THROW(solver.run(3));
    obs::set_probe_enabled(false);
    const auto report = obs::probe_report();
    ASSERT_EQ(report.count("clamr.h"), 1u);
    EXPECT_TRUE(report.at("clamr.h").healthy());
    obs::probe_reset();
}

// --------------------------------------------------- zero-cost when off

TEST(ZeroCost, InstrumentationPointsDoNotAllocateWhenOff) {
    ASSERT_FALSE(obs::trace_enabled());
    ASSERT_FALSE(obs::probe_enabled());
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 10000; ++i) {
        TP_OBS_SPAN("zero.cost");
        if (obs::probe_enabled()) ADD_FAILURE() << "probe must be off";
    }
    EXPECT_EQ(g_allocs.load() - before, 0u);
}

TEST(ZeroCost, SolverStepsAllocationFreeWithObsOffAfterWarmup) {
    // Reuses the arena-warmup idea from test_simd: after a few steps every
    // scratch buffer has reached steady state, so further steps with the
    // observability flags off must not touch the heap at all. Rezone is
    // disabled — AMR adapts legitimately allocate. Shadow profiling off is
    // part of the contract: each hook must cost one relaxed load, no heap.
    ASSERT_FALSE(obs::shadow_profile_enabled());
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    cfg.rezone_interval = 0;
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break({});
    solver.run(5);  // warmup
    const std::uint64_t before = g_allocs.load();
    solver.run(5);
    EXPECT_EQ(g_allocs.load() - before, 0u);
}

TEST(ZeroCost, ShadowProfilingAllocationFreeAfterWarmup) {
    // With profiling ON the hooks may allocate during warmup (scratch
    // capture vectors, first registry merge per kernel/array pair) but a
    // steady-state step must then run entirely out of those buffers.
    obs::shadow_reset();
    obs::set_shadow_profile(true);
    obs::set_shadow_sample_stride(4);
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    cfg.rezone_interval = 0;
    tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
    solver.initialize_dam_break({});
    solver.run(5);  // warmup: scratch + registry reach steady state
    const std::uint64_t before = g_allocs.load();
    solver.run(5);
    EXPECT_EQ(g_allocs.load() - before, 0u);
    obs::set_shadow_profile(false);
    obs::set_shadow_sample_stride(16);
    obs::shadow_reset();
}

// ------------------------------------------------- crash-flush semantics

TEST(Flush, PoisonedRunKeepsStreamValidAndNumericsFlushed) {
    // Telemetry accumulated before a NumericalFault must land in the
    // stream during unwind-time finish_observability(), and every line of
    // the resulting file must still be strictly valid JSON — the
    // poisoned-run regression the flush contract exists for.
    const std::string path = temp_path("poison.metrics.jsonl");
    obs::metrics().open(path);
    obs::write_manifest("poisoned_run", {{"precision", "mixed"}});
    obs::probe_reset();
    obs::shadow_reset();
    obs::set_shadow_profile(true);
    obs::set_shadow_sample_stride(2);

    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    {  // healthy steps accumulate shadow telemetry
        tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
        solver.initialize_dam_break({});
        solver.run(2);
    }
    {  // then the poisoned run dies mid-step
        tp::shallow::ShallowWaterSolver<tp::fp::MixedPrecision> solver(cfg);
        tp::shallow::DamBreak ic;
        ic.h_inside = std::numeric_limits<double>::quiet_NaN();
        solver.initialize_dam_break(ic);
        obs::set_probe_enabled(true);
        EXPECT_THROW(solver.step(), obs::NumericalFault);
    }
    obs::finish_observability();  // what ObsGuard runs during unwind
    EXPECT_FALSE(obs::metrics().is_open());
    EXPECT_FALSE(obs::shadow_profile_enabled());

    const auto lines = lines_of(path);
    ASSERT_GE(lines.size(), 3u);
    int numerics = 0, diagnostics = 0;
    for (const auto& line : lines) {
        EXPECT_TRUE(json::valid(line)) << line;
        if (line.find("\"type\":\"numerics\"") != std::string::npos)
            ++numerics;
        if (line.find("\"type\":\"diagnostic\"") != std::string::npos)
            ++diagnostics;
    }
    EXPECT_GT(numerics, 0);
    EXPECT_EQ(diagnostics, 1);
    obs::probe_reset();
    obs::set_shadow_sample_stride(16);
}

// Body of the death test below: lives in a free function because the
// brace-initialized argv would otherwise split EXPECT_DEATH's macro args.
[[noreturn]] void run_then_throw_uncaught(const std::string& trace,
                                          const std::string& metrics) {
    tp::util::ArgParser args("death", "terminate-flush probe");
    obs::add_obs_options(args);
    const char* argv[] = {"death", "--trace", trace.c_str(), "--metrics",
                          metrics.c_str()};
    if (!args.parse(5, argv)) std::abort();
    (void)obs::apply_obs_options(args, "death", {});
    { TP_OBS_SPAN("death.span"); }
    // Throw across a noexcept boundary: std::terminate fires at the throw
    // point itself, which the death-test harness cannot catch — the same
    // handler an exception escaping main() reaches. -Wterminate flags
    // exactly that, and here it is the point.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wterminate"
#endif
    [&]() noexcept { throw std::runtime_error("uncaught"); }();
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    std::abort();
}

TEST(FlushDeathTest, UncaughtExceptionStillLandsTraceAndMetrics) {
    // apply_obs_options installs a std::terminate hook; an exception that
    // escapes everything must still flush the (buffered) trace file and
    // close the metrics stream before the process dies.
    const std::string trace = temp_path("term.trace.json");
    const std::string metrics = temp_path("term.metrics.jsonl");
    EXPECT_DEATH(run_then_throw_uncaught(trace, metrics), "");
    const std::string doc = slurp(trace);
    ASSERT_FALSE(doc.empty())
        << "terminate hook did not write the trace file";
    EXPECT_TRUE(json::valid(doc));
    EXPECT_NE(doc.find("death.span"), std::string::npos);
    for (const auto& line : lines_of(metrics))
        EXPECT_TRUE(json::valid(line)) << line;
}

// ------------------------------- record-type round trip (all emitters)

TEST(RoundTrip, EveryRecordTypeSurvivesEmitThenParse) {
    // Drive the real emitters end to end — manifest (with non-ASCII and
    // deliberately invalid-encoding values), step, diagnostic, probe,
    // numerics, table — then require every line to pass the strict
    // validator AND the DOM parser, with a known type discriminator.
    const std::string path = temp_path("roundtrip.metrics.jsonl");
    obs::metrics().open(path);
    obs::write_manifest("round_trip",
                        {{"note", "h\xC3\xA9llo \xE6\x97\xA5\xE6\x9C\xAC"},
                         {"legacy", "raw\xFF" "byte"}});
    obs::metrics().write_line(json::Object()
                                  .field("type", "step")
                                  .field("t", 0.25)
                                  .field("dt", 1e-3)
                                  .field("wall_s", 0.01)
                                  .str());
    try {
        obs::raise_numerical_fault("unit.k", 3, "injected");
    } catch (const obs::NumericalFault&) {
    }
    obs::probe_reset();
    obs::set_probe_enabled(true);
    const float healthy[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    obs::probe_array("unit.rt", healthy, 4);
    obs::probe_flush_to_metrics();
    obs::set_probe_enabled(false);
    obs::shadow_reset();
    obs::DivergenceStats s;
    s.observe(std::nextafterf(1.0f, 2.0f), 1.0);
    obs::shadow_merge("unit.kernel", "arr", s);
    obs::shadow_flush_to_metrics();
    obs::shadow_reset();
    tp::util::TextTable table("rt");
    table.set_header({"a"});
    table.add_row({"1"});
    obs::metrics().write_line(table.json_str());
    obs::metrics().close();

    const auto lines = lines_of(path);
    ASSERT_EQ(lines.size(), 6u);
    std::vector<std::string> types;
    for (const auto& line : lines) {
        EXPECT_TRUE(json::valid(line)) << line;
        const auto v = json::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        types.push_back(v->string_or("type", "?"));
    }
    const std::vector<std::string> expected{"manifest", "step",
                                            "diagnostic", "probe",
                                            "numerics",  "table"};
    EXPECT_EQ(types, expected);

    // The decoded manifest strings: well-formed UTF-8 round-trips
    // byte-identical, the invalid 0xFF byte comes back as U+00FF.
    const auto manifest = json::parse(lines[0]);
    EXPECT_EQ(manifest->string_or("note", ""),
              "h\xC3\xA9llo \xE6\x97\xA5\xE6\x9C\xAC");
    EXPECT_EQ(manifest->string_or("legacy", ""),
              "raw\xC3\xBF"
              "byte");
    obs::probe_reset();
}

}  // namespace
