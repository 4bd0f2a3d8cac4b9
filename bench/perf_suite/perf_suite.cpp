// perf_suite: measures the paper's canonical runs end to end and per layer.
//
//   perf_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--out-dir DIR]
//   perf_suite --list | --self-test | --quick
//   perf_suite --compare A B [--benchmark BENCHMARK.json]
//
// A run of one workload: setup, one untimed warm-up repeat, then timed
// repeats (each on a fresh solver, each a closed loop of step() calls)
// until --seconds have passed, setups alone until kSetupSamples are timed,
// then one same-seed full-precision reference run. It prints every metric
// by name with its unit and the checks on the outputs, writes
// DIR/results/<workload>-s<seed>-t<trace>.json, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}, the end-to-end
// metrics untraced, the per-layer metrics with --trace 1.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "stats.hpp"
#include "suite.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace json = tp::obs::json;
using namespace perf_suite;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// The thread team the timed solver runs with. One thread: on a shared
/// host a team as wide as the machine waits at every barrier for its
/// slowest member. In alternating runs on a shared 4-vCPU VM, the
/// ten-seed spread of sem_bubble_single's run_s was 12% at four threads
/// and 5% at one.
constexpr int kThreads = 1;
/// The untimed full-precision reference run may use up to this many
/// threads; the solvers' results do not depend on the thread count.
constexpr int kReferenceThreads = 4;
/// setup_s is the median of at least this many setups.
constexpr std::size_t kSetupSamples = 15;

struct Options {
    std::string mode = "run";  // run | list | self-test | quick | compare
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 25.0;
    int trace = 0;
    std::string out_dir = "build/perf_suite";
    std::string benchmark = "BENCHMARK.json";
    std::vector<std::string> compare;
};

const char* kUsage =
    "usage: perf_suite --workload NAME [--seed N] [--seconds S] "
    "[--trace 0|1] [--out-dir DIR]\n"
    "       perf_suite --list | --self-test | --quick\n"
    "       perf_suite --compare A B [--benchmark BENCHMARK.json]\n"
    "A and B are result files or directories of them.\n";

bool parse_args(int argc, char** argv, Options& o) {
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") {
                o.workload = value();
            } else if (a == "--seed") {
                const std::string v = value();
                std::size_t pos = 0;
                o.seed = std::stoull(v, &pos);
                if (pos != v.size() || v[0] == '-')
                    throw std::invalid_argument("bad --seed " + v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
                if (!(o.seconds >= 0.0 && o.seconds <= 3600.0))
                    throw std::invalid_argument("--seconds out of range");
            } else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    throw std::invalid_argument("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--out-dir") {
                o.out_dir = value();
            } else if (a == "--benchmark") {
                o.benchmark = value();
            } else if (a == "--list") {
                o.mode = "list";
            } else if (a == "--self-test") {
                o.mode = "self-test";
            } else if (a == "--quick") {
                o.mode = "quick";
            } else if (a == "--compare") {
                o.mode = "compare";
                o.compare = {value(), value()};
            } else {
                throw std::invalid_argument("unknown argument " + a);
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perf_suite: %s\n%s", e.what(), kUsage);
        return false;
    }
    if (o.mode == "run" && o.workload.empty()) {
        std::fprintf(stderr, "perf_suite: --workload is required\n%s", kUsage);
        return false;
    }
    return true;
}

std::string cpu_model() {
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Start the OpenMP team before anything is measured, so thread creation
/// lands in neither setup time nor the resident-set growth.
void warm_thread_team() {
    int sink = 0;
#pragma omp parallel reduction(+ : sink)
    sink += 1;
    if (sink < 1) std::fprintf(stderr, "perf_suite: empty thread team\n");
}

/// Removes the run's checkpoint scratch directory on every exit path.
class ScratchDir {
public:
    explicit ScratchDir(fs::path p) : path_(std::move(p)) {
        fs::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    [[nodiscard]] const fs::path& path() const { return path_; }

private:
    fs::path path_;
};

struct Metric {
    double value = 0.0;
    std::vector<double> samples;  ///< per repeat, where the metric has them
};

/// Relative L1 distance of a line cut from the reference cut.
double cut_l1(const std::vector<double>& cut, const std::vector<double>& ref) {
    if (ref.empty() || cut.size() != ref.size()) return 0.0;
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < cut.size(); ++i) {
        num += std::fabs(cut[i] - ref[i]);
        den += std::fabs(ref[i]);
    }
    return den > 0.0 ? num / den : num;
}

std::string metrics_json(const std::map<std::string, Metric>& values,
                         const MetricDef* begin, const MetricDef* end,
                         bool with_samples) {
    json::Object obj;
    for (const MetricDef* d = begin; d != end; ++d) {
        const auto it = values.find(d->name);
        const Metric m = it != values.end() ? it->second : Metric{};
        json::Object entry;
        entry.field("value", m.value).field("unit", d->unit);
        if (with_samples && !m.samples.empty()) {
            std::string s = "[";
            for (std::size_t i = 0; i < m.samples.size(); ++i) {
                if (i != 0) s += ',';
                json::append_number(s, m.samples[i]);
            }
            entry.field_raw("samples", s + "]");
        }
        obj.field_raw(d->name, entry.str());
    }
    return obj.str();
}

/// Runs one workload, prints its report and result line; returns whether
/// every check held.
bool run_workload(const WorkloadSpec& w, const Options& o, bool quick) {
    tp::util::set_threads(kThreads);
    warm_thread_team();
    const Params params = draw_params(w, o.seed);
    const ScratchDir scratch(fs::path(o.out_dir) / "tmp" /
                             (std::string(w.name) + "-" +
                              std::to_string(::getpid())));
    const fs::path trace_dir = fs::path(o.out_dir) / "traces";
    if (o.trace) fs::create_directories(trace_dir);
    const std::string trace_path =
        (trace_dir / (std::string(w.name) + ".trace.json")).string();

    std::string param_text;
    for (const auto& [k, v] : params) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%s=%.6g",
                      param_text.empty() ? "" : " ", k.c_str(), v);
        param_text += buf;
    }
    const std::string cpu = cpu_model();
    std::printf("perf_suite %s  seed %llu  (%s)\n", w.name,
                static_cast<unsigned long long>(o.seed), param_text.c_str());
    std::printf("host: %d threads of %d, %s, %s, %s, git %s\n", kThreads,
                tp::util::hardware_threads(), tp::simd::isa_name(),
                cpu.c_str(), __VERSION__, PERF_SUITE_GIT_SHA);

    // Warm-up: the first repeat in a process runs slower (page faults,
    // thread start-up); it is checked but not timed. Its resident-set
    // growth is the one measured on fresh memory.
    tp::util::WallTimer warm_timer;
    const RepeatResult warm =
        run_repeat(w, params, {"", scratch.path().string()});
    double repeat_s = warm_timer.elapsed_seconds();

    // Timed repeats until --seconds is spent; with --trace 1 every other
    // repeat is traced and the untraced ones give the counters.
    std::vector<RepeatResult> reps;
    std::vector<bool> traced;
    const std::size_t min_repeats = quick ? 1 : 3;
    tp::util::WallTimer window;
    while (reps.size() < min_repeats ||
           window.elapsed_seconds() + repeat_s <= o.seconds) {
        const bool tr = o.trace && reps.size() % 2 == 1;
        tp::util::WallTimer t;
        reps.push_back(run_repeat(
            w, params, {tr ? trace_path : "", scratch.path().string()}));
        traced.push_back(tr);
        repeat_s = t.elapsed_seconds();
    }
    // Setups take tens of milliseconds, so a short burst of host load
    // moves a median over a few of them: top the repeats' own setups up
    // with setups whose solver is dropped at once.
    std::vector<double> setups;
    for (const RepeatResult& r : reps) setups.push_back(r.setup_s);
    while (!quick && setups.size() < kSetupSamples)
        setups.push_back(
            run_repeat(w, params, {"", scratch.path().string(), true})
                .setup_s);

    tp::util::set_threads(
        std::min(kReferenceThreads, tp::util::hardware_threads()));
    const std::vector<double> ref = reference_cut(w, params);
    tp::util::set_threads(kThreads);

    // ---- checks
    const auto failures = [&](const RepeatResult& r) {
        std::string why;
        const auto need = [&](bool ok, const char* what) {
            if (!ok) why += std::string(why.empty() ? "" : ", ") + what;
        };
        need(r.digest == warm.digest, "digest differs from the warm-up");
        need(r.finite, "non-finite state");
        need(r.mass_drift <= w.mass_tol, "mass drift over tolerance");
        need(cut_l1(r.cut, ref) <= w.cut_tol, "cut_l1_vs_full over tolerance");
        need(r.drained, "communicator not drained");
        need(r.readback_ok, "checkpoint read-back outside the bound");
        need(r.counts == warm.counts, "work counts differ from the warm-up");
        return why;
    };
    const std::string warm_fail = failures(warm);
    int failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i)
        if (const std::string why = failures(reps[i]); !why.empty()) {
            ++failed;
            std::printf("repeat %zu FAILED: %s\n", i + 1, why.c_str());
        }
    if (!warm_fail.empty())
        std::printf("warm-up FAILED: %s\n", warm_fail.c_str());
    const bool correct = failed == 0 && warm_fail.empty();

    // ---- end-to-end metrics (untraced repeats only)
    std::map<std::string, Metric> m;
    m["setup_s"].samples = setups;
    std::vector<double> pooled;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const RepeatResult& r = reps[i];
        if (traced[i]) continue;
        pooled.insert(pooled.end(), r.step_s.begin(), r.step_s.end());
        double step_sum = 0.0;
        for (const double s : r.step_s) step_sum += s;
        m["run_s"].samples.push_back(r.wall_s);
        m["step_ms_p50"].samples.push_back(median(r.step_s) * 1e3);
        m["step_ms_p95"].samples.push_back(percentile(r.step_s, 95.0) * 1e3);
        m["mupdates_per_s"].samples.push_back(r.updates / step_sum * 1e-6);
    }
    for (const char* name : {"setup_s", "run_s", "mupdates_per_s"})
        m[name].value = median(m[name].samples);
    m["step_ms_p50"].value = median(pooled) * 1e3;
    m["step_ms_p95"].value = percentile(pooled, 95.0) * 1e3;
    m["rss_mib"].value = warm.rss_growth_bytes / kMiB;

    // ---- per-layer metrics: medians over the untraced repeats
    std::set<std::string> produced;
    for (const MetricDef& d : kPerLayer) {
        std::vector<double> v;
        for (std::size_t i = 0; i < reps.size(); ++i)
            if (!traced[i]) {
                const auto it = reps[i].layer.find(d.name);
                if (it == reps[i].layer.end()) continue;
                v.push_back(it->second);
                produced.insert(d.name);
            }
        m[d.name].value = median(v);
    }
    std::vector<double> drift;
    for (const auto& r : reps) drift.push_back(r.mass_drift);
    m["numerics.mass_drift_rel"].value = median(drift);
    m["numerics.cut_l1_vs_full"].value = cut_l1(reps.front().cut, ref);
    m["bench.failed_frac"].value =
        static_cast<double>(failed) / static_cast<double>(reps.size());
    produced.insert({"numerics.mass_drift_rel", "numerics.cut_l1_vs_full",
                     "bench.failed_frac"});
    std::vector<SpanSelf> spans;
    if (o.trace) {
        std::vector<double> steps_on;
        std::vector<double> events;
        for (std::size_t i = 0; i < reps.size(); ++i)
            if (traced[i]) {
                steps_on.insert(steps_on.end(), reps[i].step_s.begin(),
                                reps[i].step_s.end());
                events.push_back(static_cast<double>(reps[i].trace_events));
            }
        const double off = median(pooled);
        m["obs.trace_overhead_frac"].value = (median(steps_on) - off) / off;
        m["obs.trace_events"].value = median(events);
        m["obs.trace_dropped"].value =
            static_cast<double>(tp::obs::trace_dropped_events());
        produced.insert({"obs.trace_overhead_frac", "obs.trace_events",
                         "obs.trace_dropped"});
        spans = span_self_times(trace_path);
        const fs::path layers = trace_dir / (std::string(w.name) +
                                             ".layers.json");
        std::ofstream(layers) << layers_json(w.name, spans) << '\n';
    }

    // ---- report
    const std::size_t untraced = static_cast<std::size_t>(
        std::count(traced.begin(), traced.end(), false));
    std::printf("repeats: 1 warm-up + %zu timed (%zu traced) x %d steps, "
                "closed loop, total_mass every %d steps%s\n",
                reps.size(), reps.size() - untraced, w.steps,
                kDiagnosticInterval,
                w.checkpoint ? ", async checkpoint every 20 steps" : "");
    if (!o.trace) {
        std::printf("end to end (untraced):\n");
        for (const MetricDef& d : kEndToEnd)
            std::printf("  %-26s %12.6g %-7s\n", d.name, m[d.name].value,
                        d.unit);
        std::printf("  (setup_s: median of %zu setups; run_s, mupdates_per_s:"
                    " median of %zu repeats; step_ms: %zu step samples, %zu "
                    "beyond p95; rss_mib: VmRSS growth over the warm-up)\n",
                    setups.size(), untraced, pooled.size(),
                    samples_beyond(pooled, 95.0));
    }
    std::printf("per layer (median of %zu untraced repeats; per step, mesh.* "
                "per rezone, io.* per checkpoint):\n",
                untraced);
    for (const MetricDef& d : kPerLayer)
        if (produced.count(d.name) != 0)
            std::printf("  %-26s %12.6g %-7s\n", d.name, m[d.name].value,
                        d.unit);
    if (!spans.empty()) {
        std::printf("trace self time, top spans (%s):\n", trace_path.c_str());
        for (std::size_t i = 0; i < spans.size() && i < 8; ++i)
            std::printf("  %-26s %12.3f ms self  %10llu calls\n",
                        spans[i].name.c_str(), spans[i].self_ms,
                        static_cast<unsigned long long>(spans[i].count));
    }
    std::string counted;
    for (const auto& [k, v] : warm.counts)
        counted += (counted.empty() ? "" : ", ") + k;
    std::printf("checks: work counts (%s) repeat exactly across %zu "
                "repeats: %s\n",
                counted.c_str(), reps.size() + 1,
                std::all_of(reps.begin(), reps.end(),
                            [&](const RepeatResult& r) {
                                return r.counts == warm.counts;
                            })
                    ? "yes"
                    : "NO");
    const bool canonical = o.seed == 0 && *w.canonical_digest != 0;
    const bool digest_match = hex(warm.digest) == w.canonical_digest;
    std::printf("  final-state digest %s; digest_match %s (information "
                "only)\n",
                hex(warm.digest).c_str(),
                !canonical ? "n/a" : digest_match ? "yes" : "no");
    std::printf("  tolerances: |mass drift| <= %g, cut_l1_vs_full <= %g (vs "
                "same-seed full-precision run)\n",
                w.mass_tol, w.cut_tol);
    std::printf("  failed %d of %zu timed repeats\n", failed, reps.size());

    // ---- result file
    if (!quick) {
        json::Object pj;
        for (const auto& [k, v] : params) pj.field(k, v);
        json::Object cj;
        for (const auto& [k, v] : warm.counts) cj.field(k, v);
        json::Object host;
        host.field("threads", kThreads)
            .field("nproc", tp::util::hardware_threads())
            .field("isa", tp::simd::isa_name())
            .field("cpu", cpu)
            .field("compiler", __VERSION__)
            .field("git_sha", PERF_SUITE_GIT_SHA);
        json::Object doc;
        doc.field("suite", "perf_suite")
            .field("workload", w.name)
            .field("seed", o.seed)
            .field("trace", o.trace)
            .field("seconds", o.seconds)
            .field_raw("params", pj.str())
            .field_raw("host", host.str())
            .field("repeats", static_cast<std::uint64_t>(reps.size()))
            .field("steps_per_repeat", w.steps)
            .field("step_samples", static_cast<std::uint64_t>(pooled.size()))
            .field_raw("metrics", metrics_json(m, std::begin(kEndToEnd),
                                               std::end(kEndToEnd), true))
            .field_raw("per_layer", metrics_json(m, std::begin(kPerLayer),
                                                 std::end(kPerLayer), false))
            .field_raw("counts", cj.str())
            .field("digest", hex(warm.digest));
        if (canonical)
            doc.field("digest_match", digest_match);
        else
            doc.field_raw("digest_match", "null");
        doc.field("correct", correct)
            .field("attempted", static_cast<std::uint64_t>(reps.size()))
            .field("failed", failed);
        const fs::path dir = fs::path(o.out_dir) / "results";
        fs::create_directories(dir);
        const fs::path file =
            dir / (std::string(w.name) + "-s" + std::to_string(o.seed) +
                   "-t" + std::to_string(o.trace) + ".json");
        std::ofstream(file) << doc.str() << '\n';
        std::printf("wrote %s\n", file.string().c_str());
    }

    std::printf(
        "%s\n",
        json::Object()
            .field("correct", correct)
            .field("attempted", static_cast<std::uint64_t>(reps.size()))
            .field("failed", failed)
            .field_raw("metrics",
                       o.trace ? metrics_json(m, std::begin(kPerLayer),
                                              std::end(kPerLayer), false)
                               : metrics_json(m, std::begin(kEndToEnd),
                                              std::end(kEndToEnd), false))
            .str()
            .c_str());
    return correct;
}

// ---------------------------------------------------------------- self-test

/// The BENCHMARK.json this suite is driven by must name exactly its
/// workloads and metrics. Returns the number of mismatches.
int check_benchmark_json(const std::string& path) {
    if (!fs::exists(path)) {
        std::printf("  BENCHMARK.json: skipped (no %s)\n", path.c_str());
        return 0;
    }
    const auto doc = read_json_file(path);
    if (!doc) {
        std::printf("  FAIL BENCHMARK.json does not parse\n");
        return 1;
    }
    int bad = 0;
    const json::Value* wl = doc->find("workloads");
    std::vector<std::string> names;
    if (wl != nullptr)
        for (const auto& x : wl->items()) names.push_back(x.string_or("name", ""));
    std::vector<std::string> want;
    for (const auto& w : workloads()) want.emplace_back(w.name);
    if (names != want) {
        std::printf("  FAIL BENCHMARK.json workloads differ from the suite's\n");
        ++bad;
    }
    const auto same_metrics = [&](const char* key, const MetricDef* b,
                                  const MetricDef* e) {
        const json::Value* list = doc->find(key);
        if (list == nullptr || list->items().size() !=
                                   static_cast<std::size_t>(e - b))
            return false;
        for (std::size_t i = 0; i < list->items().size(); ++i) {
            const auto& x = list->items()[i];
            if (x.string_or("name", "") != b[i].name ||
                x.string_or("unit", "") != b[i].unit ||
                x.string_or("better", "") !=
                    (b[i].higher_is_better ? "higher" : "lower"))
                return false;
        }
        return true;
    };
    if (!same_metrics("end_to_end", std::begin(kEndToEnd),
                      std::end(kEndToEnd))) {
        std::printf("  FAIL BENCHMARK.json end_to_end differs from the "
                    "suite's\n");
        ++bad;
    }
    if (!same_metrics("per_layer", std::begin(kPerLayer),
                      std::end(kPerLayer))) {
        std::printf("  FAIL BENCHMARK.json per_layer differs from the "
                    "suite's\n");
        ++bad;
    }
    if (bad == 0)
        std::printf("  ok   BENCHMARK.json names the suite's workloads and "
                    "metrics\n");
    return bad;
}

int self_test(const Options& o) {
    int bad = 0;
    const auto expect = [&](bool ok, const char* what) {
        std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
        bad += ok ? 0 : 1;
    };
    const auto near = [](double a, double b) {
        return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
    };
    std::printf("perf_suite self-test\n");
    expect(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5 &&
               median({}) == 0.0,
           "median of odd, even and empty samples");
    // Reference values from Python: statistics.quantiles(data, n=4).
    const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    const auto q2 = quartiles({2, 1});
    const auto q5 = quartiles({0.5, 0.1, 0.3, 0.2, 0.4});
    expect(near(q10[0], 2.75) && near(q10[1], 5.5) && near(q10[2], 8.25) &&
               near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25) &&
               near(q5[0], 0.15) && near(q5[1], 0.3) && near(q5[2], 0.45),
           "quartiles match Python's statistics.quantiles(n=4)");
    expect(near(rel_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5),
           "relative spread is IQR / median");
    std::vector<double> hundred;
    for (int i = 1; i <= 1000; ++i) hundred.push_back(i);
    expect(percentile(hundred, 99.0) == 990.0 &&
               percentile(hundred, 50.0) == 500.0 &&
               percentile({7.0}, 99.0) == 7.0 &&
               samples_beyond(hundred, 99.0) == 10,
           "nearest-rank p99 keeps ten samples beyond it at n = 1000");
    expect(fnv1a("") == 0xcbf29ce484222325ULL &&
               fnv1a("a") == 0xaf63dc4c8601ec8cULL &&
               fnv1a("foobar") == 0x85944171f73967e8ULL &&
               fnv1a("bar", fnv1a("foo")) == fnv1a("foobar"),
           "FNV-1a digest test vectors and chaining");
    const std::vector<double> base{100, 101, 99, 100};
    expect(judge(base, {130, 131, 129}, 0.02, 0.1, false) == Verdict::Worse &&
               judge(base, {130, 131, 129}, 0.02, 0.1, true) ==
                   Verdict::Better &&
               judge(base, {105, 104, 106}, 0.02, 0.1, false) ==
                   Verdict::Same &&
               judge(base, {60, 160, 101}, 0.5, 0.1, false) ==
                   Verdict::Unresolved &&
               judge(base, {50, 52, 51}, 0.5, 0.1, false) == Verdict::Better,
           "bound rule: worse / better / same / unresolved");
    expect(draw_params(workloads()[0], 0) == draw_params(workloads()[0], 0) &&
               draw_params(workloads()[0], 7) ==
                   draw_params(workloads()[0], 7) &&
               draw_params(workloads()[0], 7) !=
                   draw_params(workloads()[0], 8),
           "seeded inputs repeat per seed and differ between seeds");
    bool in_range = true;
    for (std::uint64_t seed = 1; seed <= 50; ++seed)
        for (const auto& w : workloads()) {
            const Params p0 = draw_params(w, 0);
            const Params p = draw_params(w, seed);
            for (std::size_t i = 0; i < p.size(); ++i) {
                const double r = p[i].second / p0[i].second;
                in_range = in_range && r >= 0.95 && r < 1.05;
            }
        }
    expect(in_range, "seeded inputs stay within 5% of the canonical ones");
    bad += check_benchmark_json(o.benchmark);
    std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
    return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parse_args(argc, argv, o)) return 2;
    try {
        if (o.mode == "list") {
            for (const auto& w : workloads()) std::printf("%s\n", w.name);
            return 0;
        }
        if (o.mode == "self-test") return self_test(o);
        if (o.mode == "compare")
            return compare_results(o.compare[0], o.compare[1], o.benchmark);
        if (o.mode == "quick") {
            if (self_test(o) != 0) return 1;
            Options q = o;
            q.seconds = 0.0;
            q.trace = 0;
            bool correct = true;
            for (const auto& w : workloads())
                correct = run_workload(quick_variant(w), q, true) && correct;
            return correct ? 0 : 1;
        }
        const WorkloadSpec* w = find_workload(o.workload);
        if (w == nullptr) {
            std::fprintf(stderr, "perf_suite: unknown workload '%s' (see "
                                 "--list)\n",
                         o.workload.c_str());
            return 2;
        }
        // An incorrect run still exits 0: its result line says so.
        run_workload(*w, o, false);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perf_suite: %s\n", e.what());
        return 1;
    }
}
