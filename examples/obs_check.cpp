// obs_check: CI validator for the flight-recorder output formats.
//
// Checks that a Chrome-trace file and/or a metrics JSON-Lines file are
// well-formed and carry the records a healthy run must produce:
//
//   $ ./obs_check --trace=run.trace.json --metrics=run.metrics.jsonl
//         --require=clamr.step,clamr.flux_sweep,clamr.rezone
//
// (one command, wrapped without the trailing backslash -Wcomment flags).
//
// Exit status is 0 when every check passes, 1 otherwise, with one line
// per failure on stderr. The rules live in obs/report.hpp: each metrics
// line is parsed once, checked against its record type's entry in
// report::record_types() and rolled into the RunSummary that tp_report
// reads, and the --require-* options are answered from that summary. So
// CI needs no external JSON tools, and the checker and the analyzer
// cannot disagree about a record.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"

using namespace tp;

namespace {

int failures = 0;

void fail(const std::string& msg) {
    std::fprintf(stderr, "obs_check: FAIL: %s\n", msg.c_str());
    ++failures;
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, ','))
        if (!item.empty()) out.push_back(item);
    return out;
}

void check_trace(const std::string& path,
                 const std::vector<std::string>& required_spans) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fail("trace file '" + path + "' cannot be opened");
        return;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const auto root = obs::json::parse(buf.str());
    if (!root) {
        fail("trace file '" + path + "' is not valid JSON");
        return;
    }
    for (const std::string& p :
         obs::report::check_trace(*root, required_spans))
        fail("trace file '" + path + "' " + p);
}

void check_metrics(const std::string& path,
                   const std::vector<std::string>& required_phases,
                   const std::vector<std::string>& required_numerics,
                   const std::vector<std::string>& required_governor,
                   bool require_checkpoint, bool require_dist) {
    std::vector<std::string> problems;
    const auto run =
        obs::report::load_metrics_file(path, nullptr, &problems);
    if (!run) {
        fail("metrics file '" + path + "' cannot be opened");
        return;
    }
    for (const std::string& p : problems)
        fail("metrics file '" + path + "' " + p);
    for (const std::string& phase : required_phases)
        if (run->phase_seconds.count(phase) == 0)
            fail("no step record carries a '" + phase + "' phase timing");
    // Numerics entries are keyed "kernel/array".
    for (const std::string& kernel : required_numerics)
        if (const auto it = run->numerics.lower_bound(kernel + "/");
            it == run->numerics.end() ||
            !it->first.starts_with(kernel + "/"))
            fail("no numerics record for kernel '" + kernel + "'");
    for (const std::string& kernel : required_governor)
        if (std::none_of(run->governor_events.begin(),
                         run->governor_events.end(),
                         [&](const auto& e) { return e.kernel == kernel; }))
            fail("no governor transition record for kernel '" + kernel +
                 "'");
    if (require_checkpoint && run->checkpoints == 0)
        fail("metrics file '" + path +
             "' has no {\"type\":\"checkpoint\"} record");
    if (require_dist && run->dist_steps.empty())
        fail("metrics file '" + path +
             "' has no {\"type\":\"dist\"} record");
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("obs_check",
                         "validate flight-recorder trace/metrics output");
    args.add_option("trace", "Chrome-trace JSON file to validate", "");
    args.add_option("metrics", "metrics JSON-Lines file to validate", "");
    args.add_option("require",
                    "comma-separated span names the trace must contain",
                    "");
    args.add_option("require-phases",
                    "comma-separated phase timers the step records must "
                    "contain",
                    "");
    args.add_option("require-numerics",
                    "comma-separated kernels that must have a "
                    "{\"type\":\"numerics\"} divergence record",
                    "");
    args.add_option("require-governor",
                    "comma-separated kernels that must have a "
                    "{\"type\":\"governor\"} transition record",
                    "");
    args.add_flag("require-checkpoint",
                  "fail unless the metrics carry at least one "
                  "{\"type\":\"checkpoint\"} record");
    args.add_flag("require-dist",
                  "fail unless the metrics carry at least one "
                  "{\"type\":\"dist\"} per-rank phase record");
    if (!args.parse(argc, argv)) return 1;

    const std::string trace = args.get_string("trace");
    const std::string metrics = args.get_string("metrics");
    if (trace.empty() && metrics.empty()) {
        std::fprintf(stderr,
                     "obs_check: nothing to do (pass --trace and/or "
                     "--metrics)\n");
        return 1;
    }
    if (!trace.empty())
        check_trace(trace, split_csv(args.get_string("require")));
    if (!metrics.empty())
        check_metrics(metrics, split_csv(args.get_string("require-phases")),
                      split_csv(args.get_string("require-numerics")),
                      split_csv(args.get_string("require-governor")),
                      args.get_flag("require-checkpoint"),
                      args.get_flag("require-dist"));

    if (failures == 0) {
        std::printf("obs_check: OK (%s%s%s)\n", trace.c_str(),
                    (!trace.empty() && !metrics.empty()) ? ", " : "",
                    metrics.c_str());
        return 0;
    }
    std::fprintf(stderr, "obs_check: %d check(s) failed\n", failures);
    return 1;
}
