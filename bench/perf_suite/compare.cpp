#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "suite.hpp"

namespace perf_suite {

namespace {

namespace json = tp::obs::json;

struct ResultFile {
    std::string workload;
    double seed = 0.0;
    std::map<std::string, double> value;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> counts;
    std::string digest;
};

struct Bound {
    std::string name;
    double bound = 0.0;
    bool higher_is_better = false;
};

/// Untraced perf_suite result files at `path` (a file or a directory).
std::vector<ResultFile> load_set(const std::string& path) {
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (const auto& e : fs::directory_iterator(path, ec))
            if (e.path().extension() == ".json")
                files.push_back(e.path().string());
        std::sort(files.begin(), files.end());
    } else {
        files.push_back(path);
    }
    std::vector<ResultFile> out;
    for (const auto& f : files) {
        const auto doc = read_json_file(f);
        if (!doc || doc->string_or("suite", "") != "perf_suite" ||
            doc->number_or("trace", 1.0) != 0.0)
            continue;
        ResultFile r;
        r.workload = doc->string_or("workload", "");
        r.seed = doc->number_or("seed", 0.0);
        r.digest = doc->string_or("digest", "");
        if (const json::Value* m = doc->find("metrics"); m != nullptr)
            for (const auto& [name, v] : m->members()) {
                r.value[name] = v.number_or("value", 0.0);
                if (const json::Value* s = v.find("samples");
                    s != nullptr && s->is_array())
                    for (const auto& x : s->items())
                        r.samples[name].push_back(x.as_number());
            }
        if (const json::Value* c = doc->find("counts"); c != nullptr)
            for (const auto& [name, v] : c->members())
                r.counts[name] = v.as_number();
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<Bound> load_bounds(const std::string& path) {
    std::vector<Bound> out;
    const auto doc = read_json_file(path);
    const json::Value* e2e = doc ? doc->find("end_to_end") : nullptr;
    if (e2e == nullptr || !e2e->is_array()) return out;
    for (const auto& m : e2e->items())
        out.push_back({m.string_or("name", ""), m.number_or("bound", 0.0),
                       m.string_or("better", "") == "higher"});
    return out;
}

}  // namespace

int compare_results(const std::string& base, const std::string& cand,
                    const std::string& benchmark_json) {
    const std::vector<ResultFile> a_set = load_set(base);
    const std::vector<ResultFile> b_set = load_set(cand);
    const std::vector<Bound> bounds = load_bounds(benchmark_json);
    if (a_set.empty() || b_set.empty() || bounds.empty()) {
        std::fprintf(stderr,
                     "perf_suite --compare: need untraced result files on "
                     "both sides and end_to_end bounds in %s\n",
                     benchmark_json.c_str());
        return 2;
    }
    std::vector<std::string> names;
    for (const auto* set : {&a_set, &b_set})
        for (const auto& r : *set)
            if (std::find(names.begin(), names.end(), r.workload) ==
                names.end())
                names.push_back(r.workload);

    std::printf("compare %s (%zu runs) -> %s (%zu runs), bounds from %s\n",
                base.c_str(), a_set.size(), cand.c_str(), b_set.size(),
                benchmark_json.c_str());
    std::printf("%-20s %-11s %-22s %s\n", "workload", "verdict", "counts",
                "metrics not the same (change of median, spread)");
    bool any_worse = false;
    for (const auto& name : names) {
        std::vector<const ResultFile*> a;
        std::vector<const ResultFile*> b;
        for (const auto& r : a_set)
            if (r.workload == name) a.push_back(&r);
        for (const auto& r : b_set)
            if (r.workload == name) b.push_back(&r);
        if (a.empty() || b.empty()) {
            std::printf("%-20s %-11s %-22s missing from the %s set\n",
                        name.c_str(), "unresolved", "-",
                        a.empty() ? "base" : "candidate");
            continue;
        }
        // Several runs a side: one value per run. One run a side: its
        // per-repeat samples, or its value for a once-a-run metric.
        const bool per_run = a.size() >= 2 && b.size() >= 2;
        const auto values = [&](const std::vector<const ResultFile*>& set,
                                const std::string& metric) {
            std::vector<double> v;
            for (const ResultFile* r : set) {
                const auto s = r->samples.find(metric);
                if (!per_run && s != r->samples.end()) {
                    v.insert(v.end(), s->second.begin(), s->second.end());
                } else if (const auto it = r->value.find(metric);
                           it != r->value.end()) {
                    v.push_back(it->second);
                }
            }
            return v;
        };
        Verdict row = Verdict::Same;
        std::string details;
        for (const Bound& bd : bounds) {
            const std::vector<double> va = values(a, bd.name);
            const std::vector<double> vb = values(b, bd.name);
            const double spread = std::max(rel_spread(va), rel_spread(vb));
            const Verdict v =
                judge(va, vb, spread, bd.bound, bd.higher_is_better);
            if (v == Verdict::Same) continue;
            const double ma = median(va);
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s%s %s %+.1f%% (spread %.1f%%)",
                          details.empty() ? "" : "; ", bd.name.c_str(),
                          verdict_name(v),
                          ma != 0.0 ? (median(vb) - ma) / ma * 100.0 : 0.0,
                          spread * 100.0);
            details += buf;
            // Worse outranks unresolved outranks better outranks same.
            const auto rank = [](Verdict x) {
                return x == Verdict::Worse        ? 3
                       : x == Verdict::Unresolved ? 2
                       : x == Verdict::Better     ? 1
                                                  : 0;
            };
            if (rank(v) > rank(row)) row = v;
        }
        // Same seed on both sides: work counts and final state must match.
        int pairs = 0;
        int differ = 0;
        for (const ResultFile* x : a)
            for (const ResultFile* y : b)
                if (x->seed == y->seed) {
                    ++pairs;
                    if (x->counts != y->counts || x->digest != y->digest)
                        ++differ;
                }
        char counts[64];
        if (pairs == 0)
            std::snprintf(counts, sizeof counts, "no same-seed pair");
        else if (differ == 0)
            std::snprintf(counts, sizeof counts, "identical (%d pairs)",
                          pairs);
        else
            std::snprintf(counts, sizeof counts, "DIFFER (%d of %d)", differ,
                          pairs);
        any_worse = any_worse || row == Verdict::Worse;
        std::printf("%-20s %-11s %-22s %s\n", name.c_str(), verdict_name(row),
                    counts, details.empty() ? "-" : details.c_str());
    }
    return any_worse ? 1 : 0;
}

}  // namespace perf_suite
