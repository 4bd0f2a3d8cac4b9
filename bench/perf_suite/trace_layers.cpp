#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "suite.hpp"

namespace perf_suite {

namespace {

struct Span {
    const std::string* name;
    double ts;   // µs
    double dur;  // µs
    double child = 0.0;
};

}  // namespace

std::vector<SpanSelf> span_self_times(const std::string& path) {
    const auto doc = read_json_file(path);
    const tp::obs::json::Value* events =
        doc ? doc->find("traceEvents") : nullptr;
    if (events == nullptr || !events->is_array())
        throw std::runtime_error("cannot read a Chrome trace from " + path);

    // Complete ("X") events grouped by track; spans on one track nest.
    std::map<std::pair<double, double>, std::vector<Span>> tracks;
    for (const auto& e : events->items()) {
        const tp::obs::json::Value* ph = e.find("ph");
        const tp::obs::json::Value* name = e.find("name");
        if (ph == nullptr || !ph->is_string() || ph->as_string() != "X" ||
            name == nullptr || !name->is_string())
            continue;
        tracks[{e.number_or("pid", 0.0), e.number_or("tid", 0.0)}].push_back(
            {&name->as_string(), e.number_or("ts", 0.0),
             e.number_or("dur", 0.0)});
    }

    std::map<std::string, SpanSelf> by_name;
    for (auto& [track, spans] : tracks) {
        // Parents first: earlier start, then the longer span.
        std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
            return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
        });
        std::vector<Span*> open;
        for (Span& s : spans) {
            while (!open.empty() && open.back()->ts + open.back()->dur <= s.ts)
                open.pop_back();
            if (!open.empty()) open.back()->child += s.dur;
            open.push_back(&s);
        }
        for (const Span& s : spans) {
            SpanSelf& agg = by_name[*s.name];
            agg.name = *s.name;
            ++agg.count;
            agg.total_ms += s.dur * 1e-3;
            agg.self_ms += std::max(0.0, s.dur - s.child) * 1e-3;
        }
    }
    std::vector<SpanSelf> out;
    out.reserve(by_name.size());
    for (auto& [name, agg] : by_name) out.push_back(std::move(agg));
    std::sort(out.begin(), out.end(), [](const SpanSelf& a, const SpanSelf& b) {
        return a.self_ms > b.self_ms;
    });
    return out;
}

std::string layers_json(const std::string& workload,
                        const std::vector<SpanSelf>& spans) {
    std::string list = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i != 0) list += ',';
        list += tp::obs::json::Object()
                    .field("name", spans[i].name)
                    .field("count", spans[i].count)
                    .field("total_ms", spans[i].total_ms)
                    .field("self_ms", spans[i].self_ms)
                    .str();
    }
    list += ']';
    return tp::obs::json::Object()
        .field("workload", workload)
        .field_raw("spans", list)
        .str();
}

}  // namespace perf_suite
