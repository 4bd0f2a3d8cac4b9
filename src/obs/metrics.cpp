#include "obs/metrics.hpp"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/threads.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

#ifndef TP_GIT_SHA
#define TP_GIT_SHA "unknown"
#endif

namespace tp::obs {

namespace {

struct StreamState {
    std::mutex mutex;
    std::FILE* file = nullptr;
    std::atomic<bool> open{false};
    std::atomic<std::uint64_t> lines{0};
};

StreamState& state() {
    static StreamState s;
    return s;
}

}  // namespace

void MetricsStream::open(const std::string& path) {
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file != nullptr) std::fclose(s.file);
    s.file = std::fopen(path.c_str(), "w");
    if (s.file == nullptr)
        throw std::runtime_error("metrics: cannot open '" + path +
                                 "' for writing");
    s.lines.store(0);
    s.open.store(true, std::memory_order_release);
}

void MetricsStream::close() {
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.open.store(false);
    if (s.file != nullptr) {
        std::fclose(s.file);
        s.file = nullptr;
    }
}

bool MetricsStream::is_open() const {
    return state().open.load(std::memory_order_acquire);
}

void MetricsStream::write_line(const std::string& json_object) {
    auto& s = state();
    if (!s.open.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file == nullptr) return;
    std::fwrite(json_object.data(), 1, json_object.size(), s.file);
    std::fputc('\n', s.file);
    // Line-buffered semantics: a crashed or aborted run (the exact case
    // the numerical-health diagnostics exist for) still leaves every
    // completed record on disk.
    std::fflush(s.file);
    s.lines.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t MetricsStream::lines_written() const {
    return state().lines.load(std::memory_order_relaxed);
}

MetricsStream& metrics() {
    static MetricsStream stream;
    return stream;
}

void write_manifest(const std::string& program,
                    const std::map<std::string, std::string>& extra) {
    if (!metrics().is_open()) return;
    json::Object m;
    m.field("type", "manifest").field("program", program);
    m.field("git_sha", TP_GIT_SHA);
#if defined(__VERSION__)
    m.field("compiler", __VERSION__);
#endif
#ifdef NDEBUG
    m.field("build", "release");
#else
    m.field("build", "debug");
#endif
#if defined(__unix__) || defined(__APPLE__)
    if (utsname u{}; ::uname(&u) == 0) {
        m.field("host", u.nodename);
        m.field("os", std::string(u.sysname) + " " + u.release);
        m.field("machine", u.machine);
    }
#endif
    {
        // ISO-8601 UTC start time, so files can be correlated with logs.
        char buf[32];
        const std::time_t now = std::time(nullptr);
        std::tm tm{};
#if defined(__unix__) || defined(__APPLE__)
        gmtime_r(&now, &tm);
#else
        tm = *std::gmtime(&now);
#endif
        std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
        m.field("start_time", buf);
    }
    m.field("threads", static_cast<std::int64_t>(util::max_threads()));
    m.field("openmp", util::openmp_enabled());
    for (const auto& [key, value] : extra) m.field(key, value);
    metrics().write_line(std::move(m).str());
}

std::string timer_delta_json(const util::StopwatchRegistry& timers,
                             std::map<std::string, double>& previous) {
    json::Object phases;
    for (const auto& [name, entry] : timers.entries()) {
        double& prev = previous[name];
        const char* parent = phase_parent(name);
        const std::string prefix = parent ? std::string(parent) + '_' : "";
        phases.field(name.starts_with(prefix) ? name : prefix + name,
                     entry.total_seconds - prev);
        prev = entry.total_seconds;
    }
    return std::move(phases).str();
}

}  // namespace tp::obs
