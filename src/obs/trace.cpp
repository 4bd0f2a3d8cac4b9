#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace tp::obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

namespace {

constexpr std::size_t kDefaultBufferCap = std::size_t{1} << 20;

struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
    std::vector<EdgeEvent> edges;
    std::uint64_t dropped = 0;  // events rejected at the cap
};

// Buffers live here (not in thread_local storage directly) so they
// survive thread exit and the flush can walk all of them. A deque never
// relocates elements, so the thread-local pointers stay valid as other
// threads register.
struct Session {
    std::mutex mutex;                  // registration + start/stop only
    std::deque<ThreadBuffer> buffers;  // one per thread that ever traced
    std::uint32_t next_tid = 0;
    std::string path;
    std::chrono::steady_clock::time_point epoch;
    std::uint64_t generation = 0;  // bumped per trace_start; stale TLS
                                   // pointers from a prior session re-register
    std::size_t buffer_cap = kDefaultBufferCap;  // per thread, spans+edges
    std::uint64_t last_dropped = 0;  // sticky total from the last stop
};

Session& session() {
    static Session s;
    return s;
}

ThreadBuffer& thread_buffer() {
    thread_local ThreadBuffer* buf = nullptr;
    thread_local std::uint64_t buf_generation = 0;
    Session& s = session();
    if (buf == nullptr || buf_generation != s.generation) {
        std::lock_guard<std::mutex> lock(s.mutex);
        buf = &s.buffers.emplace_back();
        buf->tid = s.next_tid++;
        buf->events.reserve(1024);
        buf->edges.reserve(256);
        buf_generation = s.generation;
    }
    return *buf;
}

bool buffer_full(const ThreadBuffer& buf) {
    return buf.events.size() + buf.edges.size() >= session().buffer_cap;
}

// One span as a Chrome-trace "X" (complete) event. Rank-tagged spans go
// to the virtual-rank process (pid 2, tid = rank) so every rank gets its
// own track; plain spans keep the host-thread track (pid 1, tid).
void write_span_json(std::string& line, const TraceEvent& e,
                     std::uint32_t thread_tid) {
    json::Object ev;
    ev.field("name", e.name)
        .field("cat", "tp")
        .field("ph", "X")
        .field("ts", static_cast<double>(e.begin_ns) * 1e-3)
        .field("dur", static_cast<double>(e.dur_ns) * 1e-3)
        .field("pid", e.rank >= 0 ? 2 : 1)
        .field("tid", e.rank >= 0
                          ? static_cast<std::int64_t>(e.rank)
                          : static_cast<std::int64_t>(thread_tid));
    line += std::move(ev).str();
}

// One edge as a flow-event pair: "s" on the source rank track at post
// time, "f" (binding point "e": attach to the enclosing slice) on the
// destination track at deliver time. Shared id pairs them; args carry
// the message accounting for obs_check and human inspection.
void write_edge_json(std::string& line, const EdgeEvent& e,
                     std::uint64_t id, bool start) {
    json::Object args;
    args.field("src", static_cast<std::int64_t>(e.src))
        .field("dst", static_cast<std::int64_t>(e.dst))
        .field("tag", static_cast<std::int64_t>(e.tag))
        .field("bytes", e.bytes);
    json::Object ev;
    ev.field("name", "halo").field("cat", "halo");
    if (start) {
        ev.field("ph", "s");
    } else {
        ev.field("ph", "f").field("bp", "e");
    }
    ev.field("id", id)
        .field("ts", static_cast<double>(start ? e.post_ns : e.deliver_ns) *
                         1e-3)
        .field("pid", 2)
        .field("tid",
               static_cast<std::int64_t>(start ? e.src : e.dst))
        .field_raw("args", std::move(args).str());
    line += std::move(ev).str();
}

void write_metadata_json(std::string& line, const char* what, int pid,
                         std::int64_t tid, bool thread_scope,
                         const std::string& label) {
    json::Object args;
    args.field("name", label);
    json::Object ev;
    ev.field("name", what).field("ph", "M").field("pid", pid);
    if (thread_scope) ev.field("tid", tid);
    ev.field_raw("args", std::move(args).str());
    line += std::move(ev).str();
}

}  // namespace

std::int64_t trace_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - session().epoch)
        .count();
}

void trace_append(const char* name,
                  std::chrono::steady_clock::time_point begin,
                  std::int64_t dur_ns, std::int32_t rank) {
    // Re-check under the race with trace_stop(): a span that straddles the
    // stop sees enabled == false here and is simply dropped.
    if (!g_trace_enabled.load(std::memory_order_relaxed)) return;
    ThreadBuffer& buf = thread_buffer();
    if (buffer_full(buf)) {
        ++buf.dropped;
        return;
    }
    const std::int64_t begin_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            begin - session().epoch)
            .count();
    buf.events.push_back({name, begin_ns, dur_ns, rank});
}

void trace_append_edge(const EdgeEvent& edge) {
    if (!g_trace_enabled.load(std::memory_order_relaxed)) return;
    ThreadBuffer& buf = thread_buffer();
    if (buffer_full(buf)) {
        ++buf.dropped;
        return;
    }
    buf.edges.push_back(edge);
}

namespace {

// Parent per stopwatch key. Keys and parents are string literals, so the
// map holds views and a repeated declaration allocates nothing.
struct Parents {
    std::mutex mutex;
    std::map<std::string_view, const char*> by_key;
};

Parents& parents() {
    static Parents p;
    return p;
}

}  // namespace

void declare_parent(const char* key, const char* parent) {
    std::lock_guard<std::mutex> lock(parents().mutex);
    parents().by_key.try_emplace(key, parent);
}

}  // namespace detail

const char* phase_parent(const std::string& key) {
    detail::Parents& p = detail::parents();
    std::lock_guard<std::mutex> lock(p.mutex);
    const auto it = p.by_key.find(key);
    return it == p.by_key.end() ? nullptr : it->second;
}

void trace_start(const std::string& path) {
    auto& s = detail::session();
    std::lock_guard<std::mutex> lock(s.mutex);
    // Probe writability now so a bad path fails at startup, not after the
    // whole run has been traced.
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
        std::fclose(f);
    } else {
        throw std::runtime_error("trace: cannot open '" + path +
                                 "' for writing");
    }
    s.path = path;
    s.epoch = std::chrono::steady_clock::now();
    s.buffers.clear();
    s.next_tid = 0;
    s.last_dropped = 0;
    ++s.generation;
    detail::g_trace_enabled.store(true, std::memory_order_release);
}

std::size_t trace_stop() {
    auto& s = detail::session();
    if (!detail::g_trace_enabled.exchange(false)) return 0;
    std::lock_guard<std::mutex> lock(s.mutex);
    std::FILE* f = std::fopen(s.path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("trace: cannot write '" + s.path + "'");

    // Ranks referenced by spans or edges get named tracks under the
    // "virtual ranks" process so the viewer shows a merged per-rank
    // timeline; out-of-range ids are the producer's bug and surface in
    // obs_check, not here.
    std::set<std::int64_t> ranks;
    std::uint64_t dropped = 0;
    for (const auto& buf : s.buffers) {
        dropped += buf.dropped;
        for (const auto& e : buf.events)
            if (e.rank >= 0) ranks.insert(e.rank);
        for (const auto& e : buf.edges) {
            ranks.insert(e.src);
            ranks.insert(e.dst);
        }
    }
    s.last_dropped = dropped;

    std::size_t count = 0;
    bool first = true;
    std::string line;
    auto emit = [&](bool counted) {
        if (!first) std::fputs(",", f);
        first = false;
        std::fputs("\n", f);
        std::fputs(line.c_str(), f);
        line.clear();
        if (counted) ++count;
    };

    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":%llu,"
                 "\"traceEvents\":[",
                 static_cast<unsigned long long>(dropped));
    if (!ranks.empty()) {
        detail::write_metadata_json(line, "process_name", 2, 0, false,
                                    "virtual ranks");
        emit(false);
        for (std::int64_t r : ranks) {
            detail::write_metadata_json(line, "thread_name", 2, r, true,
                                        "rank " + std::to_string(r));
            emit(false);
        }
    }
    for (const auto& buf : s.buffers) {
        for (const auto& e : buf.events) {
            detail::write_span_json(line, e, buf.tid);
            emit(true);
        }
    }
    // Flow ids are assigned at flush so they are unique by construction
    // across every thread's edge buffer.
    std::uint64_t next_id = 1;
    for (const auto& buf : s.buffers) {
        for (const auto& e : buf.edges) {
            const std::uint64_t id = next_id++;
            detail::write_edge_json(line, e, id, true);
            emit(true);
            detail::write_edge_json(line, e, id, false);
            emit(true);
        }
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
    s.buffers.clear();
    return count;
}

std::size_t trace_event_count() {
    auto& s = detail::session();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::size_t n = 0;
    for (const auto& buf : s.buffers)
        n += buf.events.size() + 2 * buf.edges.size();
    return n;
}

std::uint64_t trace_dropped_events() {
    auto& s = detail::session();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::uint64_t n = s.last_dropped;
    for (const auto& buf : s.buffers) n += buf.dropped;
    return n;
}

std::size_t trace_buffer_cap() {
    auto& s = detail::session();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.buffer_cap;
}

void trace_set_buffer_cap(std::size_t cap) {
    auto& s = detail::session();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.buffer_cap = cap == 0 ? 1 : cap;
}

}  // namespace tp::obs
