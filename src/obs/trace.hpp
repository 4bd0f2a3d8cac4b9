#pragma once
// Flight-recorder trace layer: kernel/phase begin-end spans collected into
// lock-free per-thread buffers and flushed as Chrome-trace JSON
// (chrome://tracing / https://ui.perfetto.dev), and obs::Phase, the one
// clock each solver phase is timed with.
//
// Design constraints (DESIGN.md §10, §15):
//   * zero cost when off — a span-only instrumentation point is one
//     relaxed atomic load; no clock read, no allocation, no branch into
//     cold code;
//   * no synchronization on the hot path when on — each thread appends to
//     its own buffer, registered once under a mutex at first use;
//   * span names are static strings (string literals at the call sites),
//     so events store a pointer, never copy;
//   * buffers are bounded — past the per-thread cap events are counted as
//     dropped, never buffered, so a long traced run cannot grow without
//     limit (trace_dropped_events() reports the loss).
//
// Two kinds of record:
//   * spans — [begin, begin+dur) scopes. A span may carry a rank id;
//     rank-tagged spans render on a per-rank track (pid 2, tid = rank) so
//     Perfetto shows one merged timeline per virtual rank next to the
//     host-thread tracks (pid 1).
//   * message edges — one halo message each (src/dst rank, tag, bytes,
//     post/deliver timestamps), flushed as a Chrome-trace flow-event pair
//     (ph "s" on the source rank track at post time, ph "f" on the
//     destination track at deliver time) so the viewer draws an arrow
//     from the posting span to the completing span.
//
// Usage at an instrumentation point:
//
//   void Solver::step() {
//       TP_OBS_SPAN("clamr.step");                      // span only
//       obs::Phase phase("clamr.cfl", timers_, "cfl");  // + stopwatch
//       ...
//       ledger_.record("cfl", phase.stop(), ...);       // same seconds
//   }
//
// Lifecycle (driven by the CLI layer, obs/obs.hpp):
//
//   obs::trace_start("run.trace.json");   // enables collection
//   ... run ...
//   obs::trace_stop();                    // writes the JSON, disables
//
// trace_stop() must be called from outside any traced parallel region
// (worker threads must be quiescent at the fork-join boundary, which every
// caller in this repo is).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/timing.hpp"

namespace tp::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;

struct TraceEvent {
    const char* name;       // static string
    std::int64_t begin_ns;  // since trace_start
    std::int64_t dur_ns;
    std::int32_t rank;  // >= 0: virtual-rank track; -1: host thread
};

/// One delivered halo message: recorded by the comm layer at delivery
/// time (both endpoints known), flushed as an s/f flow-event pair.
struct EdgeEvent {
    std::int32_t src;
    std::int32_t dst;
    std::int32_t tag;
    std::uint64_t bytes;
    std::int64_t post_ns;     // when the message was posted/sent
    std::int64_t deliver_ns;  // when the receiver completed it
};

/// Append one completed span, begun at `begin`, to the calling thread's
/// buffer.
void trace_append(const char* name,
                  std::chrono::steady_clock::time_point begin,
                  std::int64_t dur_ns, std::int32_t rank);

/// Append one delivered message edge to the calling thread's buffer.
void trace_append_edge(const EdgeEvent& edge);

[[nodiscard]] std::int64_t trace_now_ns();

/// Record that stopwatch key `key` times a sub-phase of `parent` (both
/// string literals). Idempotent; called by Phase.
void declare_parent(const char* key, const char* parent);
}  // namespace detail

/// The parent phase declared for stopwatch key `key` by a Phase, or
/// nullptr when none was.
[[nodiscard]] const char* phase_parent(const std::string& key);

/// True while a trace session is collecting. One relaxed load — this is
/// the entire cost of an instrumentation point when tracing is off.
[[nodiscard]] inline bool trace_enabled() {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Begin collecting spans; the JSON goes to `path` at trace_stop().
/// Throws std::runtime_error if the file cannot be created.
void trace_start(const std::string& path);

/// Flush every thread's buffer to the trace file as Chrome-trace JSON and
/// stop collecting. No-op when no session is active. Returns the number
/// of trace events written: one per span plus two per message edge
/// (metadata records are not counted).
std::size_t trace_stop();

/// Number of events currently buffered across all threads (diagnostics).
/// Counts spans and edges, mirroring trace_stop()'s span+2*edge total.
[[nodiscard]] std::size_t trace_event_count();

/// Events rejected because a thread's buffer hit the cap. Accumulates
/// during a session and stays readable after trace_stop() (sticky until
/// the next trace_start), so drivers can surface the loss in the metrics
/// stream after the trace file is written.
[[nodiscard]] std::uint64_t trace_dropped_events();

/// Per-thread buffer bound (spans + edges per thread). Takes effect at
/// the next instrumentation point; already-buffered events are kept. The
/// default (1<<20 per thread) bounds a runaway traced run at
/// ~32 MiB/thread.
[[nodiscard]] std::size_t trace_buffer_cap();
void trace_set_buffer_cap(std::size_t cap);

/// Record one delivered message edge (src -> dst rank, `tag`, `bytes`,
/// posted at `post_ns`, delivered at `deliver_ns`; timestamps from
/// detail::trace_now_ns()). No-op when tracing is off.
inline void trace_edge(std::int32_t src, std::int32_t dst, std::int32_t tag,
                       std::uint64_t bytes, std::int64_t post_ns,
                       std::int64_t deliver_ns) {
    if (!trace_enabled()) return;
    detail::trace_append_edge({src, dst, tag, bytes, post_ns, deliver_ns});
}

/// Track id of a timed phase that stays on its host thread's track.
inline constexpr int kHostTrack = -1;

/// RAII phase timer (DESIGN.md §10): a timed phase reads steady_clock at
/// construction and at stop(), and that one duration is the trace span
/// (when tracing is on), the stopwatch entry (when the phase has a key)
/// and stop()'s return value, which callers pass to the work ledger or a
/// per-rank sum. The destructor stops a running phase. `span`, `key` and
/// `parent` must be string literals (the recorder stores the pointers).
class Phase {
public:
    /// Span-only phase (TP_OBS_SPAN): with tracing off it reads no clock
    /// and stop() returns 0.
    explicit Phase(const char* span)
        : span_(trace_enabled() ? span : nullptr),
          running_(span_ != nullptr) {
        if (running_) start_ = clock::now();
    }

    /// Timed phase without a stopwatch entry (per-rank sums on OpenMP
    /// workers, I/O counters), filed on virtual-rank track `rank` or, for
    /// kHostTrack, on the thread's own.
    Phase(const char* span, int rank)
        : span_(trace_enabled() ? span : nullptr),
          rank_(static_cast<std::int32_t>(rank)),
          running_(true),
          start_(clock::now()) {}

    /// Timed phase that adds its duration to `timers` under `key`; only
    /// the registry's owning thread may run it. `parent` is the key of
    /// the enclosing phase: per-step records write `key` as
    /// `<parent>_<key>` unless it has that prefix (timer_delta_json), so
    /// the tp_report rollup nests it under the parent.
    Phase(const char* span, util::StopwatchRegistry& timers, const char* key,
          const char* parent = nullptr)
        : span_(trace_enabled() ? span : nullptr),
          timers_(&timers),
          key_(key),
          running_(true) {
        if (parent != nullptr) detail::declare_parent(key, parent);
        start_ = clock::now();
    }

    ~Phase() { stop(); }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

    /// End the phase and return its seconds (0 if it was not timed or is
    /// already stopped).
    double stop() {
        if (!running_) return 0.0;
        running_ = false;
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - start_)
                .count();
        if (span_ != nullptr) detail::trace_append(span_, start_, ns, rank_);
        const double seconds = static_cast<double>(ns) / 1e9;
        if (timers_ != nullptr) timers_->add(key_, seconds);
        return seconds;
    }

private:
    using clock = std::chrono::steady_clock;

    const char* span_;  // nullptr: tracing was off at construction
    util::StopwatchRegistry* timers_ = nullptr;
    const char* key_ = nullptr;
    std::int32_t rank_ = kHostTrack;
    bool running_;
    clock::time_point start_{};
};

}  // namespace tp::obs

#define TP_OBS_CONCAT_IMPL(a, b) a##b
#define TP_OBS_CONCAT(a, b) TP_OBS_CONCAT_IMPL(a, b)
/// Trace the enclosing scope as one span-only Phase. `name` must be a
/// string literal (the recorder stores the pointer). Zero-cost when
/// tracing is off.
#define TP_OBS_SPAN(name) \
    ::tp::obs::Phase TP_OBS_CONCAT(tp_obs_span_, __LINE__)(name)
