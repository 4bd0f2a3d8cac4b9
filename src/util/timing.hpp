#pragma once
// Wall-clock and CPU timing utilities.
//
// The paper reports wall-clock runtimes around whole simulations and around
// the hot `finite_diff` kernel; `WallTimer` and `StopwatchRegistry` provide
// exactly those two granularities.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tp::util {

/// Simple monotonic wall-clock timer. `elapsed_seconds()` may be called any
/// number of times; `restart()` resets the origin.
class WallTimer {
public:
    WallTimer() : start_(clock::now()) {}

    void restart() { start_ = clock::now(); }

    [[nodiscard]] double elapsed_seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/// Accumulated timing for one named code region.
struct StopwatchEntry {
    double total_seconds = 0.0;
    std::uint64_t calls = 0;
};

/// Registry of named accumulating stopwatches. Not thread-safe by design:
/// each solver instance owns its own registry (Core Guidelines CP.2 — avoid
/// shared mutable state between threads). Parallel kernels time their whole
/// fork-join region once from the calling thread and add() after the join.
class StopwatchRegistry {
public:
    /// Add `seconds` to the named region.
    void add(const std::string& name, double seconds) {
        auto& e = entries_[name];
        e.total_seconds += seconds;
        ++e.calls;
    }

    [[nodiscard]] double total(const std::string& name) const {
        auto it = entries_.find(name);
        return it == entries_.end() ? 0.0 : it->second.total_seconds;
    }

    [[nodiscard]] std::uint64_t calls(const std::string& name) const {
        auto it = entries_.find(name);
        return it == entries_.end() ? 0 : it->second.calls;
    }

    [[nodiscard]] const std::map<std::string, StopwatchEntry>& entries() const {
        return entries_;
    }

    void clear() { entries_.clear(); }

private:
    std::map<std::string, StopwatchEntry> entries_;
};

}  // namespace tp::util
