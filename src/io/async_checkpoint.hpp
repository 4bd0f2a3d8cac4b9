#pragma once
// Double-buffered asynchronous checkpointing over AsyncWriter.
//
// The solver thread's only cost is the state snapshot (a memcpy into one
// of two reusable slots); serialization, compression, and file I/O run on
// the writer thread and overlap subsequent solver steps. The solver
// thread stalls only when it checkpoints again while BOTH slots are still
// in flight — i.e. when it is producing checkpoints faster than the disk
// absorbs them — and that stall is measured (stall_seconds) and reported
// in the {"type":"checkpoint"} metrics record so span timelines can prove
// the overlap.
//
// Works for any solver exposing the snapshot trio:
//   using Snapshot = ...;                       // default-constructible
//   void snapshot_checkpoint(Snapshot&) const;  // cheap state copy
//   static CheckpointWriteInfo write_snapshot(const Snapshot&,
//       std::ostream&, const CheckpointOptions&);  // thread-safe
// Snapshot must expose `time`/`step` fields for the metrics record.
// Byte-identity with the synchronous path is by construction: the solver's
// own write_checkpoint is snapshot_checkpoint + write_snapshot.

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/async_writer.hpp"
#include "io/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tp::io {

template <class Solver>
class AsyncCheckpointer {
public:
    explicit AsyncCheckpointer(CheckpointOptions opt = {})
        : opt_(opt) {}

    ~AsyncCheckpointer() = default;  // writer_ drains remaining slots

    /// Snapshot `solver` into a free slot and schedule the write of
    /// `path`. Returns once the snapshot copy is done.
    void checkpoint(const Solver& solver, std::string path) {
        Slot& slot = slots_[next_];
        next_ = 1 - next_;
        if (slot.busy) {
            obs::Phase stall("io.ckpt_stall", obs::kHostTrack);
            writer_.wait(slot.ticket);
            stall_seconds_ += stall.stop();
            slot.busy = false;
        }
        obs::Phase snap("io.ckpt_snapshot", obs::kHostTrack);
        solver.snapshot_checkpoint(slot.snap);
        const double snapshot_s = snap.stop();
        const double stall_s = stall_seconds_;
        slot.ticket = writer_.submit([&slot, path = std::move(path),
                                      opt = opt_, snapshot_s, stall_s] {
            obs::Phase write("io.ckpt_write", obs::kHostTrack);
            std::ofstream os(path, std::ios::binary);
            if (!os)
                throw std::runtime_error("checkpoint: cannot open " + path);
            const CheckpointWriteInfo info =
                Solver::write_snapshot(slot.snap, os, opt);
            os.flush();
            if (!os)
                throw std::runtime_error("checkpoint: write failed");
            if (obs::metrics().is_open())
                obs::metrics().write_line(checkpoint_record(
                    path, slot.snap.step, info, snapshot_s, write.stop(),
                    stall_s, true));
        });
        slot.busy = true;
    }

    /// Wait for every scheduled write; rethrows the first writer error.
    void finish() {
        writer_.wait_all();
        slots_[0].busy = slots_[1].busy = false;
    }

    /// Solver-thread seconds spent waiting for a free slot (0 when the
    /// writer keeps up — the zero-stall contract CI asserts on).
    [[nodiscard]] double stall_seconds() const { return stall_seconds_; }

    [[nodiscard]] const AsyncWriter& writer() const { return writer_; }

private:
    struct Slot {
        typename Solver::Snapshot snap;
        std::uint64_t ticket = 0;
        bool busy = false;
    };

    CheckpointOptions opt_;
    Slot slots_[2];
    int next_ = 0;
    double stall_seconds_ = 0.0;
    // Declared last: destroyed first, draining in-flight jobs while the
    // slots they reference are still alive.
    AsyncWriter writer_;
};

}  // namespace tp::io
