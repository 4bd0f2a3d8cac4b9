#include "io/async_writer.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace tp::io {

AsyncWriter::AsyncWriter() : worker_([this] { worker_loop(); }) {}

AsyncWriter::~AsyncWriter() {
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_one();
    worker_.join();
}

std::uint64_t AsyncWriter::submit(std::function<void()> job) {
    std::uint64_t ticket = 0;
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
        ticket = ++submitted_;
    }
    work_cv_.notify_one();
    return ticket;
}

void AsyncWriter::wait(std::uint64_t ticket) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return completed_ >= ticket; });
    rethrow_pending(lock);
}

void AsyncWriter::wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return completed_ >= submitted_; });
    rethrow_pending(lock);
}

std::uint64_t AsyncWriter::submitted() const {
    std::unique_lock<std::mutex> lock(mu_);
    return submitted_;
}

std::uint64_t AsyncWriter::completed() const {
    std::unique_lock<std::mutex> lock(mu_);
    return completed_;
}

double AsyncWriter::busy_seconds() const {
    std::unique_lock<std::mutex> lock(mu_);
    return busy_seconds_;
}

void AsyncWriter::rethrow_pending(std::unique_lock<std::mutex>& lock) {
    if (!error_) return;
    std::exception_ptr e = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
}

void AsyncWriter::worker_loop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop_ set and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        obs::Phase phase("io.async_job", obs::kHostTrack);
        std::exception_ptr err;
        try {
            job();
        } catch (...) {
            err = std::current_exception();
        }
        const double seconds = phase.stop();
        {
            std::unique_lock<std::mutex> lock(mu_);
            busy_seconds_ += seconds;
            ++completed_;
            if (err && !error_) error_ = err;
        }
        done_cv_.notify_all();
    }
}

}  // namespace tp::io
