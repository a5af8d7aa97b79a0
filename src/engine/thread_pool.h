// Persistent shared worker pool behind every parallel analysis.
//
// Workers are created once (lazily, on first use of the shared pool) and
// parked on a condition variable between jobs, replacing the
// spawn-and-join std::thread bands the analyses used to create per call.
// parallel_for is a blocking fork-join: the calling thread always
// participates in the index claim loop, and while waiting for its
// helpers it drains other queued tasks, so nested calls from inside a
// worker make progress even when every worker is blocked in an outer
// join (no deadlock; inner jobs just borrow the waiting threads).
#ifndef ACSTAB_ENGINE_THREAD_POOL_H
#define ACSTAB_ENGINE_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace acstab::engine {

class thread_pool {
public:
    /// Pool with a fixed worker count (0 = no workers; everything runs on
    /// the calling thread).
    explicit thread_pool(std::size_t workers);
    ~thread_pool();
    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

    /// Run fn(0) ... fn(count - 1), with at most max_workers indices in
    /// flight at once. Blocks until every index has completed. Indices are
    /// claimed dynamically; the caller participates. The first exception
    /// thrown by any fn is rethrown here after all indices finish or are
    /// abandoned.
    void parallel_for(std::size_t count, std::size_t max_workers,
                      const std::function<void(std::size_t)>& fn);

    /// Process-wide pool sized to the hardware concurrency, created on
    /// first use. All analyses share it.
    [[nodiscard]] static thread_pool& shared();

    /// Threads usable for compute on this machine (>= 1).
    [[nodiscard]] static std::size_t hardware_threads() noexcept;

private:
    void worker_loop();
    /// Pop and run one queued task on the calling thread; false when the
    /// queue is empty.
    bool run_one_queued_task();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_THREAD_POOL_H
