#include "engine/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>

namespace acstab::engine {

thread_pool::thread_pool(std::size_t workers)
{
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void thread_pool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void thread_pool::parallel_for(std::size_t count, std::size_t max_workers,
                               const std::function<void(std::size_t)>& fn)
{
    if (count == 0)
        return;
    if (max_workers <= 1 || count == 1 || workers_.empty()) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Shared claim-loop state for this job, on the caller's stack.
    struct job_state {
        std::atomic<std::size_t> next{0};
        std::size_t count = 0;
        const std::function<void(std::size_t)>* fn = nullptr;
        std::atomic<bool> failed{false};
        std::mutex error_mutex;
        std::exception_ptr error;
        std::mutex done_mutex;
        std::condition_variable done_cv;
        std::size_t helpers_active = 0;
    };
    job_state job;
    job.count = count;
    job.fn = &fn;

    const auto claim_loop = [&job] {
        for (;;) {
            const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.count || job.failed.load(std::memory_order_relaxed))
                return;
            try {
                (*job.fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.error_mutex);
                if (!job.error)
                    job.error = std::current_exception();
                job.failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const std::size_t helpers
        = std::min({max_workers - 1, workers_.size(), count - 1});
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.helpers_active = helpers;
        for (std::size_t h = 0; h < helpers; ++h) {
            queue_.emplace_back([&job, claim_loop] {
                claim_loop();
                // Notify under the lock: `job` lives on the caller's
                // stack and is destroyed as soon as the caller observes
                // helpers_active == 0.
                std::lock_guard<std::mutex> done_lock(job.done_mutex);
                --job.helpers_active;
                job.done_cv.notify_one();
            });
        }
    }
    wake_.notify_all();

    claim_loop();

    // Wait for the helpers, draining queued pool tasks meanwhile: when
    // every worker is itself blocked inside a nested parallel_for, the
    // queued helper tasks would otherwise never be popped and all the
    // waiters would deadlock. Running other jobs' tasks here is exactly
    // what an idle worker would do.
    for (;;) {
        {
            std::unique_lock<std::mutex> done_lock(job.done_mutex);
            if (job.helpers_active == 0)
                break;
        }
        if (!run_one_queued_task()) {
            std::unique_lock<std::mutex> done_lock(job.done_mutex);
            if (job.done_cv.wait_for(done_lock, std::chrono::milliseconds(1),
                                     [&job] { return job.helpers_active == 0; }))
                break;
        }
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

bool thread_pool::run_one_queued_task()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task();
    return true;
}

thread_pool& thread_pool::shared()
{
    static thread_pool pool(hardware_threads());
    return pool;
}

std::size_t thread_pool::hardware_threads() noexcept
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace acstab::engine
