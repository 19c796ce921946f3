#include "common/thread_pool.h"

#include <atomic>

namespace gcd2 {

int
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int numThreads)
{
    size_ = numThreads <= 0 ? hardwareThreads() : numThreads;
    if (size_ == 1)
        return; // inline mode: no workers, submit() executes directly
    workers_.reserve(static_cast<size_t>(size_));
    for (int i = 0; i < size_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::recordError(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!firstError_)
        firstError_ = std::move(error);
}

void
ThreadPool::runTask(const std::function<void()> &task)
{
    try {
        task();
    } catch (...) {
        recordError(std::current_exception());
    }
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        runTask(task);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
            if (pending_ == 0)
                allDone_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        runTask(task);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++pending_;
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        allDone_.wait(lock, [this] { return pending_ == 0; });
        error = std::move(firstError_);
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::parallelFor(int64_t n, const std::function<void(int64_t)> &body)
{
    if (n <= 0)
        return;
    if (workers_.empty() || n == 1) {
        // Inline mode matches the historical serial loop exactly.
        std::exception_ptr error;
        for (int64_t i = 0; i < n && !error; ++i) {
            try {
                body(i);
            } catch (...) {
                error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    // The caller drains iterations alongside up to size() - 1 helper
    // tasks, all claiming them through one shared counter, and then
    // waits for the claimed iterations only. A helper that starts after
    // the work ran out finds the counter past n and returns without
    // touching body, so the loop never waits for a thread the scheduler
    // has not run yet: on a busy host it degrades to the caller running
    // everything, not to the caller sleeping until a helper gets a slice.
    struct Loop
    {
        std::atomic<int64_t> next{0};
        std::mutex mutex;
        std::condition_variable finished;
        int64_t done = 0;         ///< guarded by mutex
        std::exception_ptr error; ///< guarded by mutex
    };
    auto loop = std::make_shared<Loop>();
    const auto drain = [loop, n, &body] {
        for (int64_t i = loop->next.fetch_add(1); i < n;
             i = loop->next.fetch_add(1)) {
            std::exception_ptr error;
            try {
                body(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(loop->mutex);
            if (error && !loop->error)
                loop->error = std::move(error);
            if (++loop->done == n)
                loop->finished.notify_all();
        }
    };
    const int64_t helpers =
        std::min<int64_t>(static_cast<int64_t>(size_), n) - 1;
    for (int64_t t = 0; t < helpers; ++t)
        submit(drain);
    drain();
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(loop->mutex);
        loop->finished.wait(lock, [&] { return loop->done == n; });
        error = std::move(loop->error);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace gcd2
