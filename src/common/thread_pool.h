/**
 * @file
 * Small fixed-size worker pool for compile-time parallelism.
 *
 * The compiler's parallel regions (per-node plan costing, independent
 * GCD2 partition solves) are coarse-grained and deterministic: tasks
 * write to disjoint state and the pool only adds *scheduling* freedom,
 * never *result* freedom. A pool of size 1 runs every task inline on the
 * submitting thread, which is bit-identical to the historical serial
 * code path (and is what `CompileOptions::numThreads = 1` selects).
 *
 * Exceptions thrown by tasks are captured; the first one is rethrown
 * from wait() / parallelFor() on the submitting thread so GCD2_PANIC /
 * GCD2_FATAL diagnostics keep propagating as they do serially.
 */
#ifndef GCD2_COMMON_THREAD_POOL_H
#define GCD2_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gcd2 {

class ThreadPool
{
  public:
    /**
     * @param numThreads worker count; <= 0 picks the hardware
     *        concurrency. 1 means no workers: tasks run inline.
     */
    explicit ThreadPool(int numThreads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Effective parallelism (>= 1). */
    int size() const { return size_; }

    /** Enqueue a task (runs inline immediately when size() == 1). */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished; rethrows the first
     * task exception, if any.
     */
    void wait();

    /**
     * Run body(0..n-1) across the pool and wait. The calling thread
     * runs iterations itself, next to at most size() - 1 queued helper
     * tasks; iterations are handed out through an atomic counter, so
     * any iteration may run on any thread -- bodies must only touch
     * per-iteration state. It waits for its own iterations only, never
     * for a helper that found no work left or for other tasks on the
     * pool, and rethrows the first exception one of its iterations
     * threw.
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)> &body);

    /** Hardware concurrency with a sane floor of 1. */
    static int hardwareThreads();

  private:
    void workerLoop();
    void recordError(std::exception_ptr error);
    void runTask(const std::function<void()> &task);

    int size_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    int64_t pending_ = 0; ///< queued + currently running tasks
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

} // namespace gcd2

#endif // GCD2_COMMON_THREAD_POOL_H
