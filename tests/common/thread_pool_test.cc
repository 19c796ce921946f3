/**
 * @file
 * ThreadPool contract tests: inline serial mode, parallelFor coverage,
 * exception propagation, reuse across waves of work, and parallelFor's
 * independence from busy workers and from concurrent callers.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace gcd2 {
namespace {

TEST(ThreadPoolTest, SizeOneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    int value = 0;
    pool.submit([&] { value = 42; });
    // Inline mode executes inside submit(); no wait needed.
    EXPECT_EQ(value, 42);
    pool.wait();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        constexpr int64_t n = 1000;
        std::vector<std::atomic<int>> touched(n);
        pool.parallelFor(n, [&](int64_t i) { touched[i].fetch_add(1); });
        for (int64_t i = 0; i < n; ++i)
            EXPECT_EQ(touched[i].load(), 1) << "index " << i << " with "
                                            << threads << " threads";
    }
}

TEST(ThreadPoolTest, ParallelForDisjointWritesAreSafe)
{
    ThreadPool pool(4);
    constexpr int64_t n = 4096;
    std::vector<int64_t> out(n, 0);
    pool.parallelFor(n, [&](int64_t i) { out[i] = i * i; });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(pool.parallelFor(100,
                                      [&](int64_t i) {
                                          if (i == 37)
                                              throw std::runtime_error(
                                                  "boom");
                                      }),
                     std::runtime_error)
            << "with " << threads << " threads";
    }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int64_t> sum{0};
    for (int wave = 0; wave < 5; ++wave)
        pool.parallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, ParallelForFinishesWhileEveryWorkerIsBusy)
{
    // The caller drains the loop itself; its helper tasks queue behind
    // the blocked workers and find nothing left when they start.
    ThreadPool pool(2);
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    std::atomic<int> blocked{0};
    for (int w = 0; w < pool.size(); ++w)
        pool.submit([&blocked, released] {
            blocked.fetch_add(1);
            released.wait();
        });
    while (blocked.load() < pool.size())
        std::this_thread::yield();

    std::vector<int> touched(64, 0);
    auto loop = std::async(std::launch::async, [&] {
        pool.parallelFor(static_cast<int64_t>(touched.size()),
                         [&](int64_t i) { ++touched[i]; });
    });
    const bool finished =
        loop.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    release.set_value();
    loop.get();
    pool.wait();
    EXPECT_TRUE(finished) << "parallelFor waited for busy workers";
    for (int count : touched)
        EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForsRethrowOnlyTheirOwnErrors)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        auto failing = std::async(std::launch::async, [&] {
            pool.parallelFor(8, [](int64_t i) {
                if (i == 3)
                    throw std::runtime_error("boom");
            });
        });
        auto clean = std::async(std::launch::async, [&] {
            pool.parallelFor(8, [](int64_t) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            });
        });
        EXPECT_THROW(failing.get(), std::runtime_error) << "round " << round;
        EXPECT_NO_THROW(clean.get()) << "round " << round;
    }
}

TEST(ThreadPoolTest, HardwareDefaultIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
    ThreadPool pool(0); // 0 = hardware concurrency
    EXPECT_GE(pool.size(), 1);
}

} // namespace
} // namespace gcd2
