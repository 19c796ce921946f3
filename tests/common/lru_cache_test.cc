/**
 * @file
 * Contract tests of the managed cache tier's primitive: capacity is
 * respected exactly, eviction is least-recently-used, lookups promote
 * recency, counters add up, concurrent misses on one key compute once,
 * and concurrent mixed workloads stay inside the bound (also exercised
 * under TSan in CI).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/lru_cache.h"

using gcd2::common::CacheStats;
using gcd2::common::ShardedLru;

TEST(LruCacheTest, CapacityIsNeverExceeded)
{
    ShardedLru<int, int> cache(/*capacity=*/8, /*shardCount=*/2);
    for (int i = 0; i < 1000; ++i) {
        cache.insert(i, i * 10);
        ASSERT_LE(cache.size(), cache.capacity());
    }
    EXPECT_GE(cache.stats().evictions, 1000 - cache.capacity());
}

TEST(LruCacheTest, SingleShardEvictsLeastRecentlyUsed)
{
    ShardedLru<int, int> cache(/*capacity=*/3, /*shardCount=*/1);
    cache.insert(1, 1);
    cache.insert(2, 2);
    cache.insert(3, 3);
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_TRUE(cache.lookup(1).has_value());
    cache.insert(4, 4);
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_TRUE(cache.lookup(3).has_value());
    EXPECT_TRUE(cache.lookup(4).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, InsertOfExistingKeyKeepsFirstValue)
{
    ShardedLru<int, int> cache(4, 1);
    EXPECT_EQ(cache.insert(7, 70), 70);
    // First-insert-wins: the earlier value is returned and retained.
    EXPECT_EQ(cache.insert(7, 71), 70);
    EXPECT_EQ(*cache.lookup(7), 70);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, LookupOrComputeRunsOncePerResidentKey)
{
    ShardedLru<int, std::string> cache(16, 4);
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return std::string("value");
    };
    EXPECT_EQ(cache.lookupOrCompute(5, compute), "value");
    EXPECT_EQ(cache.lookupOrCompute(5, compute), "value");
    EXPECT_EQ(computed, 1);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(LruCacheTest, ClearResetsEntriesAndCounters)
{
    ShardedLru<int, int> cache(4, 2);
    cache.insert(1, 1);
    (void)cache.lookup(1);
    (void)cache.lookup(2);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.evictions, 0u);
}

TEST(LruCacheTest, ConcurrentMixedWorkloadStaysBounded)
{
    ShardedLru<int, int> cache(64, 8);
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                const int key = (t * 131 + i) % 512;
                const int got =
                    cache.lookupOrCompute(key, [key] { return key * 3; });
                // A cached value is a pure function of the key.
                ASSERT_EQ(got, key * 3);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_LE(cache.size(), cache.capacity());
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses,
              static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(LruCacheTest, RacingMissesOnOneKeyComputeOnce)
{
    // Four threads miss one key together. The first computes; the
    // computation holds until every thread has called lookupOrCompute (or
    // a generous timeout passes), so the other three arrive while it is
    // in flight and must wait for its value instead of computing again.
    ShardedLru<int, int> cache(16, 4);
    constexpr int kThreads = 4;
    std::atomic<int> arrived{0};
    std::atomic<int> computed{0};
    const auto compute = [&] {
        ++computed;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < kThreads &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        // Let the last arrival reach the wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
    };
    std::vector<int> got(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ++arrived;
            got[static_cast<size_t>(t)] = cache.lookupOrCompute(7, compute);
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(computed.load(), 1);
    for (int value : got)
        EXPECT_EQ(value, 42);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(LruCacheTest, FailedComputeCachesNothing)
{
    ShardedLru<int, int> cache(4, 1);
    EXPECT_THROW(cache.lookupOrCompute(
                     1, []() -> int { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookupOrCompute(1, [] { return 5; }), 5);
    EXPECT_EQ(cache.stats().misses, 2u);
}
