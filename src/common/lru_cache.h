/**
 * @file
 * Generic sharded, capacity-bounded LRU cache -- the shared primitive of
 * the managed cache tier (DESIGN.md section 14).
 *
 * Before this layer existed the process-wide caches (select::CostCache,
 * vliw::PackCache, dsp::DecodeCache) each hand-rolled their own table:
 * two grew without bound and one evicted by clearing itself wholesale at
 * an entry budget, so a long-lived compile service would either leak or
 * periodically throw away its entire working set. ShardedLru replaces
 * all three bodies with one implementation:
 *
 *  - Sharded: the key hash picks a shard; each shard is an independent
 *    (mutex, unordered_map, intrusive recency list) triple, so concurrent
 *    lookups from the compile worker pool scale without a global lock.
 *  - Bounded: each shard holds at most ceil(capacity / shards) entries
 *    and evicts its least-recently-used entry on overflow, so the whole
 *    cache never exceeds capacity() entries -- asserted by the cache
 *    tests and checked at the end of the pack/sim throughput benches.
 *  - Counted: hits, misses, and per-entry evictions are relaxed atomics
 *    surfaced through Stats; the pipeline report and the compile
 *    service's ServiceReport both read them.
 *
 * lookupOrCompute() runs the miss computation *outside* the shard lock
 * and is single-flight: a caller that misses on a key another thread is
 * already computing waits for that value instead of computing it again,
 * so each resident key is computed once however many threads race on it
 * (and the miss count, which callers report as work done, does not
 * depend on thread timing). Values are returned by value (shared_ptr or
 * small structs), never by reference into the map, so eviction can never
 * invalidate a caller.
 */
#ifndef GCD2_COMMON_LRU_CACHE_H
#define GCD2_COMMON_LRU_CACHE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gcd2::common {

/** Hit/miss/evict counters of one cache (monotonic since clear()). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0; ///< entries displaced by the capacity bound
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLru
{
  public:
    /**
     * @param capacity total entry bound (floored at one per shard)
     * @param shardCount concurrency width; rounded up so every shard
     *        holds an equal share of the capacity
     */
    explicit ShardedLru(size_t capacity = 4096, size_t shardCount = 8)
        : shards_(shardCount == 0 ? 1 : shardCount)
    {
        const size_t count = shards_.size();
        perShard_ = (capacity + count - 1) / count;
        if (perShard_ == 0)
            perShard_ = 1;
    }

    ShardedLru(const ShardedLru &) = delete;
    ShardedLru &operator=(const ShardedLru &) = delete;

    /** Enforced total entry bound (>= the requested capacity). */
    size_t capacity() const { return perShard_ * shards_.size(); }

    /** Cached value for @p key, promoting it to most-recently-used. */
    std::optional<Value>
    lookup(const Key &key)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        std::optional<Value> hit = findLocked(shard, key);
        if (hit)
            hits_.fetch_add(1, std::memory_order_relaxed);
        else
            misses_.fetch_add(1, std::memory_order_relaxed);
        return hit;
    }

    /**
     * Insert (or refresh) @p key, evicting the shard's least-recently-
     * used entry if it is full. Returns the value now cached under the
     * key: when another thread inserted first, that earlier value wins
     * and is returned instead of @p value (first-insert-wins keeps
     * results independent of thread timing).
     */
    Value
    insert(const Key &key, Value value)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        return insertLocked(shard, key, std::move(value));
    }

    /**
     * lookup() falling back to @p compute on a miss. The computation
     * runs outside the shard lock, so misses on distinct keys proceed in
     * parallel. Misses on one key are single-flight: the first caller
     * computes (one miss), and every caller that arrives before its
     * value is published waits for that value and counts as a hit. An
     * exception from @p compute reaches the computing caller and every
     * waiter; nothing is cached and the next caller computes afresh.
     * @p compute must not look up @p key itself (it would wait on its
     * own flight).
     */
    Value
    lookupOrCompute(const Key &key,
                    const std::function<Value()> &compute)
    {
        Shard &shard = shardFor(key);
        std::shared_ptr<Flight> flight;
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            if (std::optional<Value> hit = findLocked(shard, key)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return *std::move(hit);
            }
            if (const auto it = shard.inFlight.find(key);
                it != shard.inFlight.end()) {
                const std::shared_ptr<Flight> other = it->second;
                hits_.fetch_add(1, std::memory_order_relaxed);
                shard.landed.wait(lock, [&] { return other->done; });
                if (other->error)
                    std::rethrow_exception(other->error);
                return *other->value;
            }
            flight = std::make_shared<Flight>();
            shard.inFlight.emplace(key, flight);
            misses_.fetch_add(1, std::memory_order_relaxed);
        }

        std::optional<Value> value;
        std::exception_ptr error;
        try {
            value.emplace(compute());
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            if (error)
                flight->error = error;
            else
                flight->value = insertLocked(shard, key, *std::move(value));
            flight->done = true;
            shard.inFlight.erase(key);
        }
        shard.landed.notify_all();
        if (error)
            std::rethrow_exception(error);
        return *flight->value;
    }

    CacheStats
    stats() const
    {
        CacheStats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.evictions = evictions_.load(std::memory_order_relaxed);
        return s;
    }

    /** Current entry count (exact; takes every shard lock briefly). */
    size_t
    size() const
    {
        size_t n = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            n += shard.order.size();
        }
        return n;
    }

    /** Drop every entry and reset the counters. */
    void
    clear()
    {
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.index.clear();
            shard.order.clear();
        }
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
        evictions_.store(0, std::memory_order_relaxed);
    }

  private:
    /** One in-progress lookupOrCompute miss (guarded by the shard lock). */
    struct Flight
    {
        bool done = false;
        std::optional<Value> value;
        std::exception_ptr error;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        /** Front = most recently used. */
        std::list<std::pair<Key, Value>> order;
        std::unordered_map<Key,
                           typename std::list<std::pair<Key, Value>>::
                               iterator,
                           Hash>
            index;
        /** Keys being computed, and the signal their waiters sleep on. */
        std::unordered_map<Key, std::shared_ptr<Flight>, Hash> inFlight;
        std::condition_variable landed;
    };

    /** The value cached under @p key, promoted to most-recently-used;
     *  the caller holds @p shard's lock. */
    std::optional<Value>
    findLocked(Shard &shard, const Key &key)
    {
        const auto it = shard.index.find(key);
        if (it == shard.index.end())
            return std::nullopt;
        shard.order.splice(shard.order.begin(), shard.order, it->second);
        return it->second->second;
    }

    /** insert() body; the caller holds @p shard's lock. */
    Value
    insertLocked(Shard &shard, const Key &key, Value value)
    {
        if (std::optional<Value> existing = findLocked(shard, key))
            return *std::move(existing);
        if (shard.order.size() >= perShard_) {
            shard.index.erase(shard.order.back().first);
            shard.order.pop_back();
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.order.emplace_front(key, std::move(value));
        shard.index.emplace(key, shard.order.begin());
        return shard.order.front().second;
    }

    Shard &
    shardFor(const Key &key)
    {
        return shards_[Hash{}(key) % shards_.size()];
    }

    std::vector<Shard> shards_;
    size_t perShard_ = 1;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace gcd2::common

#endif // GCD2_COMMON_LRU_CACHE_H
