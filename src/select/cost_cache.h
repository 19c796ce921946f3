/**
 * @file
 * Thread-safe memo table for simulated kernel costs.
 *
 * The cost model prices operators by simulating one canonical kernel
 * (a matmul tile, a depthwise row pass, an elementwise run) and scaling.
 * Those simulations dominate compile time, so their results are memoized
 * under a typed key -- every field that can change the simulated cycles
 * (kernel kind, scheme/op, unroll choice, reduction depth / run length,
 * and the full VLIW packing configuration) is part of the key, which
 * replaces the descriptor strings the cache used to be keyed on.
 *
 * The table is the managed cache tier's sharded bounded LRU
 * (common::ShardedLru, DESIGN.md section 14): each shard sits behind its
 * own mutex, so concurrent plan costing from the compile-time worker
 * pool scales without a global lock, and capacity overflow evicts the
 * least-recently-used entry instead of growing without bound. Values
 * are returned *by value*; the old reference-returning API could hand
 * out a reference that a concurrent rehash of the underlying map would
 * invalidate.
 *
 * Because an entry's value is a pure function of its key, the cache is
 * safe to share between CostModel instances (and across compiles). A
 * miss is single-flight: if two threads miss the same key, one simulates
 * and the other waits for its value, so each key is simulated once and
 * neither results nor miss counts depend on thread timing.
 */
#ifndef GCD2_SELECT_COST_CACHE_H
#define GCD2_SELECT_COST_CACHE_H

#include <cstdint>
#include <functional>

#include "common/lru_cache.h"
#include "select/exec_stats.h"
#include "vliw/packer.h"

namespace gcd2::select {

/** What canonical simulation a cache entry holds. */
enum class CostKind : uint8_t
{
    MatMulTile,   ///< one row-panel x column-tile, full reduction depth
    DepthwiseRow, ///< one depthwise channel of one or two row tiles
    Elementwise,  ///< one canonical elementwise run
};

/** Typed cache key: everything that determines the simulated stats. */
struct CostKey
{
    CostKind kind = CostKind::MatMulTile;
    /** MatMulScheme / EwOp ordinal, or the depthwise stride. */
    int32_t tag = 0;
    /** Unroll choice (matmul tiles); unused otherwise. */
    int32_t unrollOut = 0;
    int32_t unrollCols = 0;
    int32_t unrollK = 0;
    /** Reduction depth (matmul), simulated length (elementwise) or
     *  output rows (depthwise). */
    int64_t extent = 0;
    /** Full packing configuration (policy and Eq. 4 tunables). */
    vliw::PackPolicy policy = vliw::PackPolicy::Sda;
    double packW = 0.0;
    double packPenaltyScale = 0.0;
    /** Filter rows and columns (depthwise); unused otherwise. */
    int32_t filterH = 0;
    int32_t filterW = 0;

    friend bool operator==(const CostKey &, const CostKey &) = default;
};

/** FNV-style field-combining hash for CostKey. */
struct CostKeyHash
{
    size_t operator()(const CostKey &key) const noexcept;
};

class CostCache
{
  public:
    /** @param maxEntries capacity bound (entries are ~100 bytes, so the
     *        default comfortably covers every distinct canonical kernel
     *        the model zoo generates while still bounding a service). */
    explicit CostCache(size_t maxEntries = 1 << 16)
        : lru_(maxEntries, kShardCount)
    {
    }

    /**
     * Return the stats for @p key, running @p compute on a miss. The
     * computation executes outside the shard lock, so misses on other
     * keys proceed in parallel; a caller that misses on a key already
     * being computed waits for that value.
     */
    NodeExecStats
    lookupOrCompute(const CostKey &key,
                    const std::function<NodeExecStats()> &compute)
    {
        return lru_.lookupOrCompute(key, compute);
    }

    /** Cached entry count (approximate under concurrency). */
    size_t size() const { return lru_.size(); }
    /** Enforced entry bound (size() never exceeds it). */
    size_t capacity() const { return lru_.capacity(); }

    uint64_t hits() const { return lru_.stats().hits; }
    uint64_t misses() const { return lru_.stats().misses; }
    uint64_t evictions() const { return lru_.stats().evictions; }
    common::CacheStats stats() const { return lru_.stats(); }

    void clear() { lru_.clear(); }

  private:
    static constexpr size_t kShardCount = 16;

    common::ShardedLru<CostKey, NodeExecStats, CostKeyHash> lru_;
};

} // namespace gcd2::select

#endif // GCD2_SELECT_COST_CACHE_H
