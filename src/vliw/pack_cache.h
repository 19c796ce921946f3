/**
 * @file
 * Process-wide cache of packed programs, keyed by content fingerprint.
 *
 * Packing is a pure function of (Program, PackOptions), and the compiler
 * packs the same few canonical kernel programs over and over: every
 * cost-model probe of a (plan, kernel) candidate, every kernel-generation
 * run, and (before PR 4) the audit pass each re-ran the full SDA ensemble
 * on identical inputs -- across plans, partitions, and whole compiles.
 * PackCache memoizes the PackedProgram exactly like dsp::DecodeCache
 * memoizes decoded programs; the two compose into a layered pipeline
 * (pack once -> decode once -> simulate many), with select::CostCache
 * above both memoizing the resulting kernel statistics.
 *
 * Keying mirrors DecodeCache: two independent FNV-1a lanes over the
 * instruction stream, labels and noalias ABI declaration, plus the
 * packing-relevant PackOptions fields (policy and the exact bit patterns
 * of the Eq. 4 tunables). Storage is the managed cache tier's bounded
 * sharded LRU (common::ShardedLru, DESIGN.md section 14): per-entry
 * least-recently-used eviction at the capacity bound, so the hot
 * canonical kernels survive indefinitely instead of being dropped by
 * the old wholesale epoch clear.
 *
 * Below the program tier sits a block-schedule tier. Packing is
 * block-local and reads immediates only through in-block alias bits
 * (DESIGN.md section 11), so programs that differ only in trip counts or
 * strides share most blocks. A
 * program miss packs block by block and looks each block up first, keyed
 * on blockPackingKey. Keys are compared byte for byte on a hit (the hash
 * only picks a bucket), so a hit returns what packing the block would
 * return.
 */
#ifndef GCD2_VLIW_PACK_CACHE_H
#define GCD2_VLIW_PACK_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fnv.h"
#include "common/lru_cache.h"
#include "vliw/cfg.h"
#include "vliw/packer.h"

namespace gcd2::vliw {

/** Content fingerprint of a (Program, PackOptions) packing request. */
struct PackKey
{
    uint64_t h0 = 0;
    uint64_t h1 = 0;
    uint64_t instructions = 0;
    uint8_t policy = 0;

    bool operator==(const PackKey &other) const = default;
};

/** Fingerprint covering everything pack() depends on. */
PackKey fingerprintForPacking(const dsp::Program &prog,
                              const PackOptions &opts);

/** Every input of one block's packing, as bytes, plus their hash. */
struct BlockPackingKey
{
    uint64_t hash = 0;
    std::vector<uint8_t> bytes;

    bool operator==(const BlockPackingKey &other) const
    {
        return hash == other.hash && bytes == other.bytes;
    }
};

/**
 * The one list of what packing @p block reads: the options (policy and
 * the bit patterns of w and penaltyScale), each instruction's opcode and
 * its dst and two src operands, and the @p alias mayAlias bit of every
 * in-block memory pair that involves a store (ascending later member,
 * then earlier member; the opcodes fix which pairs those are). Nothing
 * else -- no immediate, nothing outside the block. Blocks with equal keys
 * get the same packets, as offsets from their first instruction.
 */
BlockPackingKey blockPackingKey(const dsp::Program &prog,
                                const BasicBlock &block,
                                const dsp::AliasAnalysis &alias,
                                const PackOptions &opts);

/**
 * Thread-safe pack cache. Misses pack outside any lock, and both tiers
 * are single-flight (ShardedLru::lookupOrCompute): a program or block
 * that several threads miss together is packed once, and the others wait
 * for it and count as hits.
 */
class PackCache
{
  public:
    explicit PackCache(size_t maxEntries = 4096) : lru_(maxEntries) {}

    /** Packed form of @p prog under @p opts, cached by content. */
    std::shared_ptr<const dsp::PackedProgram>
    lookupOrPack(const dsp::Program &prog, const PackOptions &opts = {});

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0; ///< per-entry LRU evictions
        /** Wall-clock seconds spent producing packed programs on misses. */
        double packSeconds = 0.0;
        /** Block-tier lookups on program misses: blocks answered by an
         *  earlier pack, and blocks packed. */
        uint64_t blockHits = 0;
        uint64_t blockMisses = 0;
    };

    Stats stats() const;
    /** Cached programs (the block tier is not counted). */
    size_t size() const { return lru_.size(); }
    /** Enforced program entry bound (size() never exceeds it). */
    size_t capacity() const { return lru_.capacity(); }
    /** Drop both tiers and reset every counter. */
    void clear();

    /** Process-wide cache used by kernels::runKernel and the pipeline. */
    static PackCache &global();

  private:
    /** Entry bound of the block-schedule tier. */
    static constexpr size_t kBlockEntries = 4096;

    struct KeyHash
    {
        size_t operator()(const PackKey &key) const
        {
            return static_cast<size_t>(common::mixLanes(key.h0, key.h1));
        }
    };

    struct BlockKeyHash
    {
        size_t operator()(const BlockPackingKey &key) const
        {
            return static_cast<size_t>(key.hash);
        }
    };

    /** One block's packets, instruction indices relative to its start. */
    struct BlockPackets
    {
        std::vector<uint32_t> insts; ///< packet members, packet by packet
        std::vector<uint8_t> sizes;  ///< members per packet
    };

    /** detail::packBlock, answered from the block tier when it can be. */
    std::vector<dsp::Packet> packBlock(const dsp::Program &prog,
                                       const BasicBlock &block,
                                       const dsp::AliasAnalysis &alias,
                                       const PackOptions &opts);

    common::ShardedLru<PackKey,
                       std::shared_ptr<const dsp::PackedProgram>, KeyHash>
        lru_;
    common::ShardedLru<BlockPackingKey,
                       std::shared_ptr<const BlockPackets>, BlockKeyHash>
        blocks_{kBlockEntries};
    /** Nanoseconds spent packing on misses (atomic: misses race). */
    std::atomic<uint64_t> packNanos_{0};
};

} // namespace gcd2::vliw

#endif // GCD2_VLIW_PACK_CACHE_H
