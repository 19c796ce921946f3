/**
 * @file
 * Pre-decoded execution engine for packed (VLIW) programs.
 *
 * The timing simulator is the innermost loop of the whole system: every
 * instruction-selection cost query, every SDA packing score, and every
 * end-to-end inference bottoms out in executing a PackedProgram. The
 * reference interpreter (timing_sim.cc runReference / functional_sim.cc)
 * re-derives everything per dynamic packet: register read/write sets are
 * materialized as heap-allocated vectors, intra-packet soft-dependency
 * delays come from classifyDependency over AliasAnalysis state, and branch
 * labels go through Program::labels indirection.
 *
 * DecodedProgram moves all of that to a one-time decode:
 *
 *  - Per packet, a 64-bit *register read mask* (32 scalar + 32 vector
 *    uids) so the issue-interlock scan is an O(popcount) scoreboard walk
 *    instead of vector allocations per instruction.
 *  - Per instruction, a 64-bit write mask, the pre-computed intra-packet
 *    soft-dependency delay, and the pipeline latency -- the dynamic loop
 *    touches no AliasAnalysis / classifyDependency state.
 *  - Branches carry their resolved target *packet index*; no label table
 *    lookups at run time.
 *  - Execution dispatches through a per-opcode function table whose wide
 *    SIMD handlers (multiplies / shuffles / narrowing shifts) are lane
 *    loops over local copies in fixed-weight 16- or 32-bit lanes, which
 *    GCC -O3 vectorizes for baseline x86-64 (DESIGN.md section 9; vlut,
 *    a byte gather, is the one scalar lane loop left).
 *    Instructions whose destination registers alias their vector sources
 *    (where lane-ordered execution is observable) fall back to the
 *    reference executeInstruction, so decoded execution is bit-identical
 *    to the interpreter for *every* program -- enforced by differential
 *    fuzz tests (tests/dsp/decoded_engine_test.cc) and a per-handler
 *    lane test (tests/dsp/lane_differential_test.cc).
 *
 * DecodedProgram instances are cached in a thread-safe DecodeCache keyed
 * on program content, so the cost model's repeated re-simulation of
 * canonical kernels and repeated inference invocations skip re-decoding
 * entirely. A lookup walks the program once to fingerprint it (both FNV
 * lanes in that one walk), and a miss decodes under that same key
 * instead of hashing again. Decoding is a pure function of the program,
 * which keeps multi-threaded compilation deterministic (see DESIGN.md
 * section 9).
 */
#ifndef GCD2_DSP_DECODED_H
#define GCD2_DSP_DECODED_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fnv.h"
#include "common/lru_cache.h"
#include "dsp/functional_sim.h"
#include "dsp/packet.h"
#include "dsp/timing_stats.h"

namespace gcd2::dsp {

/** Total register uids (scalars then vectors); masks fit one uint64_t. */
inline constexpr int kNumRegUids = kNumScalarRegs + kNumVectorRegs;
static_assert(kNumRegUids <= 64, "register masks must fit in 64 bits");

/** One pre-decoded instruction. */
struct DecodedInst
{
    Opcode op = Opcode::NOP;
    /** Index into the dispatch table (opcode, or the fallback slot when
     *  destination registers alias vector sources). */
    uint8_t exec = 0;
    /** Pre-extracted register indices (-1 when absent). */
    int8_t d = -1;
    int8_t s0 = -1;
    int8_t s1 = -1;
    /** Pipeline occupancy (OpcodeInfo::latency). */
    int32_t latency = 1;
    /** Intra-packet soft-dependency delay before this pipeline begins. */
    int32_t delay = 0;
    /** Branch target packet index; kNotBranch otherwise, kBadTarget for a
     *  branch whose label id is out of range (panics only if taken, like
     *  the reference). */
    int32_t target = -1;
    /** Index into DecodedProgram::rawCode (fallback execution). */
    uint32_t rawIndex = 0;
    int64_t imm = 0;
    /** Registers written (uid bit set). */
    uint64_t writeMask = 0;

    static constexpr int32_t kNotBranch = -1;
    static constexpr int32_t kBadTarget = -2;
};

/** One pre-decoded packet: a range of DecodedInst plus its read set. */
struct DecodedPacket
{
    uint32_t begin = 0;
    uint32_t end = 0;
    /** Union of registers read by the packet (issue interlock scan). */
    uint64_t readMask = 0;
};

/** Content fingerprint of a PackedProgram (decode-cache key). */
struct DecodeKey
{
    uint64_t h0 = 0;
    uint64_t h1 = 0;
    uint64_t instructions = 0;
    uint64_t packets = 0;

    bool operator==(const DecodeKey &other) const = default;
};

/** Fingerprint covering everything decoding depends on: instructions,
 *  labels, packet structure, and the noalias ABI declaration. */
DecodeKey fingerprintProgram(const PackedProgram &packed);

/**
 * A PackedProgram lowered to the pre-decoded representation. Immutable
 * after build(); safe to share across threads.
 */
class DecodedProgram
{
  public:
    /** Decode a packed program (one-time cost; cache via DecodeCache). */
    static std::shared_ptr<const DecodedProgram>
    build(const PackedProgram &packed);

    /** build() for a program whose fingerprint is already known: @p key
     *  must be fingerprintProgram(@p packed). DecodeCache uses it to hash
     *  a program once per lookup. */
    static std::shared_ptr<const DecodedProgram>
    build(const PackedProgram &packed, const DecodeKey &key);

    std::vector<DecodedInst> insts;
    std::vector<DecodedPacket> packets;
    /** Copy of the original instructions for fallback execution. */
    std::vector<Instruction> rawCode;
    DecodeKey key;
};

/**
 * Execute a decoded program: pipelined packet issue with register
 * interlocks via the mask scoreboard, matching the reference
 * TimingSimulator::runReference cycle-for-cycle and bit-for-bit.
 *
 * @param regs architectural registers (updated in place)
 * @param mem simulator memory (updated in place)
 * @param stats cumulative architectural counters (updated in place;
 *        TimingStats byte counts are reported as deltas against it)
 * @param maxPackets runaway-loop guard, checked periodically with exact
 *        overflow behavior (panics after executing maxPackets packets)
 */
TimingStats runDecoded(const DecodedProgram &dec, RegisterFile &regs,
                       Memory &mem, ExecStats &stats,
                       uint64_t maxPackets = 1ULL << 32);

/**
 * Thread-safe bounded cache of decoded programs keyed on content
 * fingerprint -- a member of the managed cache tier (common::ShardedLru,
 * DESIGN.md section 14). A miss decodes outside any lock and is
 * single-flight (a thread that misses on a program another thread is
 * decoding waits for that decode, so a resident program was decoded
 * once and counted one miss, whatever the thread count); when a shard
 * exceeds its share of the capacity the least-recently-used entry is
 * evicted, so a long-lived service keeps its hot decoded kernels
 * instead of periodically dropping the whole working set. The shard is
 * picked by common::mixLanes of the key's two lanes, so every shard
 * takes its share of the capacity.
 */
class DecodeCache
{
  public:
    explicit DecodeCache(size_t maxEntries = 4096) : lru_(maxEntries) {}

    /** Decoded form of @p packed, reusing a cached copy when present. */
    std::shared_ptr<const DecodedProgram>
    lookupOrDecode(const PackedProgram &packed);

    /** hits / misses / per-entry LRU evictions. */
    using Stats = common::CacheStats;

    Stats stats() const { return lru_.stats(); }
    size_t size() const { return lru_.size(); }
    /** Enforced entry bound (size() never exceeds it). */
    size_t capacity() const { return lru_.capacity(); }
    void clear() { lru_.clear(); }

    /** Process-wide cache used by TimingSimulator::run. */
    static DecodeCache &global();

  private:
    struct KeyHash
    {
        size_t operator()(const DecodeKey &key) const
        {
            return static_cast<size_t>(common::mixLanes(key.h0, key.h1));
        }
    };

    common::ShardedLru<DecodeKey, std::shared_ptr<const DecodedProgram>,
                       KeyHash>
        lru_;
};

} // namespace gcd2::dsp

#endif // GCD2_DSP_DECODED_H
