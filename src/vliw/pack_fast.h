/**
 * @file
 * Internal interface of the scalable SDA packer (pack_fast.cc).
 *
 * Not part of the library's public API: vliw::pack() in packer.h is the
 * entry point. These pieces are exposed so the PackCache's block tier can
 * pack one basic block at a time (packBlock, packBlocks), and so tests
 * can check the repair pass's incremental trial scorer against the full
 * block re-cost on the same start schedules the packer builds.
 */
#ifndef GCD2_VLIW_PACK_FAST_H
#define GCD2_VLIW_PACK_FAST_H

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "vliw/fast_idg.h"
#include "vliw/packer.h"

namespace gcd2::vliw::detail {

/** One block's schedule: packets of FastIdg node ids. */
using NodeSchedule = std::vector<std::vector<size_t>>;

inline constexpr size_t kSlots = static_cast<size_t>(dsp::kPacketSlots);
inline constexpr size_t kNone = static_cast<size_t>(-1);

/**
 * The packets pack() emits for @p block (absolute instruction indices).
 * Reads only what blockPackingKey (pack_cache.h) writes into its key.
 */
std::vector<dsp::Packet> packBlock(const dsp::Program &prog,
                                   const BasicBlock &block,
                                   const dsp::AliasAnalysis &alias,
                                   const PackOptions &opts);

/** One block's packets, given the program's alias analysis. */
using BlockPacker = std::function<std::vector<dsp::Packet>(
    const BasicBlock &, const dsp::AliasAnalysis &)>;

/**
 * The packed program whose blocks @p packOne packs, in program order,
 * with every label mapped to its block's first packet. pack(),
 * packReference() and PackCache::lookupOrPack differ only in @p packOne.
 */
dsp::PackedProgram packBlocks(const dsp::Program &prog,
                              const BlockPacker &packOne);

/** buildSdaSchedule mirror (Algorithm 1); consumes its graph copy. */
NodeSchedule buildSdaFast(FastIdg idg, const PackOptions &opts);

/** listScheduleNodes mirror (critical-path list schedule). */
NodeSchedule listScheduleFast(const FastIdg &idg);

/**
 * pipelinedBlockCost mirror: the full left-to-right scan RepairScorer
 * answers incrementally, kept separate from it as its oracle.
 */
uint64_t blockCostFast(const FastIdg &idg, const NodeSchedule &packets,
                       SoftDepPolicy belief);

/**
 * Decision-exact incremental scorer for the repair pass's single moves.
 *
 * blockCostFast is a left-to-right scan whose state before each packet
 * is (issue, ready[uid], completion). The scorer keeps that state before
 * every packet of the adopted schedule, so a trial move p -> q resumes
 * at min(p, q) instead of packet 0, and stops early, exactly, when:
 *
 *  - the trial's completion reaches the accept threshold (the scan never
 *    lowers completion);
 *  - past max(p, q), the trial's state relative to its issue cycle equals
 *    the adopted schedule's for every register (the remaining packets are
 *    identical, so the rest of the scan is the adopted one shifted by the
 *    issue difference, and the cost is max(completion, suffix max of the
 *    adopted packets' completions + shift));
 *  - past max(p, q), a non-erasing trial's state is pointwise >= the
 *    adopted one's (the scan is monotone, so its cost cannot drop below
 *    the adopted cost it must beat).
 *
 * Registers are compacted to the ones the block touches.
 */
class RepairScorer
{
  public:
    /** Scores under @p belief on @p idg, which must outlive the scorer. */
    RepairScorer(const FastIdg &idg, SoftDepPolicy belief);

    /** Adopt @p packets as the schedule trial moves start from. */
    void reset(const NodeSchedule &packets);

    /** blockCostFast of the adopted schedule. */
    uint64_t cost() const { return cost_; }

    /**
     * The repair rule on moving packets[p][slot] into packet q != p of
     * the adopted schedule @p packets: the moved schedule's blockCostFast
     * when it is below cost(), or equal to it and the move empties packet
     * p (which is then erased); nullopt when the move is rejected.
     */
    std::optional<uint64_t> tryMove(const NodeSchedule &packets, size_t p,
                                    size_t slot, size_t q);

    /**
     * Adopt the last tried move, which the caller applies to its schedule
     * the same way: packets[p][slot] appended to packet q, and packet p
     * erased if that emptied it. Saved states before min(p, q) are kept.
     */
    void acceptLastMove();

  private:
    /** What one packet does to the scan state. */
    struct Summary
    {
        uint64_t reads = 0;
        uint64_t writeAll = 0;
        int64_t maxDone = 0;
        size_t count = 0;
        /** Per member, ascending node id: written registers and the
         *  cycles from issue to done (delay + latency). */
        std::array<uint64_t, kSlots> writes{};
        std::array<int64_t, kSlots> done{};
    };

    Summary summarize(const size_t *nodes, size_t count) const;
    void step(const Summary &s, int64_t &issue, int64_t &completion,
              int64_t *ready) const;
    /** Re-derive the saved states from packet @p from on. */
    void rescan(size_t from);

    const FastIdg &idg_;
    bool ignoreSoft_;
    size_t regs_ = 0;
    /** Compact registers whose ready time is issue + 1 (AsNone scalars). */
    uint64_t forwarded_ = 0;
    std::vector<uint64_t> reads_, writes_;

    std::vector<Summary> summaries_;
    /** Scan state before packet j (row j of ready_ has regs_ entries). */
    std::vector<int64_t> issue_, completion_, ready_;
    /** Latest done over packets j.. of the adopted schedule. */
    std::vector<int64_t> sufDone_;
    uint64_t cost_ = 0;

    /** The last trial's move and its two changed packets. Packet p
     *  without its node is kept across the targets tried for it. */
    size_t trialP_ = kNone;
    size_t trialQ_ = 0;
    bool trialErased_ = false;
    Summary intoQ_;
    Summary outOfP_;
    size_t cachedP_ = kNone;
    size_t cachedSlot_ = 0;
};

} // namespace gcd2::vliw::detail

#endif // GCD2_VLIW_PACK_FAST_H
