/**
 * @file
 * Scalable instruction-dependency graph for the SDA packer.
 *
 * Replaces the all-pairs O(n^2) classifyDependency sweep of vliw::Idg
 * with def-use chain construction: per-register last-writer /
 * readers-since-last-write tables emit only the candidate pairs that can
 * actually carry a dependency, and memory ordering enumerates
 * store-involving pairs through the alias oracle directly. The resulting
 * edge set is a *subset* of the reference graph with an identical
 * transitive closure, which is exactly the property every consumer needs:
 *
 *  - node ranks (`order`) and transitive predecessor counts are equal
 *    because both are closure properties;
 *  - critical-path distances are equal because a transitively implied
 *    edge is always dominated by its implying chain;
 *  - freedom / co-packing legality is equal under the packer's
 *    succ-closed removal discipline (a node is only removed once all of
 *    its successors are), because the first hop of any implying chain
 *    reproduces the constraint.
 *
 * Differential tests (tests/vliw/fast_idg_test.cc) enforce all of this
 * against the reference Idg on seeded random programs.
 *
 * Complexity: construction is O(n + e + m^2) where e is the chain-derived
 * edge count (O(n) per register pressure class in practice) and m the
 * number of memory instructions (each pair costs one O(1) alias probe;
 * only may-aliasing store pairs become edges), plus one O(e * n/64)
 * bitset sweep for transitive predecessor counts. Adjacency is flat CSR,
 * so iteration is allocation-free.
 *
 * Scheduling state is incremental: remaining-successor counts and a free
 * bitset are updated on remove() (no O(n) rescans), and critical-path
 * exit distances are cached and repaired lazily -- a removal only dirties
 * predecessors whose cached best successor died, and a query recomputes
 * the dirty frontier in reverse topological order, falling back to the
 * full reverse sweep when the frontier exceeds a quarter of the block.
 */
#ifndef GCD2_VLIW_FAST_IDG_H
#define GCD2_VLIW_FAST_IDG_H

#include <cstdint>
#include <vector>

#include "dsp/alias.h"
#include "dsp/copack.h"
#include "dsp/decoded.h"
#include "dsp/deps.h"
#include "dsp/packet.h"
#include "vliw/cfg.h"
#include "vliw/idg.h"

namespace gcd2::vliw {

/** Chain-built, incrementally maintained IDG over one basic block. */
class FastIdg
{
  public:
    /**
     * Build the graph for @p block of @p prog. Policy semantics match
     * vliw::Idg: AsHard upgrades penalized soft edges to hard at build
     * time. @p alias must outlive the graph.
     */
    FastIdg(const dsp::Program &prog, const BasicBlock &block,
            const dsp::AliasAnalysis &alias, SoftDepPolicy policy);

    /**
     * A copy under SoftDepPolicy::AsHard edge semantics, without
     * re-running chain construction (edge existence, ranks and
     * predecessor counts are policy-invariant; only kinds change).
     */
    FastIdg hardened() const;

    /** Would hardened() upgrade any edge? Without one it is an exact copy. */
    bool hasPenalizedSoftEdge() const;

    size_t size() const { return n_; }
    size_t instIndex(size_t i) const { return blockBegin_ + i; }
    int order(size_t i) const { return order_[i]; }
    int predCount(size_t i) const { return predCount_[i]; }
    int latency(size_t i) const { return pair_.latency(i); }
    /** Slot resources of node @p i, precomputed at construction. */
    const dsp::SlotNeed &slotNeed(size_t i) const { return slotNeed_[i]; }

    bool removed(size_t i) const { return removed_[i] != 0; }
    size_t remainingCount() const { return remaining_; }

    /** Remove a scheduled node (reference Idg::remove semantics). */
    void remove(size_t i);

    // ---- Algorithm 1 hot-path API -----------------------------------

    /** Start a fresh packet (clears the per-packet co-pack blocks). */
    void beginPacket();

    /**
     * Remove node @p i into the current packet: updates the free set and
     * blocks its hard predecessors from joining this packet.
     */
    void take(size_t i);

    /**
     * Free nodes given the current packet, ascending. Identical to the
     * reference freeInstructions(cur) when every cur member was take()n
     * this packet. O(n/64 + |free|).
     */
    void collectFree(std::vector<size_t> &out) const;

    /**
     * Last node of the critical path through the remaining sub-graph
     * (the bottom-up packet seed). Requires remainingCount() > 0.
     */
    size_t criticalSeed();

    /** Full remaining critical path, entry-to-exit (reference parity). */
    std::vector<size_t> criticalPath();

    // ---- Reference-parity queries (tests, baselines) ----------------

    /** Reference Idg::isFree semantics (cur looked up by scan). */
    bool isFree(size_t i, const std::vector<size_t> &candidatePacket) const;

    /** Successor / predecessor edges as reference-style IdgEdge lists. */
    std::vector<IdgEdge> succs(size_t i) const;
    std::vector<IdgEdge> preds(size_t i) const;

    /** Flat CSR edge view (allocation-free legality scans). */
    struct EdgeList
    {
        const int32_t *dst;
        const uint8_t *hard;
        const int8_t *penalty;
        size_t count;
    };
    EdgeList succList(size_t i) const;
    EdgeList predList(size_t i) const;

    // ---- Allocation-free pair classification ------------------------

    /**
     * Stall cycles instruction @p b pays when co-packed after @p a
     * (a < b, node ids). Forwards to the embedded dsp::CopackModel, so
     * the delay the schedule check table verifies from that model is
     * the very value the packer's cost functions charge.
     */
    int copackDelay(size_t a, size_t b) const
    {
        return pair_.copackDelay(a, b);
    }

    uint64_t readMask(size_t i) const { return pair_.readMask(i); }
    uint64_t writeMask(size_t i) const { return pair_.writeMask(i); }

    /** Register-uid mask of the scalar (forwardable) register file. */
    static constexpr uint64_t kScalarUidMask = dsp::kScalarUidMask;
    static constexpr uint64_t kVectorUidMask = dsp::kVectorUidMask;

  private:
    void rebuildDistances();
    void refreshDistances();
    void recomputeNode(size_t p);
    void markDirty(size_t p);
    int bestSource() const;

    size_t n_ = 0;
    size_t blockBegin_ = 0;

    /** Pair-classification tables (masks, memory class, penalties,
     *  latencies), shared with every pair-only consumer. */
    dsp::CopackModel pair_;
    std::vector<dsp::SlotNeed> slotNeed_;

    // Flat CSR adjacency (edges point forward in program order; succs of
    // each node ascend by target id, matching the reference edge order).
    std::vector<int32_t> succOff_, succDst_;
    std::vector<int32_t> predOff_, predDst_;
    std::vector<uint8_t> succHard_, predHard_;
    std::vector<int8_t> succPen_, predPen_;

    std::vector<int32_t> order_, predCount_;

    // Incremental scheduling state.
    std::vector<uint8_t> removed_;
    std::vector<int32_t> liveSuccCount_;
    std::vector<uint64_t> freeWords_;
    std::vector<uint32_t> blockedEpoch_;
    uint32_t epoch_ = 0;
    size_t remaining_ = 0;

    // Cached critical-path state (exit distances, best-successor links).
    std::vector<int64_t> dist_;
    std::vector<int32_t> next_;
    std::vector<uint64_t> dirtyWords_;
    size_t dirtyCount_ = 0;
};

} // namespace gcd2::vliw

#endif // GCD2_VLIW_FAST_IDG_H
