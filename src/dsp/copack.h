/**
 * @file
 * Mask-based co-pack delay model over a range of instructions.
 *
 * The SDA packer's cost model charges a stall when two instructions with
 * a penalized soft dependency share a packet (paper Fig. 4). Answering
 * "how many stall cycles does `b` pay when co-packed after `a`?" needs
 * only four per-instruction facts -- read mask, write mask, memory class,
 * forwarding penalty -- plus one alias probe; none of the scheduling
 * graph. This model is those tables, built in one O(n) pass, so
 * consumers that only classify pairs (the schedule check table's
 * delay-claim check, the IDG builders' edge classification) don't pay
 * for chain construction, CSR packing, or critical-path state.
 *
 * vliw::FastIdg embeds a CopackModel and forwards its copackDelay(), so
 * the delay the schedule check table verifies here is *the* delay the
 * packer charges, not a reimplementation that could drift.
 */
#ifndef GCD2_DSP_COPACK_H
#define GCD2_DSP_COPACK_H

#include <cstdint>
#include <vector>

#include "dsp/alias.h"
#include "dsp/deps.h"
#include "dsp/isa.h"

namespace gcd2::dsp {

/** Pair-classification tables for instructions [begin, begin+size). */
class CopackModel
{
  public:
    /**
     * Build tables for @p count instructions of @p prog starting at
     * @p begin. Indices into the model are local (0-based); @p alias is
     * probed with absolute program indices and must outlive the model.
     */
    CopackModel(const Program &prog, size_t begin, size_t count,
                const AliasAnalysis &alias);

    /** Whole-program model (local indices == program indices). */
    CopackModel(const Program &prog, const AliasAnalysis &alias)
        : CopackModel(prog, 0, prog.code.size(), alias)
    {
    }

    size_t size() const { return readMask_.size(); }

    /**
     * Stall cycles instruction @p b pays when co-packed after @p a
     * (a < b, local indices): the classifyDependency soft penalty, or 0
     * for hard / free / independent pairs -- exactly the pairs
     * packetCost and pipelinedBlockCost charge, with no heap traffic.
     */
    int copackDelay(size_t a, size_t b) const
    {
        if ((writeMask_[a] & writeMask_[b]) != 0)
            return 0; // WAW: hard
        if ((writeMask_[a] & readMask_[b] & kVectorUidMask) != 0)
            return 0; // vector RAW: hard
        if (memPair_[a] != 0 && memPair_[b] != 0 &&
            (memPair_[a] | memPair_[b]) > 1 &&
            alias_->mayAlias(begin_ + a, begin_ + b))
            return 0; // store-involving may-alias pair: hard
        if ((writeMask_[a] & readMask_[b]) != 0)
            return fwdPenalty_[a]; // scalar RAW: soft, penalized
        return 0;                  // WAR or independent: free
    }

    uint64_t readMask(size_t i) const { return readMask_[i]; }
    uint64_t writeMask(size_t i) const { return writeMask_[i]; }
    /** 0 = not memory, 1 = load, 2 = store (so `(a|b) > 1` means "a
     *  store is involved"). */
    uint8_t memClass(size_t i) const { return memPair_[i]; }
    /** Stall cycles a scalar RAW on producer @p i costs in-packet. */
    int forwardPenalty(size_t i) const { return fwdPenalty_[i]; }
    int latency(size_t i) const { return latency_[i]; }

    const AliasAnalysis &alias() const { return *alias_; }
    /** Absolute program index of local index @p i. */
    size_t instIndex(size_t i) const { return begin_ + i; }

  private:
    size_t begin_ = 0;
    const AliasAnalysis *alias_ = nullptr;
    std::vector<uint64_t> readMask_, writeMask_;
    std::vector<uint8_t> memPair_;
    std::vector<int8_t> fwdPenalty_;
    std::vector<int32_t> latency_;
};

} // namespace gcd2::dsp

#endif // GCD2_DSP_COPACK_H
