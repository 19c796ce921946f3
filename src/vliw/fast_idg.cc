#include "vliw/fast_idg.h"

#include <algorithm>
#include <bit>
#include <climits>

#include "common/logging.h"

namespace gcd2::vliw {

using dsp::DepKind;

namespace {

/** One discovered edge before CSR packing. */
struct TempEdge
{
    int32_t i;
    int32_t j;
    uint8_t hard;
    int8_t penalty;
};

} // namespace

FastIdg::FastIdg(const dsp::Program &prog, const BasicBlock &block,
                 const dsp::AliasAnalysis &alias, SoftDepPolicy policy)
    : n_(block.size()), blockBegin_(block.begin),
      pair_(prog, block.begin, block.size(), alias)
{
    const size_t n = n_;

    slotNeed_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        slotNeed_.push_back(dsp::slotNeed(prog.code[blockBegin_ + i]));

    // Chain-based candidate generation: rather than classifying all
    // O(n^2) pairs, walk the block once keeping, per register uid, the
    // last writer and the readers since that write; only those pairs
    // (plus store-involving may-alias memory pairs) can carry an edge.
    // Each candidate is then classified with the same aspect priority as
    // dsp::classifyDependency (hard memory/vector-RAW/WAW beats soft
    // scalar-RAW beats free WAR), so a kept edge is bit-identical to the
    // reference edge for that pair.
    std::vector<int32_t> lastWriter(dsp::kNumRegUids, -1);
    std::vector<std::vector<int32_t>> readersSince(dsp::kNumRegUids);
    std::vector<int32_t> memSoFar, storesSoFar;
    std::vector<int32_t> stamp(n, -1);
    std::vector<int32_t> cand;
    std::vector<TempEdge> edges;
    edges.reserve(4 * n);

    for (size_t j = 0; j < n; ++j) {
        cand.clear();
        auto consider = [&](int32_t i) {
            if (i >= 0 && stamp[i] != static_cast<int32_t>(j)) {
                stamp[i] = static_cast<int32_t>(j);
                cand.push_back(i);
            }
        };

        for (uint64_t bits = pair_.readMask(j); bits != 0; bits &= bits - 1)
            consider(lastWriter[std::countr_zero(bits)]);
        for (uint64_t bits = pair_.writeMask(j); bits != 0; bits &= bits - 1) {
            const int uid = std::countr_zero(bits);
            consider(lastWriter[uid]);
            for (int32_t r : readersSince[uid])
                consider(r);
        }
        if (pair_.memClass(j) == 2) {
            for (int32_t m : memSoFar)
                if (alias.mayAlias(blockBegin_ + m, blockBegin_ + j))
                    consider(m);
        } else if (pair_.memClass(j) == 1) {
            for (int32_t s : storesSoFar)
                if (alias.mayAlias(blockBegin_ + s, blockBegin_ + j))
                    consider(s);
        }

        std::sort(cand.begin(), cand.end());
        for (int32_t i : cand) {
            const auto ui = static_cast<size_t>(i);
            uint8_t hard = 0;
            int8_t pen = 0;
            if ((pair_.writeMask(ui) & pair_.writeMask(j)) != 0 ||
                (pair_.writeMask(ui) & pair_.readMask(j) & kVectorUidMask) != 0 ||
                (pair_.memClass(ui) != 0 && pair_.memClass(j) != 0 &&
                 (pair_.memClass(ui) | pair_.memClass(j)) > 1 &&
                 alias.mayAlias(blockBegin_ + ui, blockBegin_ + j))) {
                hard = 1;
            } else if ((pair_.writeMask(ui) & pair_.readMask(j)) != 0) {
                pen = pair_.forwardPenalty(ui);
                if (policy == SoftDepPolicy::AsHard && pen > 0) {
                    hard = 1;
                    pen = 0;
                }
            }
            // Remaining candidates are WAR pairs: soft, penalty 0.
            edges.push_back(
                TempEdge{i, static_cast<int32_t>(j), hard, pen});
        }

        for (uint64_t bits = pair_.writeMask(j); bits != 0; bits &= bits - 1) {
            const int uid = std::countr_zero(bits);
            readersSince[uid].clear();
            lastWriter[uid] = static_cast<int32_t>(j);
        }
        for (uint64_t bits = pair_.readMask(j); bits != 0; bits &= bits - 1)
            readersSince[std::countr_zero(bits)].push_back(
                static_cast<int32_t>(j));
        if (pair_.memClass(j) != 0) {
            memSoFar.push_back(static_cast<int32_t>(j));
            if (pair_.memClass(j) == 2)
                storesSoFar.push_back(static_cast<int32_t>(j));
        }
    }

    // Edges into a block-terminating branch, exactly as the reference:
    // every earlier node gets one. The chain loop above only emitted the
    // chain-adjacent ones, so classify each remaining pair directly from
    // the masks (the reference stores the pair's real classification even
    // when a chain covers it transitively -- e.g. an older writer of the
    // branch condition is still a penalized soft RAW) and fall back to
    // the soft free ordering edge for genuinely independent pairs.
    // Branch edges sit at the tail of `edges` (the branch is the last
    // classified j), so membership is a single backward scan.
    if (n > 0 && prog.code[block.end - 1].isBranch()) {
        const auto branch = static_cast<int32_t>(n - 1);
        const auto ub = static_cast<size_t>(branch);
        std::vector<uint8_t> hasEdge(n, 0);
        for (size_t e = edges.size(); e-- > 0;) {
            if (edges[e].j != branch)
                break;
            hasEdge[edges[e].i] = 1;
        }
        for (int32_t i = 0; i + 1 < static_cast<int32_t>(n); ++i) {
            if (hasEdge[i])
                continue;
            const auto ui = static_cast<size_t>(i);
            uint8_t hard = 0;
            int8_t pen = 0;
            if ((pair_.writeMask(ui) & pair_.writeMask(ub)) != 0 ||
                (pair_.writeMask(ui) & pair_.readMask(ub) & kVectorUidMask) != 0) {
                hard = 1; // WAW / vector RAW (branches are not memory)
            } else if ((pair_.writeMask(ui) & pair_.readMask(ub)) != 0) {
                pen = pair_.forwardPenalty(ui); // scalar RAW into the condition
                if (policy == SoftDepPolicy::AsHard && pen > 0) {
                    hard = 1;
                    pen = 0;
                }
            }
            // WAR and independent pairs land at soft, penalty 0 -- the
            // same shape as the reference's ordering-only edge.
            edges.push_back(TempEdge{i, branch, hard, pen});
        }
    }

    // CSR packing. `edges` is grouped by ascending j (preds come out
    // grouped directly, ascending i within a group, ordering edges last
    // for the branch -- matching the reference pred order); a stable
    // counting sort on i yields succ rows ascending in j, again matching
    // the reference succ order.
    const size_t m = edges.size();
    predOff_.assign(n + 1, 0);
    succOff_.assign(n + 1, 0);
    for (const TempEdge &e : edges) {
        ++predOff_[static_cast<size_t>(e.j) + 1];
        ++succOff_[static_cast<size_t>(e.i) + 1];
    }
    for (size_t v = 0; v < n; ++v) {
        predOff_[v + 1] += predOff_[v];
        succOff_[v + 1] += succOff_[v];
    }
    predDst_.resize(m);
    predHard_.resize(m);
    predPen_.resize(m);
    succDst_.resize(m);
    succHard_.resize(m);
    succPen_.resize(m);
    std::vector<int32_t> predFill(predOff_.begin(), predOff_.end() - 1);
    std::vector<int32_t> succFill(succOff_.begin(), succOff_.end() - 1);
    for (const TempEdge &e : edges) {
        const auto p = static_cast<size_t>(predFill[e.j]++);
        predDst_[p] = e.i;
        predHard_[p] = e.hard;
        predPen_[p] = e.penalty;
        const auto s = static_cast<size_t>(succFill[e.i]++);
        succDst_[s] = e.j;
        succHard_[s] = e.hard;
        succPen_[s] = e.penalty;
    }

    // Longest-path rank from the artificial entry. Program order is a
    // topological order, and ranks over the chain subgraph equal ranks
    // over the reference graph: a transitively implied edge (i, k) is
    // covered by a chain i -> ... -> k of length >= 2, which already
    // forces order[k] >= order[i] + 2 > order[i] + 1.
    order_.assign(n, 0);
    for (size_t j = 0; j < n; ++j) {
        int32_t order = 0;
        for (int32_t p = predOff_[j]; p < predOff_[j + 1]; ++p)
            order = std::max(order, order_[predDst_[p]] + 1);
        order_[j] = order;
    }

    // Transitive predecessor counts via the same forward bitset sweep as
    // the reference; equal closures give equal counts.
    const size_t words = (n + 63) / 64;
    predCount_.assign(n, 0);
    std::vector<uint64_t> reach(n * words, 0);
    for (size_t j = 0; j < n; ++j) {
        uint64_t *mine = reach.data() + j * words;
        for (int32_t p = predOff_[j]; p < predOff_[j + 1]; ++p) {
            const auto other = static_cast<size_t>(predDst_[p]);
            const uint64_t *theirs = reach.data() + other * words;
            for (size_t w = 0; w < words; ++w)
                mine[w] |= theirs[w];
            mine[other / 64] |= uint64_t{1} << (other % 64);
        }
        int count = 0;
        for (size_t w = 0; w < words; ++w)
            count += std::popcount(mine[w]);
        predCount_[j] = count;
    }

    // Mutable scheduling state.
    removed_.assign(n, 0);
    remaining_ = n;
    liveSuccCount_.resize(n);
    freeWords_.assign(words == 0 ? 1 : words, 0);
    blockedEpoch_.assign(n, 0);
    epoch_ = 1;
    for (size_t i = 0; i < n; ++i) {
        liveSuccCount_[i] = succOff_[i + 1] - succOff_[i];
        if (liveSuccCount_[i] == 0)
            freeWords_[i / 64] |= uint64_t{1} << (i % 64);
    }

    dist_.assign(n, INT64_MIN);
    next_.assign(n, -1);
    dirtyWords_.assign(freeWords_.size(), 0);
    dirtyCount_ = 0;
    rebuildDistances();
}

FastIdg
FastIdg::hardened() const
{
    FastIdg out = *this;
    for (size_t e = 0; e < out.succHard_.size(); ++e) {
        if (!out.succHard_[e] && out.succPen_[e] > 0) {
            out.succHard_[e] = 1;
            out.succPen_[e] = 0;
        }
    }
    for (size_t e = 0; e < out.predHard_.size(); ++e) {
        if (!out.predHard_[e] && out.predPen_[e] > 0) {
            out.predHard_[e] = 1;
            out.predPen_[e] = 0;
        }
    }
    return out;
}

bool
FastIdg::hasPenalizedSoftEdge() const
{
    for (size_t e = 0; e < succHard_.size(); ++e)
        if (!succHard_[e] && succPen_[e] > 0)
            return true;
    return false;
}

void
FastIdg::markDirty(size_t p)
{
    uint64_t &word = dirtyWords_[p / 64];
    const uint64_t bit = uint64_t{1} << (p % 64);
    if ((word & bit) == 0) {
        word |= bit;
        ++dirtyCount_;
    }
}

void
FastIdg::remove(size_t i)
{
    GCD2_ASSERT(!removed_[i], "node " << i << " removed twice");
    removed_[i] = 1;
    --remaining_;
    freeWords_[i / 64] &= ~(uint64_t{1} << (i % 64));
    {
        uint64_t &word = dirtyWords_[i / 64];
        const uint64_t bit = uint64_t{1} << (i % 64);
        if ((word & bit) != 0) {
            word &= ~bit;
            --dirtyCount_;
        }
    }
    for (int32_t p = predOff_[i]; p < predOff_[i + 1]; ++p) {
        const auto pred = static_cast<size_t>(predDst_[p]);
        if (--liveSuccCount_[pred] == 0 && !removed_[pred])
            freeWords_[pred / 64] |= uint64_t{1} << (pred % 64);
        // Exit distances only change for predecessors whose cached best
        // successor just died: any other contribution was dominated and
        // can only shrink.
        if (!removed_[pred] && next_[pred] == static_cast<int32_t>(i))
            markDirty(pred);
    }
}

void
FastIdg::beginPacket()
{
    ++epoch_;
}

void
FastIdg::take(size_t i)
{
    remove(i);
    // Reference isFree: a hard successor inside the packet under
    // construction disqualifies the candidate, so hard predecessors of a
    // packet member are blocked for the rest of this packet.
    for (int32_t p = predOff_[i]; p < predOff_[i + 1]; ++p)
        if (predHard_[p])
            blockedEpoch_[static_cast<size_t>(predDst_[p])] = epoch_;
}

void
FastIdg::collectFree(std::vector<size_t> &out) const
{
    out.clear();
    for (size_t w = 0; w < freeWords_.size(); ++w) {
        for (uint64_t bits = freeWords_[w]; bits != 0; bits &= bits - 1) {
            const size_t i = w * 64 + std::countr_zero(bits);
            if (blockedEpoch_[i] != epoch_)
                out.push_back(i);
        }
    }
}

void
FastIdg::recomputeNode(size_t p)
{
    int64_t dist = pair_.latency(p);
    int32_t next = -1;
    for (int32_t s = succOff_[p]; s < succOff_[p + 1]; ++s) {
        const auto j = static_cast<size_t>(succDst_[s]);
        if (removed_[j])
            continue;
        if (pair_.latency(p) + dist_[j] > dist) {
            dist = pair_.latency(p) + dist_[j];
            next = succDst_[s];
        }
    }
    next_[p] = next;
    if (dist != dist_[p]) {
        dist_[p] = dist;
        for (int32_t q = predOff_[p]; q < predOff_[p + 1]; ++q) {
            const auto pred = static_cast<size_t>(predDst_[q]);
            if (!removed_[pred] && next_[pred] == static_cast<int32_t>(p))
                markDirty(pred);
        }
    }
}

void
FastIdg::rebuildDistances()
{
    for (size_t ri = n_; ri-- > 0;) {
        if (removed_[ri])
            continue;
        int64_t dist = pair_.latency(ri);
        int32_t next = -1;
        for (int32_t s = succOff_[ri]; s < succOff_[ri + 1]; ++s) {
            const auto j = static_cast<size_t>(succDst_[s]);
            if (removed_[j])
                continue;
            if (pair_.latency(ri) + dist_[j] > dist) {
                dist = pair_.latency(ri) + dist_[j];
                next = succDst_[s];
            }
        }
        dist_[ri] = dist;
        next_[ri] = next;
    }
    std::fill(dirtyWords_.begin(), dirtyWords_.end(), 0);
    dirtyCount_ = 0;
}

void
FastIdg::refreshDistances()
{
    if (dirtyCount_ == 0)
        return;
    if (dirtyCount_ * 4 > n_) {
        rebuildDistances();
        return;
    }
    // Repair the dirty frontier in reverse topological (descending id)
    // order: a recompute reads only successor distances (higher ids,
    // already clean) and may dirty only predecessors (lower ids), so one
    // high-to-low pass converges. Re-read each word after a recompute --
    // propagation can set lower bits inside the current word.
    for (size_t w = dirtyWords_.size(); w-- > 0;) {
        while (dirtyWords_[w] != 0) {
            const int bit = 63 - std::countl_zero(dirtyWords_[w]);
            dirtyWords_[w] &= ~(uint64_t{1} << bit);
            --dirtyCount_;
            const size_t p = w * 64 + static_cast<size_t>(bit);
            if (!removed_[p])
                recomputeNode(p);
        }
    }
}

int
FastIdg::bestSource() const
{
    int best = -1;
    for (size_t i = 0; i < n_; ++i) {
        if (removed_[i])
            continue;
        bool isSource = true;
        for (int32_t p = predOff_[i]; p < predOff_[i + 1] && isSource; ++p)
            isSource = removed_[static_cast<size_t>(predDst_[p])] != 0;
        if (!isSource)
            continue;
        if (best < 0 || dist_[i] > dist_[static_cast<size_t>(best)])
            best = static_cast<int>(i);
    }
    return best;
}

size_t
FastIdg::criticalSeed()
{
    GCD2_ASSERT(remaining_ > 0, "critical seed of an empty graph");
    refreshDistances();
    int cur = bestSource();
    GCD2_ASSERT(cur >= 0, "no remaining source");
    while (next_[static_cast<size_t>(cur)] >= 0)
        cur = next_[static_cast<size_t>(cur)];
    return static_cast<size_t>(cur);
}

std::vector<size_t>
FastIdg::criticalPath()
{
    refreshDistances();
    std::vector<size_t> path;
    for (int cur = bestSource(); cur >= 0;
         cur = next_[static_cast<size_t>(cur)])
        path.push_back(static_cast<size_t>(cur));
    return path;
}

bool
FastIdg::isFree(size_t i, const std::vector<size_t> &candidatePacket) const
{
    if (removed_[i])
        return false;
    for (int32_t s = succOff_[i]; s < succOff_[i + 1]; ++s) {
        const auto j = static_cast<size_t>(succDst_[s]);
        const bool inPacket =
            std::find(candidatePacket.begin(), candidatePacket.end(), j) !=
            candidatePacket.end();
        if (inPacket) {
            if (succHard_[s])
                return false;
        } else if (!removed_[j]) {
            return false;
        }
    }
    return true;
}

std::vector<IdgEdge>
FastIdg::succs(size_t i) const
{
    std::vector<IdgEdge> out;
    for (int32_t s = succOff_[i]; s < succOff_[i + 1]; ++s)
        out.push_back(IdgEdge{succDst_[s],
                              succHard_[s] ? DepKind::Hard : DepKind::Soft,
                              succPen_[s]});
    return out;
}

std::vector<IdgEdge>
FastIdg::preds(size_t i) const
{
    std::vector<IdgEdge> out;
    for (int32_t p = predOff_[i]; p < predOff_[i + 1]; ++p)
        out.push_back(IdgEdge{predDst_[p],
                              predHard_[p] ? DepKind::Hard : DepKind::Soft,
                              predPen_[p]});
    return out;
}

FastIdg::EdgeList
FastIdg::succList(size_t i) const
{
    const auto begin = static_cast<size_t>(succOff_[i]);
    return EdgeList{succDst_.data() + begin, succHard_.data() + begin,
                    succPen_.data() + begin,
                    static_cast<size_t>(succOff_[i + 1]) - begin};
}

FastIdg::EdgeList
FastIdg::predList(size_t i) const
{
    const auto begin = static_cast<size_t>(predOff_[i]);
    return EdgeList{predDst_.data() + begin, predHard_.data() + begin,
                    predPen_.data() + begin,
                    static_cast<size_t>(predOff_[i + 1]) - begin};
}

} // namespace gcd2::vliw
