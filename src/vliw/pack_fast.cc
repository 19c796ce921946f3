/**
 * @file
 * Scalable implementation of vliw::pack() on top of FastIdg.
 *
 * Every routine here is a bit-identical mirror of its counterpart in
 * packer.cc (the retained reference path, vliw::packReference): the same
 * candidate ensemble, the same Eq. 4 scoring expression evaluated in the
 * same floating-point order, the same tie-breaks, the same repair
 * trajectory. What changes is the machinery underneath:
 *
 *  - dependency queries go through FastIdg's chain-built CSR graph and
 *    mask-based pair classification instead of all-pairs
 *    classifyDependency calls (which allocate four uid vectors per pair);
 *  - packet construction uses the incremental free set and cached
 *    critical-path distances (no per-packet O(n^2) rescans);
 *  - cost evaluation (packetCost / pipelinedBlockCost mirrors) and slot
 *    checks run on fixed-size stack arrays, the slot checks on slot
 *    needs FastIdg precomputes per node (no opcode lookups);
 *  - the repair pass visits only a node's legal target packets, an
 *    interval computed once per visited node from its neighbors'
 *    packets, instead of slot-checking and dependence-checking every
 *    packet of the block;
 *  - the repair pass scores each trial move incrementally
 *    (detail::RepairScorer, pack_fast.h): it resumes the block-cost scan
 *    at the first changed packet from saved per-packet scan states, and
 *    stops as soon as the verdict is certain, with every accept/reject
 *    decision and every accepted cost equal to the full re-cost's;
 *  - two repairs of the candidate ensemble that must return the same
 *    schedule (equal start, same graph, same AsNone flag -- the only
 *    thing the cost reads of a belief) run once.
 *
 * Complexity per block of n instructions in P packets: graph
 * construction is near-linear (fast_idg.h); Algorithm 1 scores each free
 * instruction per filled slot; the repair pass does up to six rounds of
 * one O(L) scan per node (L = legal interval length), and each legal,
 * slot-feasible move costs two packet summaries (O(1), at most four
 * members) plus a scan over the packets from the first changed one until
 * the verdict is certain -- usually a few packets, O(P) at worst, with
 * register comparisons limited to the registers the block touches. An
 * accepted move re-derives the saved states behind its first changed
 * packet, O(P * registers).
 *
 * Intra-packet stall charging deliberately does NOT consult the FastIdg
 * edge set: a transitively implied scalar-RAW pair (a writes r, b
 * rewrites r, c reads r) has no chain edge (a, c) yet still stalls when a
 * and c share a packet without b. copackDelay() classifies the pair
 * directly from the register masks, exactly like the reference's
 * classifyDependency calls.
 *
 * Differential fuzz across all five policies
 * (tests/vliw/pack_differential_test.cc) enforces pack() ==
 * packReference() on the full PackedProgram.
 */
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "vliw/pack_fast.h"

namespace gcd2::vliw {

namespace {

using dsp::Packet;
using detail::kSlots;
using detail::NodeSchedule;

/** Map packet-local node ids to sorted program instruction indices. */
std::vector<size_t>
toInstIndices(const FastIdg &idg, const std::vector<size_t> &nodes)
{
    std::vector<size_t> insts;
    insts.reserve(nodes.size());
    for (size_t n : nodes)
        insts.push_back(idg.instIndex(n));
    std::sort(insts.begin(), insts.end());
    return insts;
}

/**
 * TimingSimulator::packetCost on ascending node ids (ascending node id ==
 * ascending instruction index within one block, so the delay recurrence
 * visits pairs in the same order as the reference).
 */
uint64_t
packetCostNodes(const FastIdg &idg, const size_t *nodes, size_t count)
{
    std::array<int, kSlots> delay{};
    uint64_t cost = 0;
    for (size_t k = 0; k < count; ++k) {
        delay[k] = 0;
        for (size_t m = 0; m < k; ++m) {
            const int pen = idg.copackDelay(nodes[m], nodes[k]);
            if (pen > 0)
                delay[k] = std::max(delay[k], delay[m] + pen);
        }
        cost = std::max(
            cost, static_cast<uint64_t>(delay[k] + idg.latency(nodes[k])));
    }
    return cost;
}

/**
 * dsp::slotsFeasible on packet-local @p nodes plus @p extra, from the
 * graph's per-node slot needs (no Packet is built, no opcode lookup).
 */
bool
slotsFeasibleNodes(const FastIdg &idg, const size_t *nodes, size_t count,
                   size_t extra)
{
    if (count >= kSlots)
        return false;
    std::array<dsp::SlotNeed, kSlots> needs{};
    for (size_t k = 0; k < count; ++k)
        needs[k] = idg.slotNeed(nodes[k]);
    needs[count] = idg.slotNeed(extra);
    return dsp::slotsFeasible({needs.data(), count + 1});
}

/** selectInstruction mirror (Algorithm 1, select_instruction). */
int
selectInstructionFast(const FastIdg &idg,
                      const std::vector<size_t> &freeInsts,
                      const size_t *curSorted, size_t curCount,
                      const PackOptions &opts)
{
    int hiLat = 0;
    for (size_t k = 0; k < curCount; ++k)
        hiLat = std::max(hiLat, idg.latency(curSorted[k]));

    const uint64_t costWithout = packetCostNodes(idg, curSorted, curCount);

    int best = -1;
    double bestScore = 0.0;
    bool bestStalls = false;
    int stallingCandidates = 0;
    std::array<size_t, kSlots> with{};
    for (size_t i : freeInsts) {
        if (!slotsFeasibleNodes(idg, curSorted, curCount, i))
            continue;

        // Eq. 4, in the reference's exact floating-point order.
        double score =
            (idg.order(i) + idg.predCount(i)) * opts.w -
            std::abs(hiLat - idg.latency(i)) * (1.0 - opts.w);

        // Merge candidate i into the sorted members.
        size_t w = 0;
        while (w < curCount && curSorted[w] < i) {
            with[w] = curSorted[w];
            ++w;
        }
        with[w] = i;
        for (size_t k = w; k < curCount; ++k)
            with[k + 1] = curSorted[k];

        const uint64_t costWith =
            packetCostNodes(idg, with.data(), curCount + 1);
        const uint64_t baseline = std::max(
            costWithout, static_cast<uint64_t>(idg.latency(i)));
        const bool stalls = costWith > baseline;
        if (stalls) {
            ++stallingCandidates;
            if (opts.policy != PackPolicy::SoftToNone) {
                score -= static_cast<double>(costWith - baseline) *
                         opts.penaltyScale;
            }
        }

        if (best < 0 || score >= bestScore) {
            best = static_cast<int>(i);
            bestScore = score;
            bestStalls = stalls;
        }
    }

    if (opts.policy != PackPolicy::SoftToNone && bestStalls &&
        stallingCandidates >= 2) {
        return -1;
    }
    return best;
}

} // namespace

namespace detail {

NodeSchedule
buildSdaFast(FastIdg idg, const PackOptions &opts)
{
    NodeSchedule stack;
    std::vector<size_t> freeInsts;
    while (idg.remainingCount() > 0) {
        const size_t seed = idg.criticalSeed();

        std::vector<size_t> cur{seed};
        std::array<size_t, kSlots> sorted{};
        sorted[0] = seed;
        idg.beginPacket();
        idg.take(seed);
        while (cur.size() < kSlots) {
            idg.collectFree(freeInsts);
            const int inst = selectInstructionFast(
                idg, freeInsts, sorted.data(), cur.size(), opts);
            if (inst < 0)
                break;
            const auto node = static_cast<size_t>(inst);
            size_t w = cur.size();
            while (w > 0 && sorted[w - 1] > node) {
                sorted[w] = sorted[w - 1];
                --w;
            }
            sorted[w] = node;
            cur.push_back(node);
            idg.take(node);
        }
        stack.push_back(std::move(cur));
    }
    return {stack.rbegin(), stack.rend()};
}

uint64_t
blockCostFast(const FastIdg &idg, const NodeSchedule &packets,
              SoftDepPolicy belief)
{
    const bool ignoreSoft = belief == SoftDepPolicy::AsNone;
    std::array<uint64_t, dsp::kNumRegUids> ready{};
    uint64_t issue = 0;
    uint64_t completion = 0;
    bool first = true;

    std::array<size_t, kSlots> sorted{};
    std::array<int, kSlots> delay{};
    for (size_t p = 0; p < packets.size(); ++p) {
        const auto &nodes = packets[p];
        const size_t count = nodes.size();
        GCD2_ASSERT(count <= kSlots, "oversized packet in block cost");
        for (size_t k = 0; k < count; ++k) {
            size_t w = k;
            while (w > 0 && sorted[w - 1] > nodes[k]) {
                sorted[w] = sorted[w - 1];
                --w;
            }
            sorted[w] = nodes[k];
        }

        uint64_t minIssue = first ? 0 : issue + 1;
        for (size_t k = 0; k < count; ++k) {
            delay[k] = 0;
            if (!ignoreSoft) {
                for (size_t m = 0; m < k; ++m) {
                    const int pen = idg.copackDelay(sorted[m], sorted[k]);
                    if (pen > 0)
                        delay[k] = std::max(delay[k], delay[m] + pen);
                }
            }
            for (uint64_t bits = idg.readMask(sorted[k]); bits != 0;
                 bits &= bits - 1) {
                minIssue = std::max(
                    minIssue,
                    ready[static_cast<size_t>(std::countr_zero(bits))]);
            }
        }
        issue = minIssue;
        first = false;
        for (size_t k = 0; k < count; ++k) {
            const uint64_t done =
                issue + static_cast<uint64_t>(delay[k]) +
                static_cast<uint64_t>(idg.latency(sorted[k]));
            completion = std::max(completion, done);
            for (uint64_t bits = idg.writeMask(sorted[k]); bits != 0;
                 bits &= bits - 1) {
                const auto uid =
                    static_cast<size_t>(std::countr_zero(bits));
                ready[uid] = (ignoreSoft && uid < static_cast<size_t>(
                                                      dsp::kNumScalarRegs))
                                 ? issue + 1
                                 : done;
            }
        }
    }
    return completion;
}

RepairScorer::RepairScorer(const FastIdg &idg, SoftDepPolicy belief)
    : idg_(idg), ignoreSoft_(belief == SoftDepPolicy::AsNone)
{
    uint64_t touched = 0;
    for (size_t i = 0; i < idg.size(); ++i)
        touched |= idg.readMask(i) | idg.writeMask(i);
    regs_ = static_cast<size_t>(std::popcount(touched));
    // Renumber the touched uids densely, in uid order.
    auto compact = [touched](uint64_t mask) {
        uint64_t out = 0;
        for (; mask != 0; mask &= mask - 1) {
            const uint64_t below = (mask & (0 - mask)) - 1;
            out |= uint64_t{1} << std::popcount(touched & below);
        }
        return out;
    };
    reads_.reserve(idg.size());
    writes_.reserve(idg.size());
    for (size_t i = 0; i < idg.size(); ++i) {
        reads_.push_back(compact(idg.readMask(i)));
        writes_.push_back(compact(idg.writeMask(i)));
    }
    if (ignoreSoft_)
        forwarded_ = compact(touched & FastIdg::kScalarUidMask);
}

RepairScorer::Summary
RepairScorer::summarize(const size_t *nodes, size_t count) const
{
    GCD2_ASSERT(count <= kSlots, "oversized packet in block cost");
    std::array<size_t, kSlots> sorted{};
    for (size_t k = 0; k < count; ++k) {
        size_t w = k;
        while (w > 0 && sorted[w - 1] > nodes[k]) {
            sorted[w] = sorted[w - 1];
            --w;
        }
        sorted[w] = nodes[k];
    }

    // The blockCostFast packet body, with the issue cycle factored out.
    Summary s;
    s.count = count;
    std::array<int, kSlots> delay{};
    for (size_t k = 0; k < count; ++k) {
        if (!ignoreSoft_) {
            for (size_t m = 0; m < k; ++m) {
                const int pen = idg_.copackDelay(sorted[m], sorted[k]);
                if (pen > 0)
                    delay[k] = std::max(delay[k], delay[m] + pen);
            }
        }
        s.reads |= reads_[sorted[k]];
        s.writes[k] = writes_[sorted[k]];
        s.writeAll |= s.writes[k];
        s.done[k] = delay[k] + idg_.latency(sorted[k]);
        s.maxDone = std::max(s.maxDone, s.done[k]);
    }
    return s;
}

void
RepairScorer::step(const Summary &s, int64_t &issue, int64_t &completion,
                   int64_t *ready) const
{
    // issue starts at -1, so the first packet issues at cycle 0.
    int64_t at = issue + 1;
    for (uint64_t bits = s.reads; bits != 0; bits &= bits - 1)
        at = std::max(at, ready[std::countr_zero(bits)]);
    issue = at;
    if (s.count == 0)
        return;
    completion = std::max(completion, at + s.maxDone);
    for (size_t k = 0; k < s.count; ++k) {
        for (uint64_t bits = s.writes[k]; bits != 0; bits &= bits - 1) {
            const int uid = std::countr_zero(bits);
            ready[uid] = ((forwarded_ >> uid) & 1) != 0 ? at + 1
                                                        : at + s.done[k];
        }
    }
}

void
RepairScorer::reset(const NodeSchedule &packets)
{
    summaries_.clear();
    for (const std::vector<size_t> &packet : packets)
        summaries_.push_back(summarize(packet.data(), packet.size()));
    rescan(0);
}

void
RepairScorer::acceptLastMove()
{
    GCD2_ASSERT(trialP_ != kNone, "no trial move to accept");
    const size_t p = trialP_;
    size_t q = trialQ_;
    if (trialErased_) {
        summaries_.erase(summaries_.begin() + static_cast<long>(p));
        q -= q > p ? 1 : 0;
    } else {
        summaries_[p] = outOfP_;
    }
    summaries_[q] = intoQ_;
    rescan(std::min(p, q));
}

void
RepairScorer::rescan(size_t from)
{
    const size_t count = summaries_.size();
    issue_.resize(count + 1);
    completion_.resize(count + 1);
    ready_.resize((count + 1) * regs_);
    if (from == 0) {
        issue_[0] = -1;
        completion_[0] = 0;
        std::fill_n(ready_.begin(), regs_, 0);
    }
    for (size_t j = from; j < count; ++j) {
        int64_t issue = issue_[j];
        int64_t completion = completion_[j];
        int64_t *row = ready_.data() + (j + 1) * regs_;
        std::copy_n(row - regs_, regs_, row);
        step(summaries_[j], issue, completion, row);
        issue_[j + 1] = issue;
        completion_[j + 1] = completion;
    }

    // Below any reachable completion, so "+ shift" past the end is inert.
    sufDone_.assign(count + 1, INT64_MIN / 2);
    for (size_t j = count; j-- > 0;) {
        sufDone_[j] = sufDone_[j + 1];
        if (summaries_[j].count != 0)
            sufDone_[j] = std::max(sufDone_[j],
                                   issue_[j + 1] + summaries_[j].maxDone);
    }
    cost_ = static_cast<uint64_t>(completion_[count]);
    trialP_ = kNone;
    cachedP_ = kNone;
}

std::optional<uint64_t>
RepairScorer::tryMove(const NodeSchedule &packets, size_t p, size_t slot,
                      size_t q)
{
    const size_t count = packets.size();
    const std::vector<size_t> &from = packets[p];
    const std::vector<size_t> &into = packets[q];
    const bool erased = from.size() == 1;

    // Packet p without the node is the same for every target q the
    // repair pass tries for it.
    std::array<size_t, kSlots> nodes{};
    if (!erased && (cachedP_ != p || cachedSlot_ != slot)) {
        size_t kept = 0;
        for (size_t k = 0; k < from.size(); ++k)
            if (k != slot)
                nodes[kept++] = from[k];
        outOfP_ = summarize(nodes.data(), kept);
        cachedP_ = p;
        cachedSlot_ = slot;
    }
    std::copy(into.begin(), into.end(), nodes.begin());
    nodes[into.size()] = from[slot];
    intoQ_ = summarize(nodes.data(), into.size() + 1);
    trialP_ = p;
    trialQ_ = q;
    trialErased_ = erased;

    // The repair rule accepts cost < cost_, or cost <= cost_ when the move
    // erases a packet: every trial completion >= limit is a reject.
    const int64_t limit = static_cast<int64_t>(cost_) + (erased ? 1 : 0);
    auto verdict = [limit](int64_t cost) -> std::optional<uint64_t> {
        if (cost < limit)
            return static_cast<uint64_t>(cost);
        return std::nullopt;
    };

    const size_t first = std::min(p, q);
    const size_t last = std::max(p, q);
    int64_t issue = issue_[first];
    int64_t completion = completion_[first];
    std::array<int64_t, dsp::kNumRegUids> ready{};
    std::copy_n(ready_.begin() + static_cast<ptrdiff_t>(first * regs_),
                regs_, ready.begin());
    for (size_t j = first; j < count; ++j) {
        const Summary &adopted = summaries_[j];
        const Summary *trial = j == q   ? &intoQ_
                               : j != p ? &adopted
                               : erased ? nullptr
                                        : &outOfP_;
        if (trial != nullptr)
            step(*trial, issue, completion, ready.data());
        if (completion >= limit)
            return std::nullopt;

        if (j < last)
            continue;

        // Past the changed packets: equal relative states mean the rest
        // of the scan is the adopted one shifted; a pointwise larger
        // state (non-erasing trials) cannot end below the adopted cost.
        // A ready time at or below issue + 1 no longer delays anything.
        const int64_t baseIssue = issue_[j + 1];
        const int64_t *base = ready_.data() + (j + 1) * regs_;
        bool same = true;
        bool dominates = !erased && issue >= baseIssue &&
                         completion >= completion_[j + 1];
        for (size_t u = 0; u < regs_ && (same || dominates); ++u) {
            const int64_t mine = std::max(ready[u], issue + 1);
            const int64_t theirs = std::max(base[u], baseIssue + 1);
            same = same && mine - issue == theirs - baseIssue;
            dominates = dominates && mine >= theirs;
        }
        if (dominates)
            return std::nullopt;
        if (same) {
            return verdict(std::max(
                completion, sufDone_[j + 1] + (issue - baseIssue)));
        }
    }
    return verdict(completion);
}

NodeSchedule
listScheduleFast(const FastIdg &idg)
{
    const size_t n = idg.size();

    std::vector<int64_t> height(n, 0);
    for (size_t ri = n; ri-- > 0;) {
        height[ri] = idg.latency(ri);
        const FastIdg::EdgeList succs = idg.succList(ri);
        for (size_t e = 0; e < succs.count; ++e) {
            height[ri] = std::max(
                height[ri],
                idg.latency(ri) +
                    height[static_cast<size_t>(succs.dst[e])]);
        }
    }

    std::vector<int32_t> predRemaining(n);
    for (size_t i = 0; i < n; ++i)
        predRemaining[i] = static_cast<int32_t>(idg.predList(i).count);

    std::vector<bool> done(n, false);
    NodeSchedule packets;
    std::vector<size_t> ready;
    size_t scheduled = 0;
    while (scheduled < n) {
        ready.clear();
        for (size_t i = 0; i < n; ++i)
            if (!done[i] && predRemaining[i] == 0)
                ready.push_back(i);
        GCD2_ASSERT(!ready.empty(), "list scheduler deadlock");
        std::sort(ready.begin(), ready.end(), [&](size_t a, size_t b) {
            return height[a] != height[b] ? height[a] > height[b] : a < b;
        });

        std::vector<size_t> cur;
        for (size_t i : ready) {
            if (cur.size() == kSlots)
                break;
            if (slotsFeasibleNodes(idg, cur.data(), cur.size(), i))
                cur.push_back(i);
        }
        for (size_t i : cur) {
            done[i] = true;
            const FastIdg::EdgeList succs = idg.succList(i);
            for (size_t e = 0; e < succs.count; ++e)
                --predRemaining[static_cast<size_t>(succs.dst[e])];
        }
        scheduled += cur.size();
        packets.push_back(std::move(cur));
    }
    return packets;
}

} // namespace detail

namespace {

using detail::RepairScorer;

/**
 * improveBlockSchedule mirror (same move order, same accept rule).
 *
 * The reference tries every other packet q in ascending order and skips
 * a target that is full, slot-infeasible, or dependence-illegal. All
 * three tests are pure while the schedule is unchanged, so only the
 * legal targets need visiting. Those form an interval: producers must
 * sit in an earlier packet (or in q, through a soft edge) and consumers
 * in a later one (or in q, through a soft edge). Scanning [lo, hi] in
 * ascending order meets the same first accepted move. Each move is
 * scored by RepairScorer, whose verdict is the reference's accept rule
 * on the full re-cost.
 */
uint64_t
improveFast(const FastIdg &idg, NodeSchedule &packets, SoftDepPolicy belief)
{
    const size_t n = idg.size();

    std::vector<size_t> packetOf(n, 0);
    auto rebuildIndex = [&]() {
        for (size_t p = 0; p < packets.size(); ++p)
            for (size_t node : packets[p])
                packetOf[node] = p;
    };
    rebuildIndex();

    RepairScorer scorer(idg, belief);
    scorer.reset(packets);
    bool changed = true;
    for (int round = 0; round < 6 && changed; ++round) {
        changed = false;
        for (size_t p = 0; p < packets.size(); ++p) {
            for (ptrdiff_t slot = 0;
                 slot < static_cast<ptrdiff_t>(packets[p].size());
                 ++slot) {
                const size_t node =
                    packets[p][static_cast<size_t>(slot)];

                ptrdiff_t lo = 0;
                ptrdiff_t hi = static_cast<ptrdiff_t>(packets.size()) - 1;
                const FastIdg::EdgeList preds = idg.predList(node);
                for (size_t e = 0; e < preds.count; ++e) {
                    const auto at = static_cast<ptrdiff_t>(
                        packetOf[static_cast<size_t>(preds.dst[e])]);
                    lo = std::max(lo, at + (preds.hard[e] ? 1 : 0));
                }
                const FastIdg::EdgeList succs = idg.succList(node);
                for (size_t e = 0; e < succs.count; ++e) {
                    const auto at = static_cast<ptrdiff_t>(
                        packetOf[static_cast<size_t>(succs.dst[e])]);
                    hi = std::min(hi, at - (succs.hard[e] ? 1 : 0));
                }

                for (ptrdiff_t t = lo; t <= hi; ++t) {
                    const auto q = static_cast<size_t>(t);
                    if (q == p ||
                        !slotsFeasibleNodes(idg, packets[q].data(),
                                            packets[q].size(), node))
                        continue;
                    const std::optional<uint64_t> cost = scorer.tryMove(
                        packets, p, static_cast<size_t>(slot), q);
                    if (!cost)
                        continue;
                    const bool erased = packets[p].size() == 1;
                    packets[q].push_back(node);
                    packets[p].erase(packets[p].begin() + slot);
                    packetOf[node] = q;
                    if (erased) {
                        packets.erase(packets.begin() +
                                      static_cast<long>(p));
                        rebuildIndex();
                    }
                    scorer.acceptLastMove();
                    GCD2_ASSERT(scorer.cost() == *cost,
                                "repair trial cost " << *cost
                                    << " != re-scan " << scorer.cost());
                    changed = true;
                    --slot;
                    break;
                }
                if (packets.size() <= p ||
                    static_cast<ptrdiff_t>(packets[p].size()) <= slot)
                    break; // structure changed under us
            }
        }
    }
    return scorer.cost();
}

/** packBlockSda mirror: Algorithm 1 + candidate ensemble + repair. */
std::vector<Packet>
packBlockSdaFast(const dsp::Program &prog, const BasicBlock &block,
                 const dsp::AliasAnalysis &alias, const PackOptions &opts)
{
    const SoftDepPolicy graphPolicy = opts.policy == PackPolicy::SoftToHard
                                          ? SoftDepPolicy::AsHard
                                          : SoftDepPolicy::Aware;
    // One chain construction per block; every consumed candidate build
    // takes a by-value copy, and the AsHard ensemble view is a cheap
    // kind-only transform of the same graph.
    FastIdg idg(prog, block, alias, graphPolicy);

    const SoftDepPolicy belief = opts.policy == PackPolicy::SoftToNone
                                     ? SoftDepPolicy::AsNone
                                     : opts.policy == PackPolicy::SoftToHard
                                           ? SoftDepPolicy::AsHard
                                           : SoftDepPolicy::Aware;

    // Start schedules, then the repairs of the ensemble as (start, graph,
    // belief). A repair reads its belief only through "is it AsNone"
    // (blockCostFast), so two repairs of equal start schedules on one
    // graph with the same AsNone flag return the same schedule: the later
    // one copies the earlier instead of running again.
    struct Repair
    {
        size_t start;
        const FastIdg *graph;
        SoftDepPolicy belief;
    };
    std::vector<NodeSchedule> starts;
    starts.push_back(detail::buildSdaFast(idg, opts));
    starts.push_back(detail::listScheduleFast(idg));
    std::vector<Repair> repairs{{0, &idg, belief}, {1, &idg, belief}};
    std::optional<FastIdg> idgHard;
    if (opts.policy == PackPolicy::Sda) {
        PackOptions blind = opts;
        blind.policy = PackPolicy::SoftToNone;
        PackOptions conservative = opts;
        conservative.policy = PackPolicy::SoftToHard;
        // The conservative construction and the hard repairs run on the
        // AsHard graph, exactly like the reference's fresh
        // Idg(..., AsHard). When hardening upgrades no edge, that graph
        // is idg itself.
        if (idg.hasPenalizedSoftEdge())
            idgHard.emplace(idg.hardened());
        const FastIdg *hard = idgHard ? &*idgHard : &idg;
        starts.push_back(detail::buildSdaFast(idg, blind));
        starts.push_back(detail::buildSdaFast(*hard, conservative));
        repairs.push_back({2, &idg, SoftDepPolicy::AsNone});
        repairs.push_back({1, &idg, SoftDepPolicy::AsNone});
        repairs.push_back({3, &idg, SoftDepPolicy::Aware});
        repairs.push_back({3, hard, SoftDepPolicy::AsHard});
        repairs.push_back({1, hard, SoftDepPolicy::AsHard});
    }

    // A repair's final cost is the selection's cost whenever its AsNone
    // flag matches the belief (the cost reads no graph edges).
    const bool believesNone = belief == SoftDepPolicy::AsNone;
    std::vector<NodeSchedule> candidates(repairs.size());
    std::vector<uint64_t> costs(repairs.size());
    for (size_t c = 0; c < repairs.size(); ++c) {
        const Repair &r = repairs[c];
        const bool none = r.belief == SoftDepPolicy::AsNone;
        const auto twin = std::find_if(
            repairs.begin(), repairs.begin() + static_cast<long>(c),
            [&](const Repair &o) {
                return o.graph == r.graph &&
                       (o.belief == SoftDepPolicy::AsNone) == none &&
                       (o.start == r.start ||
                        starts[o.start] == starts[r.start]);
            });
        if (twin != repairs.begin() + static_cast<long>(c)) {
            const auto t = static_cast<size_t>(twin - repairs.begin());
            candidates[c] = candidates[t];
            costs[c] = costs[t];
            continue;
        }
        candidates[c] = starts[r.start];
        const uint64_t repaired =
            improveFast(*r.graph, candidates[c], r.belief);
        costs[c] = none == believesNone
                       ? repaired
                       : detail::blockCostFast(idg, candidates[c], belief);
    }

    size_t bestIdx = 0;
    uint64_t bestCost = UINT64_MAX;
    for (size_t c = 0; c < candidates.size(); ++c) {
        if (costs[c] < bestCost) {
            bestCost = costs[c];
            bestIdx = c;
        }
    }
    const auto &ordered = candidates[bestIdx];

    std::vector<Packet> packets;
    packets.reserve(ordered.size());
    for (const auto &nodes : ordered)
        packets.push_back(Packet{toInstIndices(idg, nodes)});
    return packets;
}

/** baselineCoPackLegal mirror (AsHard graph: surviving soft edges are the
 *  free ordering/WAR ones). */
bool
coPackLegalFast(const FastIdg &idg, size_t m, size_t i)
{
    const size_t lo = std::min(m, i);
    const size_t hi = std::max(m, i);
    const FastIdg::EdgeList succs = idg.succList(lo);
    for (size_t e = 0; e < succs.count; ++e) {
        if (static_cast<size_t>(succs.dst[e]) != hi)
            continue;
        if (succs.hard[e] || succs.penalty[e] > 0)
            return false;
    }
    return true;
}

/** packBlockInOrder mirror. */
std::vector<Packet>
packBlockInOrderFast(const dsp::Program &prog, const BasicBlock &block,
                     const dsp::AliasAnalysis &alias)
{
    FastIdg idg(prog, block, alias, SoftDepPolicy::AsHard);

    std::vector<Packet> packets;
    std::vector<size_t> cur;
    auto flush = [&]() {
        if (!cur.empty()) {
            packets.push_back(Packet{toInstIndices(idg, cur)});
            cur.clear();
        }
    };

    for (size_t i = 0; i < idg.size(); ++i) {
        bool fits = cur.size() < kSlots;
        for (size_t m : cur)
            fits = fits && coPackLegalFast(idg, m, i);
        fits = fits &&
               slotsFeasibleNodes(idg, cur.data(), cur.size(), i);
        if (!fits)
            flush();
        cur.push_back(i);
    }
    flush();
    return packets;
}

/** packBlockListSched mirror. */
std::vector<Packet>
packBlockListSchedFast(const dsp::Program &prog, const BasicBlock &block,
                       const dsp::AliasAnalysis &alias)
{
    FastIdg idg(prog, block, alias, SoftDepPolicy::AsHard);
    std::vector<Packet> packets;
    for (const auto &nodes : detail::listScheduleFast(idg))
        packets.push_back(Packet{toInstIndices(idg, nodes)});
    return packets;
}

} // namespace

namespace detail {

std::vector<Packet>
packBlock(const dsp::Program &prog, const BasicBlock &block,
          const dsp::AliasAnalysis &alias, const PackOptions &opts)
{
    switch (opts.policy) {
      case PackPolicy::Sda:
      case PackPolicy::SoftToHard:
      case PackPolicy::SoftToNone:
        return packBlockSdaFast(prog, block, alias, opts);
      case PackPolicy::InOrder:
        return packBlockInOrderFast(prog, block, alias);
      case PackPolicy::ListSched:
        return packBlockListSchedFast(prog, block, alias);
    }
    GCD2_PANIC("unknown pack policy " << static_cast<int>(opts.policy));
}

dsp::PackedProgram
packBlocks(const dsp::Program &prog, const BlockPacker &packOne)
{
    dsp::PackedProgram packed;
    packed.program = prog;

    const dsp::AliasAnalysis alias(prog);
    const Cfg cfg = buildCfg(prog);

    std::vector<size_t> blockStartPacket;
    blockStartPacket.reserve(cfg.blocks.size());

    for (const BasicBlock &block : cfg.blocks) {
        blockStartPacket.push_back(packed.packets.size());
        for (Packet &packet : packOne(block, alias))
            packed.packets.push_back(std::move(packet));
    }

    packed.labelPacket.resize(prog.labels.size());
    for (size_t l = 0; l < prog.labels.size(); ++l) {
        const size_t target = prog.labels[l];
        if (target == prog.code.size()) {
            packed.labelPacket[l] = packed.packets.size();
            continue;
        }
        bool found = false;
        for (size_t b = 0; b < cfg.blocks.size(); ++b) {
            if (cfg.blocks[b].begin == target) {
                packed.labelPacket[l] = blockStartPacket[b];
                found = true;
                break;
            }
        }
        GCD2_ASSERT(found, "label " << l << " is not a block leader");
    }
    return packed;
}

} // namespace detail

dsp::PackedProgram
pack(const dsp::Program &prog, const PackOptions &opts)
{
    return detail::packBlocks(
        prog, [&](const BasicBlock &block, const dsp::AliasAnalysis &alias) {
            return detail::packBlock(prog, block, alias, opts);
        });
}

} // namespace gcd2::vliw
