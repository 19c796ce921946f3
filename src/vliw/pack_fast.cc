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
 *    checks run on fixed-size stack arrays, and the repair pass models
 *    the "erase-empty-packet" trial with a skip index instead of copying
 *    the whole schedule per candidate move;
 *  - the repair pass visits only a node's legal target packets, an
 *    interval computed once per visited node from its neighbors'
 *    packets, instead of slot-checking and dependence-checking every
 *    packet of the block.
 *
 * Complexity per block of n instructions: graph construction is
 * near-linear (fast_idg.h); Algorithm 1 scores each free instruction per
 * filled slot; the repair pass does up to six rounds of one O(L) scan
 * per node (L = legal interval length) plus an O(n) block re-cost per
 * legal, slot-feasible move. On the zoo's blocks the repair pass is still
 * most of pack()'s time.
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

#include "common/logging.h"
#include "vliw/fast_idg.h"
#include "vliw/packer.h"

namespace gcd2::vliw {

namespace {

using dsp::Packet;

constexpr size_t kSlots = static_cast<size_t>(dsp::kPacketSlots);
constexpr size_t kNoSkip = static_cast<size_t>(-1);

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
 * dsp::slotsFeasible on packet-local @p nodes plus @p extra, mapped to
 * instruction indices on the stack (no Packet is built).
 */
bool
slotsFeasibleNodes(const dsp::Program &prog, const FastIdg &idg,
                   const size_t *nodes, size_t count, size_t extra)
{
    if (count >= kSlots)
        return false;
    std::array<size_t, kSlots> insts{};
    for (size_t k = 0; k < count; ++k)
        insts[k] = idg.instIndex(nodes[k]);
    insts[count] = idg.instIndex(extra);
    return dsp::slotsFeasible(prog, {insts.data(), count + 1});
}

/** selectInstruction mirror (Algorithm 1, select_instruction). */
int
selectInstructionFast(const dsp::Program &prog, const FastIdg &idg,
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
        if (!slotsFeasibleNodes(prog, idg, curSorted, curCount, i))
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

/** buildSdaSchedule mirror; consumes its (by-value) graph copy. */
std::vector<std::vector<size_t>>
buildSdaFast(const dsp::Program &prog, FastIdg idg, const PackOptions &opts)
{
    std::vector<std::vector<size_t>> stack;
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
                prog, idg, freeInsts, sorted.data(), cur.size(), opts);
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

/**
 * pipelinedBlockCost mirror. @p skipPacket models the reference repair
 * pass's "erase the emptied packet" trial without copying the schedule
 * (an erased empty packet contributes nothing -- not even the issue-slot
 * advance a kept empty packet pays).
 */
uint64_t
blockCostFast(const FastIdg &idg,
              const std::vector<std::vector<size_t>> &packets,
              SoftDepPolicy belief, size_t skipPacket)
{
    const bool ignoreSoft = belief == SoftDepPolicy::AsNone;
    std::array<uint64_t, dsp::kNumRegUids> ready{};
    uint64_t issue = 0;
    uint64_t completion = 0;
    bool first = true;

    std::array<size_t, kSlots> sorted{};
    std::array<int, kSlots> delay{};
    for (size_t p = 0; p < packets.size(); ++p) {
        if (p == skipPacket)
            continue;
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

/**
 * improveBlockSchedule mirror (same move order, same accept rule).
 *
 * The reference tries every other packet q in ascending order and skips
 * a target that is full, slot-infeasible, or dependence-illegal. All
 * three tests are pure while the schedule is unchanged, so only the
 * legal targets need visiting. Those form an interval: producers must
 * sit in an earlier packet (or in q, through a soft edge) and consumers
 * in a later one (or in q, through a soft edge). Scanning [lo, hi] in
 * ascending order meets the same first accepted move.
 */
void
improveFast(const dsp::Program &prog, const FastIdg &idg,
            std::vector<std::vector<size_t>> &packets, SoftDepPolicy belief)
{
    const size_t n = idg.size();

    std::vector<size_t> packetOf(n, 0);
    auto rebuildIndex = [&]() {
        for (size_t p = 0; p < packets.size(); ++p)
            for (size_t node : packets[p])
                packetOf[node] = p;
    };
    rebuildIndex();

    uint64_t bestCost = blockCostFast(idg, packets, belief, kNoSkip);
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
                        !slotsFeasibleNodes(prog, idg, packets[q].data(),
                                            packets[q].size(), node))
                        continue;
                    packets[q].push_back(node);
                    packets[p].erase(packets[p].begin() + slot);
                    const bool erased = packets[p].empty();
                    const uint64_t cost = blockCostFast(
                        idg, packets, belief, erased ? p : kNoSkip);
                    if (cost < bestCost ||
                        (erased && cost <= bestCost)) {
                        bestCost = cost;
                        packetOf[node] = q;
                        if (erased) {
                            packets.erase(packets.begin() +
                                          static_cast<long>(p));
                            rebuildIndex();
                        }
                        changed = true;
                        --slot;
                        break;
                    }
                    packets[q].pop_back();
                    packets[p].insert(packets[p].begin() + slot, node);
                }
                if (packets.size() <= p ||
                    static_cast<ptrdiff_t>(packets[p].size()) <= slot)
                    break; // structure changed under us
            }
        }
    }
}

/** listScheduleNodes mirror with incremental remaining-pred counts. */
std::vector<std::vector<size_t>>
listScheduleFast(const dsp::Program &prog, const FastIdg &idg)
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
    std::vector<std::vector<size_t>> packets;
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
            if (slotsFeasibleNodes(prog, idg, cur.data(), cur.size(), i))
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

    std::vector<std::vector<std::vector<size_t>>> candidates;
    candidates.push_back(buildSdaFast(prog, idg, opts));
    candidates.push_back(listScheduleFast(prog, idg));
    const size_t believedCount = candidates.size();
    if (opts.policy == PackPolicy::Sda) {
        PackOptions blind = opts;
        blind.policy = PackPolicy::SoftToNone;
        PackOptions conservative = opts;
        conservative.policy = PackPolicy::SoftToHard;
        // The conservative construction runs on the AsHard graph, exactly
        // like the reference's fresh Idg(..., AsHard).
        const FastIdg idgHard = idg.hardened();
        candidates.push_back(buildSdaFast(prog, idg, blind));
        candidates.push_back(candidates[1]);
        candidates.push_back(buildSdaFast(prog, idgHard, conservative));
        candidates.push_back(candidates[4]); // hard construction, hard repair
        candidates.push_back(candidates[1]); // list schedule, hard repair
        improveFast(prog, idg, candidates[2], SoftDepPolicy::AsNone);
        improveFast(prog, idg, candidates[3], SoftDepPolicy::AsNone);
        improveFast(prog, idg, candidates[4], SoftDepPolicy::Aware);
        improveFast(prog, idgHard, candidates[5], SoftDepPolicy::AsHard);
        improveFast(prog, idgHard, candidates[6], SoftDepPolicy::AsHard);
    }
    for (size_t c = 0; c < believedCount; ++c)
        improveFast(prog, idg, candidates[c], belief);

    size_t bestIdx = 0;
    uint64_t bestCost = UINT64_MAX;
    for (size_t c = 0; c < candidates.size(); ++c) {
        const uint64_t cost =
            blockCostFast(idg, candidates[c], belief, kNoSkip);
        if (cost < bestCost) {
            bestCost = cost;
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
               slotsFeasibleNodes(prog, idg, cur.data(), cur.size(), i);
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
    for (const auto &nodes : listScheduleFast(prog, idg))
        packets.push_back(Packet{toInstIndices(idg, nodes)});
    return packets;
}

} // namespace

dsp::PackedProgram
pack(const dsp::Program &prog, const PackOptions &opts)
{
    dsp::PackedProgram packed;
    packed.program = prog;

    const dsp::AliasAnalysis alias(prog);
    const Cfg cfg = buildCfg(prog);

    std::vector<size_t> blockStartPacket;
    blockStartPacket.reserve(cfg.blocks.size());

    for (const BasicBlock &block : cfg.blocks) {
        blockStartPacket.push_back(packed.packets.size());
        std::vector<Packet> blockPackets;
        switch (opts.policy) {
          case PackPolicy::Sda:
          case PackPolicy::SoftToHard:
          case PackPolicy::SoftToNone:
            blockPackets = packBlockSdaFast(prog, block, alias, opts);
            break;
          case PackPolicy::InOrder:
            blockPackets = packBlockInOrderFast(prog, block, alias);
            break;
          case PackPolicy::ListSched:
            blockPackets = packBlockListSchedFast(prog, block, alias);
            break;
        }
        for (auto &packet : blockPackets)
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

} // namespace gcd2::vliw
