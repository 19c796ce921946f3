#include "vliw/packer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "dsp/timing_sim.h"
#include "vliw/pack_fast.h"

namespace gcd2::vliw {

namespace {

using dsp::DepKind;
using dsp::Packet;

/** Map packet-local node ids to sorted program instruction indices. */
std::vector<size_t>
toInstIndices(const Idg &idg, const std::vector<size_t> &nodes)
{
    std::vector<size_t> insts;
    insts.reserve(nodes.size());
    for (size_t n : nodes)
        insts.push_back(idg.instIndex(n));
    std::sort(insts.begin(), insts.end());
    return insts;
}

uint64_t
packetCostOf(const dsp::Program &prog, const dsp::AliasAnalysis &alias,
             const Idg &idg, const std::vector<size_t> &nodes)
{
    const Packet packet{toInstIndices(idg, nodes)};
    return dsp::TimingSimulator::packetCost(prog, packet, alias);
}

std::vector<std::vector<size_t>> listScheduleNodes(const dsp::Program &prog,
                                                   const Idg &idg);

/**
 * Algorithm 1, select_instruction: pick the most profitable free
 * instruction for the packet under construction, or -1 if none fits.
 */
int
selectInstruction(const dsp::Program &prog, const dsp::AliasAnalysis &alias,
                  const Idg &idg, const std::vector<size_t> &freeInsts,
                  const std::vector<size_t> &curPacket,
                  const PackOptions &opts, std::vector<size_t> &withScratch)
{
    // resource_constraint(free_insts, packet): candidates that satisfy the
    // slot constraints together with the packet members.
    const std::vector<size_t> current = toInstIndices(idg, curPacket);

    int hiLat = 0;
    for (size_t n : curPacket)
        hiLat = std::max(hiLat, idg.node(n).latency);

    const uint64_t costWithout =
        packetCostOf(prog, alias, idg, curPacket);

    int best = -1;
    double bestScore = 0.0;
    bool bestStalls = false;
    int stallingCandidates = 0;
    for (size_t i : freeInsts) {
        if (!dsp::slotsFeasibleWith(prog, current, idg.instIndex(i)))
            continue;

        const IdgNode &node = idg.node(i);
        // Eq. 4: i.score = (i.order + i.pred) * w
        //                  - |hi_lat - i.lat| * (1 - w)
        double score =
            (node.order + node.predCount) * opts.w -
            std::abs(hiLat - node.latency) * (1.0 - opts.w);

        // p(i, packet): the stall the soft dependencies of i against the
        // current packet members would cause. (Caller-owned scratch: this
        // runs once per candidate per packet slot.)
        withScratch.assign(curPacket.begin(), curPacket.end());
        withScratch.push_back(i);
        const uint64_t costWith =
            packetCostOf(prog, alias, idg, withScratch);
        const uint64_t baseline =
            std::max(costWithout, static_cast<uint64_t>(node.latency));
        const bool stalls = costWith > baseline;
        if (stalls) {
            ++stallingCandidates;
            if (opts.policy != PackPolicy::SoftToNone) {
                // Lines 27-28 of Algorithm 1 (removed under soft_to_none).
                score -= static_cast<double>(costWith - baseline) *
                         opts.penaltyScale;
            }
        }

        // Paper line 29: ties go to the later (deeper) candidate.
        if (best < 0 || score >= bestScore) {
            best = static_cast<int>(i);
            bestScore = score;
            bestStalls = stalls;
        }
    }

    // "If a sufficient number of instructions are available without any
    // dependencies between them, we prefer to not pack instructions with
    // soft dependencies together": when every viable candidate would stall
    // this packet and at least two such candidates exist, close the packet
    // -- two mutually free instructions can share a later packet without
    // stalling, whereas a lone soft-dependent instruction is still better
    // packed here than issued alone (Fig. 4).
    if (opts.policy != PackPolicy::SoftToNone && bestStalls &&
        stallingCandidates >= 2) {
        return -1;
    }
    return best;
}

} // namespace

/**
 * Pipelined cost of one pass over a block schedule, mirroring the timing
 * simulator's issue/interlock model: packets issue at most one per cycle,
 * stall until cross-packet source operands are written back, and pay the
 * Fig. 4 overlap penalty for intra-packet soft dependencies.
 *
 * @p belief is the scheduler's model of soft dependencies, not the
 * hardware's: the soft_to_none ablation *believes* soft dependencies cost
 * nothing (scalar results available immediately, no co-packing penalty),
 * so its schedules optimize the wrong objective and pay real stalls at
 * execution time -- exactly the paper's ablation semantics.
 */
uint64_t
pipelinedBlockCost(const dsp::Program &prog, const dsp::AliasAnalysis &alias,
                   const Idg &idg,
                   const std::vector<std::vector<size_t>> &packets,
                   SoftDepPolicy belief)
{
    const bool ignoreSoft = belief == SoftDepPolicy::AsNone;
    std::vector<uint64_t> ready(
        static_cast<size_t>(dsp::kNumScalarRegs + dsp::kNumVectorRegs), 0);
    uint64_t issue = 0;
    uint64_t completion = 0;
    bool first = true;

    std::vector<size_t> insts;
    std::vector<int> delay;
    for (const auto &nodes : packets) {
        insts = toInstIndices(idg, nodes);
        delay.assign(insts.size(), 0);
        uint64_t minIssue = first ? 0 : issue + 1;
        for (size_t k = 0; k < insts.size(); ++k) {
            for (size_t m = 0; m < k; ++m) {
                const dsp::Dependency dep = dsp::classifyDependency(
                    prog.code[insts[m]], prog.code[insts[k]],
                    alias.mayAlias(insts[m], insts[k]));
                if (!ignoreSoft && dep.kind == DepKind::Soft &&
                    dep.penalty > 0)
                    delay[k] = std::max(delay[k], delay[m] + dep.penalty);
            }
            for (int uid : dsp::regReads(prog.code[insts[k]]))
                minIssue = std::max(minIssue,
                                    ready[static_cast<size_t>(uid)]);
        }
        issue = minIssue;
        first = false;
        for (size_t k = 0; k < insts.size(); ++k) {
            const uint64_t done =
                issue + static_cast<uint64_t>(delay[k]) +
                static_cast<uint64_t>(prog.code[insts[k]].info().latency);
            completion = std::max(completion, done);
            for (int uid : dsp::regWrites(prog.code[insts[k]])) {
                // Soft (scalar) results look immediately available to the
                // soft-blind belief model.
                ready[static_cast<size_t>(uid)] =
                    (ignoreSoft && uid < dsp::kNumScalarRegs) ? issue + 1
                                                              : done;
            }
        }
    }
    return completion;
}

/**
 * Post-scheduling repair: greedy bottom-up packing sometimes leaves
 * schedules with avoidable interlock stalls or co-packed stalls. Try to
 * move single instructions between packets (or into fresh packets) when
 * the move is dependence-legal, slot-feasible, and reduces the block's
 * pipelined cost.
 */
void
improveBlockSchedule(const dsp::Program &prog,
                     const dsp::AliasAnalysis &alias, const Idg &idg,
                     std::vector<std::vector<size_t>> &packets,
                     SoftDepPolicy belief)
{
    const size_t n = idg.size();

    std::vector<size_t> packetOf(n, 0);
    auto rebuildIndex = [&]() {
        for (size_t p = 0; p < packets.size(); ++p)
            for (size_t node : packets[p])
                packetOf[node] = p;
    };
    rebuildIndex();

    auto legalIn = [&](size_t node, size_t target) {
        // Producers must complete in earlier packets, or share the target
        // packet through a soft edge; consumers symmetrically.
        for (const IdgEdge &e : idg.node(node).preds) {
            const size_t p = packetOf[static_cast<size_t>(e.other)];
            if (p > target ||
                (p == target && e.kind != dsp::DepKind::Soft))
                return false;
        }
        for (const IdgEdge &e : idg.node(node).succs) {
            const size_t p = packetOf[static_cast<size_t>(e.other)];
            if (p < target ||
                (p == target && e.kind != dsp::DepKind::Soft))
                return false;
        }
        return true;
    };

    uint64_t bestCost =
        pipelinedBlockCost(prog, alias, idg, packets, belief);
    bool changed = true;
    for (int round = 0; round < 6 && changed; ++round) {
        changed = false;
        for (size_t p = 0; p < packets.size(); ++p) {
            // Signed: the restart decrement below may take slot to -1
            // (rescan from the front); an unsigned index would wrap and
            // trip the structure-changed guard, silently abandoning the
            // rest of this packet's repair round.
            for (ptrdiff_t slot = 0;
                 slot < static_cast<ptrdiff_t>(packets[p].size());
                 ++slot) {
                const size_t node =
                    packets[p][static_cast<size_t>(slot)];

                // Candidate targets: every other packet.
                for (size_t q = 0; q < packets.size(); ++q) {
                    if (q == p)
                        continue;
                    std::vector<size_t> with = packets[q];
                    with.push_back(node);
                    if (!dsp::slotsFeasible(prog,
                                            toInstIndices(idg, with)))
                        continue;
                    packetOf[node] = q;
                    const bool legal = legalIn(node, q);
                    if (!legal) {
                        packetOf[node] = p;
                        continue;
                    }
                    // Apply tentatively.
                    packets[q].push_back(node);
                    packets[p].erase(packets[p].begin() + slot);
                    const bool erased = packets[p].empty();
                    std::vector<std::vector<size_t>> trial = packets;
                    if (erased)
                        trial.erase(trial.begin() +
                                    static_cast<long>(p));
                    const uint64_t cost =
                        pipelinedBlockCost(prog, alias, idg, trial, belief);
                    if (cost < bestCost ||
                        (erased && cost <= bestCost)) {
                        bestCost = cost;
                        if (erased) {
                            packets = std::move(trial);
                            rebuildIndex();
                        }
                        changed = true;
                        // Node moved: restart scanning this packet slot.
                        --slot;
                        break;
                    }
                    // Revert.
                    packets[q].pop_back();
                    packets[p].insert(packets[p].begin() + slot, node);
                    packetOf[node] = p;
                }
                if (packets.size() <= p ||
                    static_cast<ptrdiff_t>(packets[p].size()) <= slot)
                    break; // structure changed under us
            }
        }
    }
}

namespace {

/** Bottom-up Algorithm 1 construction (consumes a fresh IDG). */
std::vector<std::vector<size_t>>
buildSdaSchedule(const dsp::Program &prog, const BasicBlock &block,
                 const dsp::AliasAnalysis &alias, const PackOptions &opts)
{
    const SoftDepPolicy graphPolicy = opts.policy == PackPolicy::SoftToHard
                                          ? SoftDepPolicy::AsHard
                                          : SoftDepPolicy::Aware;
    Idg idg(prog, block, alias, graphPolicy);

    // Packets are created bottom-up (the seed is the *last* unpacked
    // instruction of the critical path) and pushed onto a stack. The
    // free-set and candidate-packet scratch vectors are hoisted out of
    // the per-packet loop and reused across iterations.
    std::vector<std::vector<size_t>> stack;
    std::vector<size_t> freeInsts;
    std::vector<size_t> withScratch;
    while (idg.remainingCount() > 0) {
        const std::vector<size_t> path = idg.criticalPath();
        GCD2_ASSERT(!path.empty(), "no critical path with nodes remaining");
        const size_t seed = path.back();

        std::vector<size_t> cur{seed};
        idg.remove(seed);
        while (cur.size() < static_cast<size_t>(dsp::kPacketSlots)) {
            idg.freeInstructions(cur, freeInsts);
            const int inst = selectInstruction(prog, alias, idg, freeInsts,
                                               cur, opts, withScratch);
            if (inst < 0)
                break;
            cur.push_back(static_cast<size_t>(inst));
            idg.remove(static_cast<size_t>(inst));
        }
        stack.push_back(std::move(cur));
    }
    // Creation order is bottom-up; reverse into execution order.
    return {stack.rbegin(), stack.rend()};
}

/** The SDA family (Sda / SoftToHard / SoftToNone): Algorithm 1 plus the
 *  believed-cost repair pass and candidate selection. */
std::vector<Packet>
packBlockSda(const dsp::Program &prog, const BasicBlock &block,
             const dsp::AliasAnalysis &alias, const PackOptions &opts)
{
    const SoftDepPolicy graphPolicy = opts.policy == PackPolicy::SoftToHard
                                          ? SoftDepPolicy::AsHard
                                          : SoftDepPolicy::Aware;
    // A non-consumed IDG for structure queries (repair, cost, emission).
    Idg idg(prog, block, alias, graphPolicy);

    // Each policy repairs its candidates under its *believed* model of
    // soft dependencies; the ablations optimize wrong beliefs and pay the
    // difference at execution time.
    const SoftDepPolicy belief = opts.policy == PackPolicy::SoftToNone
                                     ? SoftDepPolicy::AsNone
                                     : opts.policy == PackPolicy::SoftToHard
                                           ? SoftDepPolicy::AsHard
                                           : SoftDepPolicy::Aware;

    std::vector<std::vector<std::vector<size_t>>> candidates;
    candidates.push_back(buildSdaSchedule(prog, block, alias, opts));
    candidates.push_back(listScheduleNodes(prog, idg));
    const size_t believedCount = candidates.size();
    if (opts.policy == PackPolicy::Sda) {
        // The full packer also considers the constructions the ablations
        // would produce (soft-blind and soft-conservative), each repaired
        // along its own trajectory -- all judged under the true cost
        // below, so SDA's candidate set dominates both ablations'.
        PackOptions blind = opts;
        blind.policy = PackPolicy::SoftToNone;
        PackOptions conservative = opts;
        conservative.policy = PackPolicy::SoftToHard;
        candidates.push_back(buildSdaSchedule(prog, block, alias, blind));
        candidates.push_back(candidates[1]);
        candidates.push_back(
            buildSdaSchedule(prog, block, alias, conservative));
        // Exact clone of the soft_to_hard pipeline (its restricted IDG
        // constrains the repair differently than the aware one).
        Idg idgHard(prog, block, alias, SoftDepPolicy::AsHard);
        candidates.push_back(candidates[4]); // hard construction, hard repair
        candidates.push_back(candidates[1]); // list schedule, hard repair
        improveBlockSchedule(prog, alias, idg, candidates[2],
                             SoftDepPolicy::AsNone);
        improveBlockSchedule(prog, alias, idg, candidates[3],
                             SoftDepPolicy::AsNone);
        improveBlockSchedule(prog, alias, idg, candidates[4],
                             SoftDepPolicy::Aware);
        improveBlockSchedule(prog, alias, idgHard, candidates[5],
                             SoftDepPolicy::AsHard);
        improveBlockSchedule(prog, alias, idgHard, candidates[6],
                             SoftDepPolicy::AsHard);
    }
    for (size_t c = 0; c < believedCount; ++c)
        improveBlockSchedule(prog, alias, idg, candidates[c], belief);

    size_t bestIdx = 0;
    uint64_t bestCost = UINT64_MAX;
    for (size_t c = 0; c < candidates.size(); ++c) {
        const uint64_t cost =
            pipelinedBlockCost(prog, alias, idg, candidates[c], belief);
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

/** Is co-packing node @p i with packet member @p m legal (baselines)? */
bool
baselineCoPackLegal(const Idg &idg, size_t m, size_t i)
{
    // Edges always point from the lower program index to the higher one.
    const size_t lo = std::min(m, i);
    const size_t hi = std::max(m, i);
    for (const IdgEdge &e : idg.node(lo).succs) {
        if (static_cast<size_t>(e.other) != hi)
            continue;
        // Under the AsHard graph policy the surviving soft edges are the
        // free ordering/WAR ones; anything else blocks co-packing.
        if (e.kind != DepKind::Soft || e.penalty > 0)
            return false;
    }
    return true;
}

/** Greedy in-order packetizer (Halide-style LLVM back-end). */
std::vector<Packet>
packBlockInOrder(const dsp::Program &prog, const BasicBlock &block,
                 const dsp::AliasAnalysis &alias)
{
    Idg idg(prog, block, alias, SoftDepPolicy::AsHard);

    std::vector<Packet> packets;
    std::vector<size_t> cur; // node ids
    auto flush = [&]() {
        if (!cur.empty()) {
            packets.push_back(Packet{toInstIndices(idg, cur)});
            cur.clear();
        }
    };

    for (size_t i = 0; i < idg.size(); ++i) {
        bool fits = cur.size() < static_cast<size_t>(dsp::kPacketSlots);
        for (size_t m : cur)
            fits = fits && baselineCoPackLegal(idg, m, i);
        if (fits) {
            fits = dsp::slotsFeasibleWith(prog, toInstIndices(idg, cur),
                                          idg.instIndex(i));
        }
        if (!fits)
            flush();
        cur.push_back(i);
    }
    flush();
    return packets;
}

/** Top-down critical-path list scheduling over an existing IDG,
 *  returning packet node lists (candidate generator). */
std::vector<std::vector<size_t>>
listScheduleNodes(const dsp::Program &prog, const Idg &idg)
{
    const size_t n = idg.size();

    // Priority: longest latency path to any exit (static).
    std::vector<int64_t> height(n, 0);
    for (size_t ri = n; ri-- > 0;) {
        height[ri] = idg.node(ri).latency;
        for (const IdgEdge &e : idg.node(ri).succs) {
            height[ri] = std::max(
                height[ri],
                idg.node(ri).latency + height[static_cast<size_t>(e.other)]);
        }
    }

    std::vector<bool> done(n, false);
    std::vector<std::vector<size_t>> packets;
    size_t scheduled = 0;
    while (scheduled < n) {
        // Ready set: all predecessors already completed in prior packets.
        std::vector<size_t> ready;
        for (size_t i = 0; i < n; ++i) {
            if (done[i])
                continue;
            const bool isReady = std::all_of(
                idg.node(i).preds.begin(), idg.node(i).preds.end(),
                [&](const IdgEdge &e) {
                    return done[static_cast<size_t>(e.other)];
                });
            if (isReady)
                ready.push_back(i);
        }
        GCD2_ASSERT(!ready.empty(), "list scheduler deadlock");
        std::sort(ready.begin(), ready.end(), [&](size_t a, size_t b) {
            return height[a] != height[b] ? height[a] > height[b] : a < b;
        });

        std::vector<size_t> cur;
        for (size_t i : ready) {
            if (cur.size() == static_cast<size_t>(dsp::kPacketSlots))
                break;
            if (dsp::slotsFeasibleWith(prog, toInstIndices(idg, cur),
                                       idg.instIndex(i)))
                cur.push_back(i);
        }
        for (size_t i : cur)
            done[i] = true;
        scheduled += cur.size();
        packets.push_back(std::move(cur));
    }
    return packets;
}

/** The TVM/RAKE-style baseline: soft-dependency-blind list scheduling. */
std::vector<Packet>
packBlockListSched(const dsp::Program &prog, const BasicBlock &block,
                   const dsp::AliasAnalysis &alias)
{
    Idg idg(prog, block, alias, SoftDepPolicy::AsHard);
    std::vector<Packet> packets;
    for (const auto &nodes : listScheduleNodes(prog, idg))
        packets.push_back(Packet{toInstIndices(idg, nodes)});
    return packets;
}

} // namespace

dsp::PackedProgram
packReference(const dsp::Program &prog, const PackOptions &opts)
{
    return detail::packBlocks(
        prog, [&](const BasicBlock &block, const dsp::AliasAnalysis &alias) {
            switch (opts.policy) {
              case PackPolicy::InOrder:
                return packBlockInOrder(prog, block, alias);
              case PackPolicy::ListSched:
                return packBlockListSched(prog, block, alias);
              default:
                return packBlockSda(prog, block, alias, opts);
            }
        });
}

const char *
packPolicyName(PackPolicy policy)
{
    switch (policy) {
      case PackPolicy::Sda:
        return "SDA";
      case PackPolicy::SoftToHard:
        return "soft_to_hard";
      case PackPolicy::SoftToNone:
        return "soft_to_none";
      case PackPolicy::InOrder:
        return "in_order";
      case PackPolicy::ListSched:
        return "list_sched";
    }
    return "?";
}

} // namespace gcd2::vliw
