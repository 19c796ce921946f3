/**
 * @file
 * The SDA repair pass's incremental trial scorer (vliw::detail::
 * RepairScorer, pack_fast.h) against the full block re-cost.
 *
 * The scorer resumes each trial move from saved scan states and stops
 * early on convergence, dominance or the accept threshold. Its contract
 * is decision exactness: for every single move, accept exactly when the
 * repair rule on blockCostFast of the moved schedule accepts (cost below
 * the current cost, or equal to it when the move empties its packet),
 * and report that full cost for every accepted move. These tests check
 * the contract on every legal single move of SDA, blind-SDA,
 * conservative-SDA and list-schedule start schedules of seeded random
 * blocks, under all three beliefs, and again after accepted moves have
 * been applied and adopted by the scorer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dsp/packet.h"
#include "vliw/cfg.h"
#include "vliw/pack_fast.h"
#include "random_programs.h"

namespace gcd2::vliw {
namespace {

using namespace gcd2::dsp;
using detail::blockCostFast;
using detail::NodeSchedule;
using detail::RepairScorer;

struct Tally
{
    size_t moves = 0;
    size_t accepted = 0;
    size_t erasing = 0;
    size_t erasingAccepted = 0;
};

/** Is moving @p node into packet @p q dependence- and slot-legal? */
bool
moveLegal(const Program &prog, const FastIdg &idg,
          const NodeSchedule &packets, const std::vector<size_t> &packetOf,
          size_t node, size_t q)
{
    const FastIdg::EdgeList preds = idg.predList(node);
    for (size_t e = 0; e < preds.count; ++e) {
        const size_t at = packetOf[static_cast<size_t>(preds.dst[e])];
        if (at > q || (at == q && preds.hard[e]))
            return false;
    }
    const FastIdg::EdgeList succs = idg.succList(node);
    for (size_t e = 0; e < succs.count; ++e) {
        const size_t at = packetOf[static_cast<size_t>(succs.dst[e])];
        if (at < q || (at == q && succs.hard[e]))
            return false;
    }
    std::vector<size_t> insts;
    for (size_t m : packets[q])
        insts.push_back(idg.instIndex(m));
    insts.push_back(idg.instIndex(node));
    return dsp::slotsFeasible(prog, insts);
}

/**
 * @p packets with packets[p][slot] moved to the back of packet q, and
 * packet p erased if that emptied it: the repair pass's move.
 */
NodeSchedule
moved(const NodeSchedule &packets, size_t p, size_t slot, size_t q)
{
    NodeSchedule out = packets;
    out[q].push_back(out[p][slot]);
    out[p].erase(out[p].begin() + static_cast<long>(slot));
    if (out[p].empty())
        out.erase(out.begin() + static_cast<long>(p));
    return out;
}

/**
 * Check the scorer's verdict on every legal single move of @p packets,
 * then apply the first accepted move and repeat, up to @p steps times.
 */
void
checkEveryMove(const Program &prog, const FastIdg &idg,
               NodeSchedule packets, SoftDepPolicy belief, int steps,
               Tally &tally, const std::string &what)
{
    RepairScorer scorer(idg, belief);
    scorer.reset(packets);
    for (int step = 0; step <= steps; ++step) {
        const uint64_t base = blockCostFast(idg, packets, belief);
        ASSERT_EQ(scorer.cost(), base) << what << " step " << step;

        std::vector<size_t> packetOf(idg.size());
        for (size_t p = 0; p < packets.size(); ++p)
            for (size_t node : packets[p])
                packetOf[node] = p;

        bool found = false;
        size_t takeP = 0, takeSlot = 0, takeQ = 0;
        for (size_t p = 0; p < packets.size(); ++p) {
            for (size_t slot = 0; slot < packets[p].size(); ++slot) {
                for (size_t q = 0; q < packets.size(); ++q) {
                    if (q == p || !moveLegal(prog, idg, packets, packetOf,
                                             packets[p][slot], q))
                        continue;
                    const bool erased = packets[p].size() == 1;
                    const uint64_t full = blockCostFast(
                        idg, moved(packets, p, slot, q), belief);
                    const bool accept =
                        full < base || (erased && full <= base);
                    const std::optional<uint64_t> verdict =
                        scorer.tryMove(packets, p, slot, q);
                    ASSERT_EQ(verdict.has_value(), accept)
                        << what << " step " << step << " move " << p
                        << "[" << slot << "] -> " << q << ": full cost "
                        << full << " vs " << base;
                    if (verdict) {
                        ASSERT_EQ(*verdict, full)
                            << what << " step " << step << " move " << p
                            << "[" << slot << "] -> " << q;
                    }
                    ++tally.moves;
                    tally.accepted += accept ? 1 : 0;
                    tally.erasing += erased ? 1 : 0;
                    tally.erasingAccepted += erased && accept ? 1 : 0;
                    if (accept && !found) {
                        found = true;
                        takeP = p;
                        takeSlot = slot;
                        takeQ = q;
                    }
                }
            }
        }
        if (!found)
            return;

        // Re-try the first accepted move, apply it the way the repair
        // pass does, and let the scorer adopt it.
        ASSERT_TRUE(scorer.tryMove(packets, takeP, takeSlot, takeQ));
        packets = moved(packets, takeP, takeSlot, takeQ);
        scorer.acceptLastMove();
    }
}

TEST(RepairScorerTest, VerdictsMatchFullRecostOnEveryLegalMove)
{
    Rng rng(0x5c0fe11ULL);
    constexpr int kPrograms = 120;
    Tally tally;
    for (int n = 0; n < kPrograms; ++n) {
        // Alternate the two differential generators: a countdown loop
        // (multi-block, scalar forwarding penalties) and a single block
        // with heavy register reuse and may-aliasing memory.
        const bool loop = n % 2 == 0;
        const Program prog = loop ? testing::randomProgram(rng)
                                  : testing::randomBlock(rng, n % 4 == 1);
        const AliasAnalysis alias(prog);
        const std::vector<BasicBlock> blocks =
            loop ? buildCfg(prog).blocks
                 : std::vector<BasicBlock>{{0, prog.code.size()}};
        for (const BasicBlock &block : blocks) {
            const FastIdg idg(prog, block, alias, SoftDepPolicy::Aware);
            const FastIdg hard = idg.hardened();
            PackOptions sda;
            PackOptions blind;
            blind.policy = PackPolicy::SoftToNone;
            PackOptions conservative;
            conservative.policy = PackPolicy::SoftToHard;
            const NodeSchedule starts[] = {
                detail::buildSdaFast(idg, sda),
                detail::buildSdaFast(idg, blind),
                detail::buildSdaFast(hard, conservative),
                detail::listScheduleFast(idg),
            };
            for (const SoftDepPolicy belief :
                 {SoftDepPolicy::Aware, SoftDepPolicy::AsNone,
                  SoftDepPolicy::AsHard}) {
                // The packer repairs under AsHard on the hardened graph.
                const FastIdg &graph =
                    belief == SoftDepPolicy::AsHard ? hard : idg;
                for (size_t s = 0; s < std::size(starts); ++s) {
                    checkEveryMove(prog, graph, starts[s], belief, 3, tally,
                                   "program " + std::to_string(n) +
                                       " block " +
                                       std::to_string(block.begin) +
                                       " start " + std::to_string(s) +
                                       " belief " +
                                       std::to_string(static_cast<int>(
                                           belief)));
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
    // Every branch of the verdict was exercised.
    EXPECT_GT(tally.moves, 10000u);
    EXPECT_GT(tally.accepted, 100u);
    EXPECT_GT(tally.moves - tally.accepted, 1000u);
    EXPECT_GT(tally.erasing, 100u);
    EXPECT_GT(tally.erasingAccepted, 10u);
}

} // namespace
} // namespace gcd2::vliw
