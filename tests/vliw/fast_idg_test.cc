/**
 * @file
 * FastIdg vs. reference Idg differential tests.
 *
 * The fast graph's contract (fast_idg.h) is not edge-for-edge equality:
 * chain construction emits a *subset* of the reference edges with an
 * identical transitive closure. These tests pin each face of that
 * contract on seeded random programs with register reuse, may-aliasing
 * memory traffic, and branch-terminated blocks:
 *
 *  - every fast edge exists in the reference with the same kind and
 *    penalty (the chain never invents or re-classifies a dependency);
 *  - the transitive closures (reachability sets) are equal, hence equal
 *    ranks and transitive predecessor counts;
 *  - critical paths and free sets stay equal through the exact removal
 *    discipline the SDA packer uses (bottom-up, successor-closed).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "vliw/fast_idg.h"
#include "vliw/idg.h"
#include "random_programs.h"

namespace gcd2::vliw {
namespace {

using namespace gcd2::dsp;
using testing::randomBlock;

/** Reachability closure (bitset per node) of an edge set given as
 *  successor lists. Mirrors the reference predCount computation. */
std::vector<std::vector<bool>>
closureOf(size_t n, const std::function<std::vector<IdgEdge>(size_t)> &succs)
{
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (size_t j = n; j-- > 0;) {
        for (const IdgEdge &e : succs(j)) {
            const auto t = static_cast<size_t>(e.other);
            reach[j][t] = true;
            for (size_t k = 0; k < n; ++k)
                if (reach[t][k])
                    reach[j][k] = true;
        }
    }
    return reach;
}

constexpr uint64_t kSeed = 0x1d6fa57ULL;

TEST(FastIdgTest, EveryFastEdgeExistsInReferenceWithSameClass)
{
    Rng rng(kSeed);
    for (int n = 0; n < 40; ++n) {
        const Program prog = randomBlock(rng, n % 3 == 0);
        const AliasAnalysis alias(prog);
        const BasicBlock block{0, prog.code.size()};
        for (const SoftDepPolicy policy :
             {SoftDepPolicy::Aware, SoftDepPolicy::AsHard}) {
            const Idg ref(prog, block, alias, policy);
            const FastIdg fast(prog, block, alias, policy);
            ASSERT_EQ(ref.size(), fast.size());
            for (size_t i = 0; i < fast.size(); ++i) {
                for (const IdgEdge &e : fast.succs(i)) {
                    const auto &refSuccs = ref.node(i).succs;
                    const auto it = std::find_if(
                        refSuccs.begin(), refSuccs.end(),
                        [&](const IdgEdge &r) { return r.other == e.other; });
                    ASSERT_NE(it, refSuccs.end())
                        << "program " << n << ": fast edge " << i << "->"
                        << e.other << " missing from reference";
                    EXPECT_EQ(it->kind, e.kind)
                        << "program " << n << " edge " << i << "->"
                        << e.other;
                    EXPECT_EQ(it->penalty, e.penalty)
                        << "program " << n << " edge " << i << "->"
                        << e.other;
                }
            }
        }
    }
}

TEST(FastIdgTest, TransitiveClosureRanksAndPredCountsMatch)
{
    Rng rng(kSeed + 1);
    for (int n = 0; n < 40; ++n) {
        const Program prog = randomBlock(rng, n % 3 == 1);
        const AliasAnalysis alias(prog);
        const BasicBlock block{0, prog.code.size()};
        const Idg ref(prog, block, alias, SoftDepPolicy::Aware);
        const FastIdg fast(prog, block, alias, SoftDepPolicy::Aware);
        ASSERT_EQ(ref.size(), fast.size());

        const auto refClosure = closureOf(ref.size(), [&](size_t i) {
            return ref.node(i).succs;
        });
        const auto fastClosure = closureOf(fast.size(), [&](size_t i) {
            return fast.succs(i);
        });
        EXPECT_EQ(refClosure, fastClosure) << "program " << n;

        for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ref.node(i).order, fast.order(i))
                << "program " << n << " node " << i;
            EXPECT_EQ(ref.node(i).predCount, fast.predCount(i))
                << "program " << n << " node " << i;
            EXPECT_EQ(ref.node(i).latency, fast.latency(i))
                << "program " << n << " node " << i;
        }
    }
}

TEST(FastIdgTest, HardenedCopyMatchesAsHardReference)
{
    Rng rng(kSeed + 2);
    for (int n = 0; n < 20; ++n) {
        const Program prog = randomBlock(rng, n % 4 == 0);
        const AliasAnalysis alias(prog);
        const BasicBlock block{0, prog.code.size()};
        const FastIdg aware(prog, block, alias, SoftDepPolicy::Aware);
        const FastIdg hard = aware.hardened();
        const FastIdg direct(prog, block, alias, SoftDepPolicy::AsHard);
        ASSERT_EQ(hard.size(), direct.size());
        for (size_t i = 0; i < hard.size(); ++i) {
            const auto a = hard.succs(i);
            const auto b = direct.succs(i);
            ASSERT_EQ(a.size(), b.size()) << "node " << i;
            for (size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k].other, b[k].other);
                EXPECT_EQ(a[k].kind, b[k].kind);
                EXPECT_EQ(a[k].penalty, b[k].penalty);
            }
        }
    }
}

/**
 * Simulate Algorithm 1's bottom-up removal on both graphs in lockstep:
 * seed each packet from the critical path's last node, grow it from the
 * (asserted equal) free sets, and require equal critical paths after
 * every removal. This is the exact access pattern buildSdaSchedule uses,
 * so it exercises the incremental free set, the per-packet hard-pred
 * blocking, and the dirty critical-path repair (including its full-sweep
 * fallback on small blocks).
 */
TEST(FastIdgTest, RemovalDisciplineKeepsPathsAndFreeSetsEqual)
{
    Rng rng(kSeed + 3);
    for (int n = 0; n < 30; ++n) {
        const Program prog = randomBlock(rng, n % 3 == 2);
        const AliasAnalysis alias(prog);
        const BasicBlock block{0, prog.code.size()};
        Idg ref(prog, block, alias, SoftDepPolicy::Aware);
        FastIdg fast(prog, block, alias, SoftDepPolicy::Aware);

        while (ref.remainingCount() > 0) {
            const std::vector<size_t> refPath = ref.criticalPath();
            const std::vector<size_t> fastPath = fast.criticalPath();
            ASSERT_EQ(refPath, fastPath)
                << "program " << n << " at " << ref.remainingCount()
                << " remaining";

            const size_t seed = refPath.back();
            ASSERT_EQ(fast.criticalSeed(), seed);
            std::vector<size_t> cur{seed};
            fast.beginPacket();
            ref.remove(seed);
            fast.take(seed);
            // Grow the packet to at most four nodes from the free set.
            while (cur.size() < 4) {
                const std::vector<size_t> refFree =
                    ref.freeInstructions(cur);
                std::vector<size_t> fastFree;
                fast.collectFree(fastFree);
                ASSERT_EQ(refFree, fastFree)
                    << "program " << n << " packet of " << cur.size();
                if (refFree.empty())
                    break;
                const size_t pick = refFree[static_cast<size_t>(
                    rng.uniformInt(0,
                                   static_cast<int64_t>(refFree.size()) -
                                       1))];
                cur.push_back(pick);
                ref.remove(pick);
                fast.take(pick);
            }
            ASSERT_EQ(ref.remainingCount(), fast.remainingCount());
        }
        EXPECT_TRUE(fast.criticalPath().empty());
    }
}

TEST(FastIdgTest, IsFreeMatchesReferenceForArbitraryPackets)
{
    Rng rng(kSeed + 4);
    for (int n = 0; n < 20; ++n) {
        const Program prog = randomBlock(rng, false);
        const AliasAnalysis alias(prog);
        const BasicBlock block{0, prog.code.size()};
        const Idg ref(prog, block, alias, SoftDepPolicy::Aware);
        const FastIdg fast(prog, block, alias, SoftDepPolicy::Aware);
        // With no removals, isFree must agree for every node against an
        // empty packet and against a random candidate packet.
        for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ref.isFree(i, {}), fast.isFree(i, {}))
                << "program " << n << " node " << i;
            std::vector<size_t> cur;
            for (int k = 0; k < 3; ++k)
                cur.push_back(static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(ref.size()) - 1)));
            EXPECT_EQ(ref.isFree(i, cur), fast.isFree(i, cur))
                << "program " << n << " node " << i;
        }
    }
}

} // namespace
} // namespace gcd2::vliw
