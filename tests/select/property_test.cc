/**
 * @file
 * Property tests on the selection machinery over randomized graphs:
 * solver orderings that must hold for every input, not just the curated
 * cases.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/passes.h"
#include "models/builders.h"
#include "select/pbqp.h"
#include "select/selector.h"

namespace gcd2::select {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::OpType;
using models::add;
using models::conv;
using models::input;

/** Random DAG of pointwise convs / adds / pools with bounded fan-in. */
Graph
randomGraph(Rng &rng, int operators)
{
    Graph g;
    std::vector<NodeId> values;
    std::vector<int64_t> channels;
    values.push_back(input(g, {16, 12, 12}));
    channels.push_back(16);

    for (int i = 0; i < operators; ++i) {
        const size_t pick =
            static_cast<size_t>(rng.uniformInt(
                std::max<int64_t>(0,
                                  static_cast<int64_t>(values.size()) - 4),
                static_cast<int64_t>(values.size()) - 1));
        const NodeId src = values[pick];
        const int64_t c = channels[pick];
        switch (rng.uniformInt(0, 3)) {
          case 0:
          case 1: { // conv (the free-choice operator)
            const int64_t outC = 8 * rng.uniformInt(1, 4);
            values.push_back(conv(g, src, outC, 1, 1, 0, false));
            channels.push_back(outC);
            break;
          }
          case 2: { // residual add with a same-shape earlier value
            NodeId partner = graph::kInvalidNode;
            for (size_t v = 0; v < values.size(); ++v) {
                if (values[v] != src && channels[v] == c &&
                    g.node(values[v]).op != OpType::Input &&
                    g.node(src).op != OpType::Input) {
                    partner = values[v];
                }
            }
            if (partner == graph::kInvalidNode) {
                values.push_back(conv(g, src, c, 1, 1, 0, false));
                channels.push_back(c);
            } else {
                values.push_back(add(g, src, partner));
                channels.push_back(c);
            }
            break;
          }
          case 3: { // layout-pinned clamp... use Sigmoid (agnostic) or
                    // a pinned LayerNorm to split components
            if (rng.uniformInt(0, 1) == 0)
                values.push_back(g.add(OpType::Sigmoid, {src}));
            else
                values.push_back(g.add(OpType::LayerNorm, {src}));
            channels.push_back(c);
            break;
          }
        }
    }
    g.add(OpType::Output, {values.back()});
    graph::optimize(g);
    return g;
}

TEST(SelectionProperties, SolverOrderingOnRandomGraphs)
{
    Rng rng(2024);
    CostModel model;
    for (int trial = 0; trial < 12; ++trial) {
        Graph g = randomGraph(rng, 12);
        PlanTable table(g, model);
        if (table.freeNodes().size() > 18)
            continue;

        const SelectorResult local = selectLocal(table);
        const SelectorResult gcd2 = selectGcd2Partitioned(table, 13);
        const SelectorResult opt = selectGlobalOptimal(table, 18);

        // Optimal <= GCD2 <= local, and all selections are valid.
        EXPECT_LE(opt.selection.totalCost, gcd2.selection.totalCost)
            << "trial " << trial;
        EXPECT_LE(gcd2.selection.totalCost, local.selection.totalCost)
            << "trial " << trial;

        // Reported totals equal an independent Agg_Cost evaluation.
        EXPECT_EQ(gcd2.selection.totalCost,
                  aggCost(table, gcd2.selection));
        EXPECT_EQ(opt.selection.totalCost, aggCost(table, opt.selection));
    }
}

TEST(SelectionProperties, PartitionedMatchesExhaustiveOnSmallRandomGraphs)
{
    // The partitioned solver with a bound covering every component must
    // equal the exhaustive optimum -- including on graphs with fan-out
    // (residual adds), where a per-consumer DP reconstruction could
    // double-resolve shared producers. ~50 graphs, all kept small enough
    // for the exhaustive reference.
    Rng rng(8080);
    CostModel model;
    int checked = 0;
    for (int trial = 0; trial < 80 && checked < 50; ++trial) {
        Graph g = randomGraph(rng, static_cast<int>(rng.uniformInt(4, 9)));
        PlanTable table(g, model);
        if (table.freeNodes().size() > 12)
            continue;
        ++checked;

        const SelectorResult gcd2 = selectGcd2Partitioned(table, 13);
        const SelectorResult opt = selectGlobalOptimal(table, 12);
        EXPECT_EQ(gcd2.selection.totalCost, opt.selection.totalCost)
            << "trial " << trial;
        EXPECT_EQ(gcd2.selection.totalCost,
                  aggCost(table, gcd2.selection))
            << "trial " << trial;
        EXPECT_FALSE(gcd2.truncated);
    }
    // The generator must actually produce enough in-range graphs.
    EXPECT_EQ(checked, 50);
}

TEST(SelectionProperties, SmallerPartitionsNeverBeatLargerOnes)
{
    Rng rng(31337);
    CostModel model;
    for (int trial = 0; trial < 6; ++trial) {
        Graph g = randomGraph(rng, 16);
        PlanTable table(g, model);
        const uint64_t p3 =
            selectGcd2Partitioned(table, 3).selection.totalCost;
        const uint64_t p13 =
            selectGcd2Partitioned(table, 13).selection.totalCost;
        EXPECT_LE(p13, p3) << "trial " << trial;
    }
}

TEST(SelectionProperties, ChainDpIsOptimalOnRandomChains)
{
    Rng rng(7);
    CostModel model;
    for (int trial = 0; trial < 8; ++trial) {
        Graph g;
        NodeId x = input(g, {16, 10, 10});
        const int len = static_cast<int>(rng.uniformInt(2, 9));
        for (int i = 0; i < len; ++i)
            x = conv(g, x, 8 * rng.uniformInt(1, 4), 1, 1, 0, false);
        g.add(OpType::Output, {x});
        graph::optimize(g);

        PlanTable table(g, model);
        const SelectorResult pbqp = selectPbqp(table);
        const SelectorResult opt = selectGlobalOptimal(table);
        EXPECT_EQ(pbqp.selection.totalCost, opt.selection.totalCost)
            << "trial " << trial << " len " << len;
    }
}

TEST(SelectionProperties, CostModelIsDeterministic)
{
    Rng rng(5);
    Graph g = randomGraph(rng, 10);
    CostModel a, b;
    PlanTable ta(g, a), tb(g, b);
    for (const auto &node : g.nodes()) {
        if (node.dead)
            continue;
        const auto &pa = ta.plans(node.id);
        const auto &pb = tb.plans(node.id);
        ASSERT_EQ(pa.size(), pb.size());
        for (size_t i = 0; i < pa.size(); ++i)
            EXPECT_EQ(pa[i].cycles, pb[i].cycles);
    }
}

} // namespace
} // namespace gcd2::select
