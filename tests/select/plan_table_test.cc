/**
 * @file
 * PlanTable's two phases: phase 1 certifies tile classes as pool tasks,
 * phase 2 costs the node classes. Phase 1 must certify exactly the tile
 * classes per-node costing uses -- an unused class is a wasted pack and
 * three anchor simulations, a missing one brings back the class-lock
 * waits in phase 2 -- so the table's tier counters must equal those of
 * costing every live node serially with a fresh cost model.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "graph/passes.h"
#include "models/zoo.h"
#include "select/selector.h"

namespace gcd2::select {
namespace {

std::vector<uint64_t>
tierCounters(const CostModel &model)
{
    const TieredCounters c = model.tieredCoster()->counters();
    return {c.plansDerived,     c.plansSimulated,
            c.anchorSims,       c.transplantedPacks,
            c.certifiedClasses, c.uncertifiedClasses,
            c.structuralFallbacks};
}

/** Tier counters of costedPlans on every live node, in node order. */
std::vector<uint64_t>
serialCounters(const graph::Graph &g, const CostModelOptions &options)
{
    const CostModel model(options);
    for (const graph::Node &node : g.nodes())
        if (!node.dead)
            model.costedPlans(g, node.id);
    return tierCounters(model);
}

TEST(PlanTableTest, PhaseOneCertifiesExactlyTheClassesNodeCostingUses)
{
    ThreadPool pool(4);
    for (const models::ModelInfo &info : models::allModels()) {
        graph::Graph g = models::buildModel(info.id);
        graph::optimize(g);
        for (const kernels::UnrollStrategy unroll :
             {kernels::UnrollStrategy::Adaptive,
              kernels::UnrollStrategy::Exhaustive}) {
            SCOPED_TRACE(testing::Message()
                         << info.name << " / "
                         << kernels::unrollStrategyName(unroll));
            CostModelOptions options;
            options.unroll = unroll;
            const std::vector<uint64_t> serial = serialCounters(g, options);

            // Exhaustive unroll search picks its tiles by cost, so phase
            // 1 collects nothing and phase 2 costs as before; run it
            // inline, since concurrent misses on one memo key there each
            // count their derivation.
            const bool adaptive =
                unroll == kernels::UnrollStrategy::Adaptive;
            const CostModel tableModel(options);
            const PlanTable table(g, tableModel, adaptive ? &pool : nullptr);
            EXPECT_EQ(tierCounters(tableModel), serial);
            if (!adaptive) {
                for (const graph::Node &node : g.nodes())
                    EXPECT_TRUE(tableModel.tileRequests(g, node.id).empty());
                continue;
            }

            // Coverage: filling every node's tile requests does all the
            // tier work, and node costing after it finds nothing left.
            const CostModel filled(options);
            for (const graph::Node &node : g.nodes())
                if (!node.dead)
                    filled.fillTiles(filled.tileRequests(g, node.id));
            EXPECT_EQ(tierCounters(filled), serial);
            for (const graph::Node &node : g.nodes())
                if (!node.dead)
                    filled.costedPlans(g, node.id);
            EXPECT_EQ(tierCounters(filled), serial);
        }
    }
}

} // namespace
} // namespace gcd2::select
