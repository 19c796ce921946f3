/**
 * @file
 * Tiered costing must be invisible in compiler output: for every zoo
 * model and every selector rung, a compile with the tiered plan coster
 * (analytic unroll prefilter + shape-class sharing) must
 * produce bit-identical selections, costs, cycle totals, and served
 * schedules to a compile that simulates every candidate exhaustively.
 * The speedup may only change wall-clock compile time -- the same
 * contract the determinism suite pins for thread count.
 */
#include <gtest/gtest.h>

#include "graph/passes.h"
#include "models/builders.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "select/audit.h"
#include "select/selector.h"
#include "service/artifact_store.h"

namespace gcd2::runtime {
namespace {

using models::ModelId;

CompileOptions
withTiered(bool tiered, SelectionMode mode = SelectionMode::Gcd2)
{
    CompileOptions options;
    options.cost.tieredCosting = tiered;
    options.selection = mode;
    return options;
}

void
expectIdentical(const CompiledModel &tiered,
                const CompiledModel &exhaustive)
{
    EXPECT_EQ(tiered.selection.planIndex, exhaustive.selection.planIndex);
    EXPECT_EQ(tiered.selection.totalCost, exhaustive.selection.totalCost);
    EXPECT_EQ(tiered.totals.cycles, exhaustive.totals.cycles);
    EXPECT_EQ(tiered.totals.instructions,
              exhaustive.totals.instructions);
    EXPECT_EQ(tiered.totals.packets, exhaustive.totals.packets);
    EXPECT_EQ(tiered.totals.bytesLoaded, exhaustive.totals.bytesLoaded);
    EXPECT_EQ(tiered.totals.bytesStored, exhaustive.totals.bytesStored);
    EXPECT_EQ(tiered.transformOnly.cycles,
              exhaustive.transformOnly.cycles);
    EXPECT_EQ(tiered.nodeCycles, exhaustive.nodeCycles);
}

TEST(TieredDifferentialTest, ZooSelectionsMatchExhaustiveCosting)
{
    for (const models::ModelInfo &info : models::allModels()) {
        const graph::Graph g = models::buildModel(info.id);
        SCOPED_TRACE(info.name);
        expectIdentical(compile(g, withTiered(true)),
                        compile(g, withTiered(false)));
    }
}

TEST(TieredDifferentialTest, SelectorRungsMatchExhaustiveCosting)
{
    // Layout-diverse, branchy, and transformer representatives across
    // every production selector rung. (GlobalOptimal is exponential and
    // covered by the small-graph selector tests.)
    for (ModelId id : {ModelId::WdsrB, ModelId::MobileNetV3,
                       ModelId::TinyBert}) {
        const graph::Graph g = models::buildModel(id);
        for (SelectionMode mode :
             {SelectionMode::Gcd2, SelectionMode::Pbqp,
              SelectionMode::Local, SelectionMode::Uniform}) {
            SCOPED_TRACE(testing::Message()
                         << models::modelInfo(id).name << " / "
                         << selectionModeName(mode));
            expectIdentical(compile(g, withTiered(true, mode)),
                            compile(g, withTiered(false, mode)));
        }
    }
}

TEST(TieredDifferentialTest, ServedSchedulesAreBitIdentical)
{
    // Beyond costs and totals: the serialized model (every served
    // packet structure, byte for byte) must not depend on the costing
    // tier. serializeModel is bit-stable across compiles by design.
    const graph::Graph g = models::buildModel(ModelId::FST);
    const CompiledModel tiered = compile(g, withTiered(true));
    const CompiledModel exhaustive = compile(g, withTiered(false));
    EXPECT_EQ(service::serializeModel(tiered),
              service::serializeModel(exhaustive));
}

TEST(TieredDifferentialTest, SearchModeMatchesAndPrunes)
{
    // Exhaustive unroll search is where the tier-1 unroll prefilter
    // actually fires (32 unroll candidates per shape);
    // the selection must still match the fully simulated search.
    CompileOptions tieredSearch = withTiered(true);
    tieredSearch.cost.unroll = kernels::UnrollStrategy::Exhaustive;
    CompileOptions exhaustiveSearch = withTiered(false);
    exhaustiveSearch.cost.unroll = kernels::UnrollStrategy::Exhaustive;

    const graph::Graph g = models::buildModel(ModelId::FST);
    const CompiledModel tiered = compile(g, tieredSearch);
    const CompiledModel exhaustive = compile(g, exhaustiveSearch);
    expectIdentical(tiered, exhaustive);

    const PassReport *planTable = tiered.report.pass("plan-table");
    ASSERT_NE(planTable, nullptr);
    EXPECT_GT(planTable->counter("plans-pruned"), 0u);
    EXPECT_GT(planTable->counter("plans-derived"), 0u);
}

TEST(TieredDifferentialTest, PlanTableReportsTierTelemetry)
{
    const graph::Graph g = models::buildModel(ModelId::MobileNetV3);
    const CompiledModel compiled = compile(g, withTiered(true));
    const PassReport *planTable = compiled.report.pass("plan-table");
    ASSERT_NE(planTable, nullptr);
    EXPECT_GT(planTable->counter("tier-classes-certified"), 0u);
    EXPECT_GT(planTable->counter("plans-derived"), 0u);
    EXPECT_GT(planTable->counter("transplanted-packs"), 0u);
    // Shape-class sharing: repeated blocks cost their plan vector once.
    EXPECT_GT(planTable->counter("shape-classes"), 0u);
    EXPECT_GT(planTable->counter("shared-nodes"), 0u);
    EXPECT_GT(planTable->counter("plans-shared"), 0u);
}

TEST(TieredDifferentialTest, SharedPlansAreCheaperThanClasses)
{
    // A deep chain of identical convolutions: one shape class, every
    // node after the first shares its costed plan vector.
    graph::Graph g;
    graph::NodeId x = models::input(g, {32, 16, 16});
    for (int i = 0; i < 8; ++i)
        x = models::conv(g, x, 32, 1, 1, 0, false);
    g.add(graph::OpType::Output, {x});
    graph::optimize(g);

    const CompiledModel compiled = compile(g, withTiered(true));
    const PassReport *planTable = compiled.report.pass("plan-table");
    ASSERT_NE(planTable, nullptr);
    // One canonical node costs the class; interior repeats share it (the
    // boundary-adjacent convolutions sit in their own classes).
    EXPECT_GE(planTable->counter("shared-nodes"), 6u);
    EXPECT_GT(planTable->counter("plans-shared"), 0u);
    // And the sharing changed nothing: exhaustive costing agrees.
    expectIdentical(compiled, compile(g, withTiered(false)));
}

TEST(TieredDifferentialTest, DeepAuditRecertifiesTieredCosts)
{
    CompileOptions options = withTiered(true);
    options.audit = AuditMode::Deep;
    const graph::Graph g = models::buildModel(ModelId::FST);
    const CompiledModel compiled = compile(g, options);

    const PassReport *audit = compiled.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_EQ(audit->counter("tier-deep-audited"), 1u);
    EXPECT_GT(audit->counter("tier-audit-classes"), 0u);
    EXPECT_EQ(audit->counter("tiered-findings"), 0u);
    for (const common::Diag &diag : compiled.report.diagnostics)
        EXPECT_NE(diag.severity, common::DiagSeverity::Error)
            << diag.message;
}

TEST(TieredDifferentialTest, DeepAuditReportsMiscostedTable)
{
    // A table costed under one option set, audited against another: the
    // LUT toggle reprices TinyBERT's softmax and layer-norm divisions,
    // so the exhaustive re-cost must disagree with those plans' stored
    // cycles, and every disagreement is an Error.
    graph::Graph g = models::buildModel(ModelId::TinyBert);
    graph::optimize(g);
    const select::CostModel model(withTiered(true).cost);
    const select::PlanTable table(g, model);
    EXPECT_TRUE(select::auditTieredCosts(table, model.options()).empty());

    select::CostModelOptions flipped = model.options();
    flipped.lutOptimization = !flipped.lutOptimization;
    const std::vector<common::Diag> findings =
        select::auditTieredCosts(table, flipped);
    ASSERT_FALSE(findings.empty());
    for (const common::Diag &diag : findings) {
        EXPECT_EQ(diag.severity, common::DiagSeverity::Error);
        EXPECT_EQ(diag.pass, "tiered-audit");
        EXPECT_GE(diag.node, 0);
        EXPECT_NE(diag.message.find("exhaustively"), std::string::npos)
            << diag.message;
    }
}

} // namespace
} // namespace gcd2::runtime
