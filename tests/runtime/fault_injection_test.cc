/**
 * @file
 * Graceful-degradation tests: a poisoned or oversized compile must
 * still produce a served CompiledModel -- with the fallback rung, the
 * default selector's gcd2 cross-check, and audit findings visible in
 * PipelineReport::diagnostics -- instead of aborting the process.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "graph/passes.h"
#include "models/builders.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "select/pbqp.h"

namespace gcd2::runtime {
namespace {

using common::DiagSeverity;
using models::ModelId;

bool
anyDiagContains(const PipelineReport &report, std::string_view needle)
{
    for (const common::Diag &d : report.diagnostics)
        if (d.message.find(needle) != std::string::npos)
            return true;
    return false;
}

/** Octahedron-like DAG whose four middle Adds stay pairwise entangled
 *  at degree >= 3 after the fringe reduces, forcing a PBQP RN step
 *  (the graph of PbqpTest.HeuristicRnOnDenseReconvergence). */
graph::Graph
octahedron()
{
    using graph::NodeId;
    using graph::OpType;
    graph::Graph g;
    const NodeId x = models::input(g, {32, 8, 8});
    const NodeId a = models::conv(g, x, 32, 1, 1, 0, false);
    const NodeId b = models::conv(g, x, 32, 1, 1, 0, false);
    const NodeId c = g.add(OpType::Add, {a, b});
    const NodeId d = g.add(OpType::Add, {a, b});
    const NodeId e = g.add(OpType::Add, {c, d});
    const NodeId f = g.add(OpType::Add, {c, d});
    const NodeId h = g.add(OpType::Add, {e, f});
    g.add(OpType::Output, {h});
    graph::optimize(g);
    return g;
}

TEST(FaultInjectionTest, InjectedSelectorFaultFallsDownTheLadder)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    CompileOptions opts;
    opts.selection = SelectionMode::Gcd2;
    opts.testSelectionFault = [](select::SelectorResult &) {
        throw FatalError("injected selector fault");
    };

    const CompiledModel compiled = compile(g, opts);

    // Requested rung 'gcd2' failed; 'gcd2' dedups out of the fallback
    // list, so the next distinct rung (pbqp) serves.
    EXPECT_EQ(compiled.report.servedSelection, "pbqp");
    EXPECT_EQ(compiled.report.selectionRung, 1);
    EXPECT_GE(compiled.report.diagnosticCount(DiagSeverity::Warning), 1u);
    EXPECT_TRUE(anyDiagContains(compiled.report, "injected selector fault"));
    EXPECT_TRUE(anyDiagContains(compiled.report, "falling back"));
    // The served artifact is a real compile, not a husk (transform
    // elimination may trim layout operators below the built count).
    EXPECT_GT(compiled.totals.cycles, 0u);
    EXPECT_GE(compiled.liveOperators, g.operatorCount() - 4);
    EXPECT_LE(compiled.liveOperators, g.operatorCount());
    const PassReport *selection = compiled.report.pass("selection");
    ASSERT_NE(selection, nullptr);
    EXPECT_EQ(selection->counter("fallback-rung"), 1u);
}

TEST(FaultInjectionTest, OversizedExhaustiveRequestDegradesToGcd2)
{
    // GlobalOptimal on a real model blows the free-node cap and throws
    // FatalError from the requested rung -- no injection needed. The
    // ladder serves gcd2 instead.
    const graph::Graph g = models::buildModel(ModelId::MobileNetV3);
    CompileOptions opts;
    opts.selection = SelectionMode::GlobalOptimal;

    const CompiledModel compiled = compile(g, opts);
    EXPECT_EQ(compiled.report.servedSelection, "gcd2");
    EXPECT_EQ(compiled.report.selectionRung, 1);
    EXPECT_TRUE(anyDiagContains(compiled.report, "falling back"));
    EXPECT_GT(compiled.totals.cycles, 0u);

    // The same cost a direct gcd2 compile would have served.
    CompileOptions direct;
    direct.selection = SelectionMode::Gcd2;
    EXPECT_EQ(compiled.selection.totalCost,
              compile(g, direct).selection.totalCost);
}

TEST(FaultInjectionTest, DefaultCompileCrossChecksHeuristicPbqp)
{
    // RN fires on this graph, so the default compile also runs gcd2 and
    // must serve the cheaper of the two selections on the same table.
    const graph::Graph g = octahedron();
    const select::CostModel model;
    const select::PlanTable table(g, model);
    select::PbqpStats stats;
    const select::SelectorResult pbqp = select::selectPbqp(table, &stats);
    ASSERT_GE(stats.rn, 1u);
    const select::SelectorResult gcd2 =
        select::selectGcd2Partitioned(table, 13);
    const bool gcd2Wins =
        gcd2.selection.totalCost < pbqp.selection.totalCost;
    const select::Selection &cheaper =
        gcd2Wins ? gcd2.selection : pbqp.selection;

    CompileOptions opts;
    opts.audit = AuditMode::Deep;
    const CompiledModel compiled = compile(g, opts);
    EXPECT_EQ(compiled.selection.totalCost, cheaper.totalCost);
    EXPECT_EQ(compiled.selection.planIndex, cheaper.planIndex);
    EXPECT_EQ(compiled.report.servedSelection, gcd2Wins ? "gcd2" : "pbqp");
    EXPECT_EQ(compiled.report.selectionRung, 0);
    EXPECT_EQ(anyDiagContains(compiled.report, "serving gcd2"), gcd2Wins);
    EXPECT_EQ(compiled.report.diagnosticCount(common::DiagSeverity::Error),
              0u);
    EXPECT_GE(compiled.report.pass("selection")->counter("pbqp-rn"), 1u);

    // A costlier heuristic answer switches the served solver to gcd2,
    // which the deep audit then re-solves exactly (7 free nodes fit one
    // partition). The fault hook inflates the PBQP ledger to force it.
    CompileOptions worse = opts;
    worse.testSelectionFault = [](select::SelectorResult &r) {
        r.selection.totalCost += 1000;
    };
    const CompiledModel switched = compile(g, worse);
    EXPECT_EQ(switched.report.servedSelection, "gcd2");
    EXPECT_EQ(switched.selection.planIndex, gcd2.selection.planIndex);
    EXPECT_TRUE(anyDiagContains(switched.report, "serving gcd2"));
    EXPECT_TRUE(anyDiagContains(switched.report, "deep audit passed"));
    EXPECT_EQ(switched.report.diagnosticCount(common::DiagSeverity::Error),
              0u);

    // A gcd2 cross-check that cannot run keeps PBQP, with a Warning.
    opts.maxPartition = 1000;
    const CompiledModel unchecked = compile(g, opts);
    EXPECT_EQ(unchecked.report.servedSelection, "pbqp");
    EXPECT_EQ(unchecked.selection.totalCost, pbqp.selection.totalCost);
    EXPECT_TRUE(anyDiagContains(unchecked.report, "cross-check"));
    EXPECT_GE(unchecked.report.diagnosticCount(
                  common::DiagSeverity::Warning),
              1u);
}

TEST(FaultInjectionTest, MutatedSelectionIsCaughtByCheapAudit)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    CompileOptions opts;
    opts.testSelectionFault = [](select::SelectorResult &r) {
        r.selection.totalCost += 1234; // dishonest ledger
    };

    const CompiledModel compiled = compile(g, opts);
    // Served (rung 0: mutation is not a throw) but flagged suspect.
    EXPECT_EQ(compiled.report.selectionRung, 0);
    EXPECT_GE(compiled.report.diagnosticCount(DiagSeverity::Error), 1u);
    EXPECT_TRUE(anyDiagContains(compiled.report, "Agg_Cost"));
    const PassReport *audit = compiled.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_GE(audit->counter("selection-findings"), 1u);
}

TEST(FaultInjectionTest, CorruptedServedScheduleIsCaughtByAudit)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    CompileOptions opts;
    // Corrupt the *served* artifact, not its source program: duplicate an
    // instruction in the first retained schedule's first packet. Only an
    // auditor that inspects the retained schedules (rather than
    // re-packing the source, which would come out clean) can see this.
    opts.testScheduleFault = [](dsp::PackedProgram &packed) {
        ASSERT_FALSE(packed.packets.empty());
        ASSERT_FALSE(packed.packets[0].insts.empty());
        packed.packets[0].insts.push_back(packed.packets[0].insts[0]);
    };

    const CompiledModel compiled = compile(g, opts);
    EXPECT_GE(compiled.report.diagnosticCount(DiagSeverity::Error), 1u);
    const PassReport *audit = compiled.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_GE(audit->counter("schedule-findings"), 1u);
    EXPECT_GE(audit->counter("schedules-audited"), 1u);
}

TEST(FaultInjectionTest, AuditConsumesRetainedSchedules)
{
    // A clean compile retains a schedule for every operator with a
    // kernel program, the audit pass checks exactly the distinct ones,
    // and everything it audits is a program the compile serves (shared
    // pointers into CompiledModel::schedules) -- found clean.
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    const CompiledModel compiled = compile(g);

    ASSERT_FALSE(compiled.schedules.empty());
    for (const CompiledModel::ServedSchedule &sched : compiled.schedules) {
        ASSERT_NE(sched.program, nullptr);
        EXPECT_FALSE(sched.program->packets.empty());
    }
    std::set<const dsp::PackedProgram *> distinct;
    for (const CompiledModel::ServedSchedule &sched : compiled.schedules)
        distinct.insert(sched.program.get());

    const PassReport *kernelGen = compiled.report.pass("kernel-generation");
    ASSERT_NE(kernelGen, nullptr);
    EXPECT_EQ(kernelGen->counter("schedules-retained"),
              compiled.schedules.size());

    const PassReport *audit = compiled.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_EQ(audit->counter("schedules-audited"), distinct.size());
    EXPECT_EQ(audit->counter("schedule-findings"), 0u);
    EXPECT_EQ(compiled.report.diagnosticCount(DiagSeverity::Error), 0u);
    // No packing happened in the schedule audit: the schedules were
    // already in hand. This holds in both audit modes (GCD2_DEEP_AUDIT=1
    // turns this default compile into a deep one).
    EXPECT_EQ(audit->counter("schedule-pack-misses"), 0u);
    // A cheap audit packs nothing at all. A deep audit's exhaustive
    // re-cost packs its own tile programs, and the pass counts those.
    if (audit->counter("tier-deep-audited") == 0) {
        EXPECT_EQ(audit->counter("pack-misses"), 0u);
    }
}

TEST(FaultInjectionTest, AuditOffSkipsTheAuditPass)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    CompileOptions opts;
    opts.audit = AuditMode::Off;
    opts.testSelectionFault = [](select::SelectorResult &r) {
        r.selection.totalCost += 1234;
    };

    const CompiledModel compiled = compile(g, opts);
    const PassReport *audit = compiled.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_EQ(audit->counter("skipped"), 1u);
    // Nobody looked, so the dishonest ledger goes unflagged.
    EXPECT_EQ(compiled.report.diagnosticCount(DiagSeverity::Error), 0u);
}

TEST(FaultInjectionTest, DeepAuditEnvEscalatesCheapMode)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    ::setenv("GCD2_DEEP_AUDIT", "1", 1);
    const CompiledModel escalated = compile(g);
    ::unsetenv("GCD2_DEEP_AUDIT");
    const PassReport *audit = escalated.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_EQ(audit->counter("deep"), 1u);
    EXPECT_EQ(escalated.report.diagnosticCount(DiagSeverity::Error), 0u);

    // Explicit Off is respected even under the environment override.
    ::setenv("GCD2_DEEP_AUDIT", "1", 1);
    CompileOptions off;
    off.audit = AuditMode::Off;
    const CompiledModel quiet = compile(g, off);
    ::unsetenv("GCD2_DEEP_AUDIT");
    EXPECT_EQ(quiet.report.pass("audit")->counter("skipped"), 1u);
}

} // namespace
} // namespace gcd2::runtime
