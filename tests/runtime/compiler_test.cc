/**
 * @file
 * End-to-end compiler tests: the Fig. 6 pipeline produces consistent
 * statistics, the optimization toggles move latency the right way, and
 * the framework baselines rank as the paper reports.
 */
#include <gtest/gtest.h>

#include "baselines/frameworks.h"
#include "dsp/decoded.h"
#include "graph/passes.h"
#include "runtime/power_model.h"
#include "vliw/pack_cache.h"

namespace gcd2::runtime {
namespace {

using baselines::Framework;
using models::ModelId;

TEST(CompilerTest, CompiledModelHasConsistentStats)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    const CompiledModel compiled = compile(g);

    EXPECT_GT(compiled.totals.cycles, 0u);
    EXPECT_GT(compiled.totals.instructions, 0u);
    EXPECT_GT(compiled.latencyMs(), 0.0);
    EXPECT_GT(compiled.utilization(), 0.0);
    EXPECT_LE(compiled.utilization(), 1.0);
    EXPECT_GT(compiled.bandwidth(), 0.0);
    // Default compiles run layout-transform elimination, so the live
    // count matches the graph after that pass, never more than as built.
    graph::Graph eliminated = g;
    graph::OptimizeOptions elim;
    elim.eliminateLayoutTransforms = true;
    graph::optimize(eliminated, elim);
    EXPECT_LE(compiled.liveOperators, g.operatorCount());
    EXPECT_EQ(compiled.liveOperators, eliminated.operatorCount());
}

TEST(CompilerTest, PipelineReportCoversEveryPass)
{
    const graph::Graph g = models::buildModel(ModelId::MobileNetV3);
    const CompiledModel compiled = compile(g);
    const PipelineReport &report = compiled.report;

    ASSERT_EQ(report.passes.size(), 6u);
    const char *expected[] = {"graph-optimize",    "plan-table",
                              "selection",         "kernel-generation",
                              "cycle-accounting",  "audit"};
    for (size_t i = 0; i < 6; ++i)
        EXPECT_EQ(report.passes[i].name, expected[i]);

    for (const PassReport &pass : report.passes)
        EXPECT_GE(pass.seconds, 0.0);
    double sum = 0.0;
    for (const PassReport &pass : report.passes)
        sum += pass.seconds;
    EXPECT_GE(report.totalSeconds, sum);
    EXPECT_GE(report.threadsUsed, 1);

    const PassReport *planTable = report.pass("plan-table");
    ASSERT_NE(planTable, nullptr);
    EXPECT_GT(planTable->counter("candidate-plans"), 0u);
    EXPECT_GT(planTable->counter("kernel-sims"), 0u);
    const PassReport *selection = report.pass("selection");
    ASSERT_NE(selection, nullptr);
    EXPECT_GT(selection->counter("evaluations"), 0u);
    EXPECT_EQ(selection->counter("total-cost"),
              compiled.selection.totalCost);
    const PassReport *cycles = report.pass("cycle-accounting");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(cycles->counter("total-cycles"), compiled.totals.cycles);

    EXPECT_EQ(report.pass("no-such-pass"), nullptr);
    // The human-readable rendering mentions every pass.
    const std::string text = report.toString();
    for (const char *name : expected)
        EXPECT_NE(text.find(name), std::string::npos) << name;
}

TEST(CompilerTest, ExtendedFusionCompilesTinyBertClean)
{
    // Opt-in epilogue fusion (LUT activations, residual adds) on the
    // gelu/softmax-heavy TinyBERT: candidates must actually fuse, the
    // fused graph must be smaller, and the compile must stay clean.
    const graph::Graph g = models::buildModel(ModelId::TinyBert);
    CompileOptions fused;
    fused.enableExtendedFusion = true;
    const CompiledModel extended = compile(g, fused);
    const CompiledModel plain = compile(g);

    const PassReport *pass = extended.report.pass("graph-optimize");
    ASSERT_NE(pass, nullptr);
    EXPECT_GE(pass->counter("lut-fused"), 1u);
    // Plain compiles never report the opt-in counters.
    EXPECT_EQ(plain.report.pass("graph-optimize")->counter("lut-fused"),
              0u);

    // Each fused activation disappears as a standalone operator.
    EXPECT_EQ(extended.liveOperators,
              plain.liveOperators - pass->counter("lut-fused") -
                  pass->counter("residual-fused"));
    EXPECT_GT(extended.totals.cycles, 0u);
    EXPECT_EQ(extended.report.diagnosticCount(
                  common::DiagSeverity::Error),
              0u);
}

TEST(CompilerTest, SelectionModesRankAsExpected)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);

    CompileOptions gcd2;
    gcd2.selection = SelectionMode::Gcd2;
    CompileOptions local;
    local.selection = SelectionMode::Local;

    const uint64_t gcd2Cost =
        compile(g, gcd2).selection.totalCost;
    const uint64_t localCost =
        compile(g, local).selection.totalCost;
    // Global selection never loses to local-only decisions (Eq. 1).
    EXPECT_LE(gcd2Cost, localCost);
}

TEST(CompilerTest, PbqpModeServesEndToEnd)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);

    CompileOptions opts;
    opts.selection = SelectionMode::Pbqp;
    opts.audit = AuditMode::Deep;
    const CompiledModel compiled = compile(g, opts);
    const PipelineReport &report = compiled.report;

    // Served on the requested rung, no fallback, no audit errors.
    EXPECT_EQ(report.servedSelection, "pbqp");
    EXPECT_EQ(report.selectionRung, 0);
    EXPECT_EQ(report.diagnosticCount(common::DiagSeverity::Error), 0u);

    // The reduction-rule telemetry reaches the pass report, and the
    // counters partition the free nodes (each reduced exactly once).
    const PassReport *selection = report.pass("selection");
    ASSERT_NE(selection, nullptr);
    const uint64_t freeOps =
        report.pass("plan-table")->counter("free-operators");
    EXPECT_EQ(selection->counter("pbqp-r0") +
                  selection->counter("pbqp-r1") +
                  selection->counter("pbqp-r2") +
                  selection->counter("pbqp-rn"),
              freeOps);

    // PBQP never loses to local, and on WDSR (where gcd2 solves each
    // component exactly) it must tie the paper's solver.
    CompileOptions local;
    local.selection = SelectionMode::Local;
    CompileOptions gcd2;
    gcd2.selection = SelectionMode::Gcd2;
    const uint64_t pbqpCost = compiled.selection.totalCost;
    EXPECT_LE(pbqpCost, compile(g, local).selection.totalCost);
    if (selection->counter("pbqp-rn") == 0) {
        EXPECT_EQ(pbqpCost, compile(g, gcd2).selection.totalCost);
    }
}

TEST(CompilerTest, DeepAuditReportsTheReCostsPacks)
{
    // The deep audit re-costs the plan table through an exhaustive model
    // that packs every full-depth tile kernel. Those packs belong to the
    // audit pass's pack counters.
    vliw::PackCache::global().clear();
    dsp::DecodeCache::global().clear();
    CompileOptions opts;
    opts.audit = AuditMode::Deep;
    const CompiledModel compiled =
        compile(models::buildModel(ModelId::WdsrB), opts);
    const PassReport *audit = compiled.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_EQ(audit->counter("tier-deep-audited"), 1u);
    EXPECT_GT(audit->counter("pack-misses"), 0u);
    EXPECT_GT(audit->counter("pack-us"), 0u);
}

TEST(CompilerTest, DefaultCompileServesProvenPbqp)
{
    for (const ModelId id : {ModelId::WdsrB, ModelId::MobileNetV3}) {
        const CompiledModel compiled = compile(models::buildModel(id));
        const PassReport *selection = compiled.report.pass("selection");
        ASSERT_NE(selection, nullptr);
        EXPECT_EQ(compiled.report.servedSelection, "pbqp");
        EXPECT_EQ(compiled.report.selectionRung, 0);
        EXPECT_EQ(selection->counter("pbqp-rn"), 0u);
        EXPECT_GT(selection->counter("pbqp-r0") +
                      selection->counter("pbqp-r1") +
                      selection->counter("pbqp-r2"),
                  0u);
    }
}

TEST(CompilerTest, OptimizationTogglesReduceLatency)
{
    // Fig. 9's incremental story, checked where each optimization has
    // leverage: layout selection and packing on the layout-diverse WDSR
    // graph, the LUT optimization on the softmax/gelu-heavy TinyBERT.
    CompileOptions none;
    none.selection = SelectionMode::Uniform;
    none.cost.packOptions.policy = vliw::PackPolicy::SoftToHard;
    none.cost.unroll = kernels::UnrollStrategy::None;
    none.cost.lutOptimization = false;
    none.libraryStyleBoundaries = true;

    CompileOptions withLayout = none;
    withLayout.selection = SelectionMode::Gcd2;
    withLayout.libraryStyleBoundaries = false;

    CompileOptions withVliw = withLayout;
    withVliw.cost.packOptions.policy = vliw::PackPolicy::Sda;
    withVliw.cost.unroll = kernels::UnrollStrategy::Adaptive;

    const graph::Graph wdsr = models::buildModel(ModelId::WdsrB);
    const double t0 = compile(wdsr, none).latencyMs();
    const double t1 = compile(wdsr, withLayout).latencyMs();
    const double t2 = compile(wdsr, withVliw).latencyMs();
    EXPECT_LT(t1, t0) << "layout selection must help";
    EXPECT_LT(t2, t1) << "SDA packing + unrolling must help";

    CompileOptions withOther = withVliw;
    withOther.cost.lutOptimization = true;
    const graph::Graph bert = models::buildModel(ModelId::TinyBert);
    const double bertNoLut = compile(bert, withVliw).latencyMs();
    const double bertLut = compile(bert, withOther).latencyMs();
    EXPECT_LT(bertLut, bertNoLut) << "division/lookup vectorization must "
                                     "help softmax-heavy models";
}

TEST(FrameworksTest, SupportMatrixMatchesTableIV)
{
    EXPECT_FALSE(baselines::supportsModel(Framework::TfLite,
                                          ModelId::TinyBert));
    EXPECT_FALSE(baselines::supportsModel(Framework::TfLite,
                                          ModelId::Conformer));
    EXPECT_FALSE(
        baselines::supportsModel(Framework::Snpe, ModelId::TinyBert));
    EXPECT_FALSE(baselines::supportsModel(Framework::Snpe,
                                          ModelId::EfficientDetD0));
    EXPECT_TRUE(baselines::supportsModel(Framework::TfLite,
                                         ModelId::EfficientDetD0));
    for (const auto &info : models::allModels())
        EXPECT_TRUE(baselines::supportsModel(Framework::Gcd2, info.id));
}

TEST(FrameworksTest, Gcd2BeatsBothBaselinesOnSupportedModels)
{
    for (ModelId id : {ModelId::MobileNetV3, ModelId::ResNet50,
                       ModelId::WdsrB}) {
        const auto gcd2 = baselines::runFramework(Framework::Gcd2, id);
        const auto tflite =
            baselines::runFramework(Framework::TfLite, id);
        const auto snpe = baselines::runFramework(Framework::Snpe, id);
        ASSERT_TRUE(gcd2 && tflite && snpe);
        EXPECT_LT(gcd2->latencyMs(), snpe->latencyMs());
        EXPECT_LT(snpe->latencyMs(), tflite->latencyMs());
        // Speedups in the paper's regime (1.5x - 6x over TFLite).
        const double overT = tflite->latencyMs() / gcd2->latencyMs();
        EXPECT_GT(overT, 1.4);
        EXPECT_LT(overT, 7.0);
    }
}

TEST(FrameworksTest, Gcd2HasBestUtilizationAndBandwidth)
{
    // Fig. 8: TFLite and SNPE reach only 86-95% of GCD2's utilization
    // and bandwidth.
    const ModelId id = ModelId::ResNet50;
    const auto gcd2 = baselines::runFramework(Framework::Gcd2, id);
    const auto tflite = baselines::runFramework(Framework::TfLite, id);
    ASSERT_TRUE(gcd2 && tflite);
    EXPECT_GT(gcd2->bandwidth(), tflite->bandwidth());
}

TEST(PowerModelTest, EfficiencyRelationships)
{
    const DspPowerModel power;
    const auto gcd2 =
        baselines::runFramework(Framework::Gcd2, ModelId::ResNet50);
    const auto tflite =
        baselines::runFramework(Framework::TfLite, ModelId::ResNet50);
    ASSERT_TRUE(gcd2 && tflite);

    // GCD2 draws a bit more power (better utilization)...
    EXPECT_GE(power.watts(*gcd2), 0.95 * power.watts(*tflite));
    // ...but wins clearly on frames per Watt (Fig. 13 / Table V).
    EXPECT_GT(framesPerWatt(*gcd2, power),
              1.3 * framesPerWatt(*tflite, power));
    // Absolute power in the paper's 2-4 W window.
    EXPECT_GT(power.watts(*gcd2), 1.5);
    EXPECT_LT(power.watts(*gcd2), 4.5);
}

} // namespace
} // namespace gcd2::runtime
