/**
 * @file
 * Compile-time concurrency must be invisible in the output: compiling a
 * model with one worker thread and with many must yield bit-identical
 * selections, costs, cycle counts, serialized artifacts, and
 * diagnostics. This is the contract documented on
 * CompileOptions::numThreads -- partitions are independent subproblems
 * and kernel simulations are pure functions of their cache keys, so
 * thread count may only change wall-clock compile time.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "models/zoo.h"
#include "runtime/compiler.h"
#include "service/artifact_store.h"

namespace gcd2::runtime {
namespace {

using models::ModelId;

CompileOptions
withThreads(int numThreads)
{
    CompileOptions options;
    options.numThreads = numThreads;
    return options;
}

void
expectIdentical(const CompiledModel &serial, const CompiledModel &threaded)
{
    EXPECT_EQ(serial.selection.planIndex, threaded.selection.planIndex);
    EXPECT_EQ(serial.selection.totalCost, threaded.selection.totalCost);
    EXPECT_EQ(serial.selector.evaluations, threaded.selector.evaluations);
    EXPECT_EQ(serial.totals.cycles, threaded.totals.cycles);
    EXPECT_EQ(serial.totals.instructions, threaded.totals.instructions);
    EXPECT_EQ(serial.totals.packets, threaded.totals.packets);
    EXPECT_EQ(serial.totals.bytesLoaded, threaded.totals.bytesLoaded);
    EXPECT_EQ(serial.totals.bytesStored, threaded.totals.bytesStored);
    EXPECT_EQ(serial.transformOnly.cycles, threaded.transformOnly.cycles);
    EXPECT_EQ(serial.nodeCycles, threaded.nodeCycles);
    EXPECT_EQ(serial.demandBytes, threaded.demandBytes);
    EXPECT_EQ(serial.totalMacs, threaded.totalMacs);
}

/** Plan-table tier counters: which tile classes were certified and how
 *  each tile cost was obtained. Every tile class is filled by exactly
 *  one task, so these must not depend on thread timing either. */
std::vector<uint64_t>
tierCounters(const CompiledModel &model)
{
    const PassReport *pass = model.report.pass("plan-table");
    if (pass == nullptr)
        return {};
    std::vector<uint64_t> values;
    for (const char *name :
         {"plans-derived", "plans-simulated", "anchor-sims",
          "transplanted-packs", "tier-classes-certified",
          "tier-classes-uncertified"})
        values.push_back(pass->counter(name));
    return values;
}

/** Kernel simulations per pass: distinct cost-cache keys, each
 *  simulated once however many threads miss on it together. */
std::vector<uint64_t>
kernelSims(const CompiledModel &model)
{
    std::vector<uint64_t> values;
    for (const PassReport &pass : model.report.passes)
        values.push_back(pass.counter("kernel-sims"));
    return values;
}

std::vector<std::string>
diagnosticLines(const CompiledModel &model)
{
    std::vector<std::string> lines;
    for (const common::Diag &diag : model.report.diagnostics)
        lines.push_back(diag.toString());
    return lines;
}

TEST(DeterminismTest, ThreadCountDoesNotChangeCompilationResults)
{
    // The whole zoo: branchy CNNs, super-resolution (layout-diverse),
    // and transformers exercise every selector path (partitioned solve,
    // chunked polish windows, pinned boundaries) and every kernel family.
    // Conformer and EfficientDet-d0 retain the most schedules and
    // dead-code rewrites, which kernel generation and the audit spread
    // over the pool.
    for (const models::ModelInfo &info : models::allModels()) {
        const ModelId id = info.id;
        const graph::Graph g = models::buildModel(id);
        const CompiledModel serial = compile(g, withThreads(1));
        const std::vector<uint8_t> serialBytes =
            service::serializeModel(serial);
        for (int threads : {2, 4, 8}) {
            const CompiledModel threaded = compile(g, withThreads(threads));
            SCOPED_TRACE(testing::Message()
                         << models::modelInfo(id).name << " with "
                         << threads << " threads");
            expectIdentical(serial, threaded);
            EXPECT_EQ(service::serializeModel(threaded), serialBytes);
            EXPECT_EQ(diagnosticLines(threaded), diagnosticLines(serial));
            EXPECT_EQ(tierCounters(threaded), tierCounters(serial));
            EXPECT_EQ(kernelSims(threaded), kernelSims(serial));
        }
        EXPECT_GT(tierCounters(serial).at(0), 0u); // plans-derived
    }
}

TEST(DeterminismTest, RepeatedCompilesAreBitIdentical)
{
    // No hidden global mutable state: the same input and options give the
    // same output, compile after compile, threaded or not.
    const graph::Graph g = models::buildModel(ModelId::EfficientNetB0);
    const CompiledModel first = compile(g, withThreads(4));
    const CompiledModel second = compile(g, withThreads(4));
    expectIdentical(first, second);
}

TEST(DeterminismTest, SharedCostCacheDoesNotChangeResults)
{
    // A warm cross-compile cache skips simulations but must never change
    // what they would have returned.
    const graph::Graph g = models::buildModel(ModelId::FST);
    const CompiledModel cold = compile(g, withThreads(2));

    CompileOptions shared = withThreads(2);
    shared.costCache = std::make_shared<select::CostCache>();
    const CompiledModel warmup = compile(g, shared);
    const CompiledModel warm = compile(g, shared);
    expectIdentical(cold, warmup);
    expectIdentical(cold, warm);
    EXPECT_GT(shared.costCache->hits(), 0u);
}

} // namespace
} // namespace gcd2::runtime
