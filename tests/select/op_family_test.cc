/**
 * @file
 * Op-family table coverage: every operator kind costs and serves through
 * the table (select/plan.h) without reaching a panic, serves a program
 * exactly when its recipe has a kernel, and -- outside the matmul family,
 * whose tiles are served by transplantation -- serves the very program
 * its first kernel's cost-cache entry was simulated from.
 */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "graph/passes.h"
#include "kernels/runner.h"
#include "models/builders.h"
#include "select/cost_model.h"

namespace gcd2::select {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::OpType;

/** Add one node of @p op over small inputs to @p g; returns its id. */
NodeId
addOp(Graph &g, OpType op)
{
    const NodeId x = models::input(g, {8, 6, 6});
    graph::NodeAttrs attrs;
    switch (op) {
      case OpType::Input:
        return x;
      case OpType::Constant:
        return models::constant(g, {8, 6, 6});
      case OpType::Output:
        return g.add(OpType::Output, {x});
      case OpType::Conv2D:
        return models::conv(g, x, 16, 3, 1, 1, /*relu=*/false);
      case OpType::DepthwiseConv2D:
        return models::dwConv(g, x, 3, 2, 1, /*relu=*/false);
      case OpType::MatMul:
        return models::dense(g, models::input(g, {16, 32}), 24);
      case OpType::Add:
      case OpType::Mul:
      case OpType::Sub:
      case OpType::Div:
        return g.add(op, {x, x});
      case OpType::Pow:
        attrs.exponent = 2.0;
        return g.add(op, {x}, attrs);
      case OpType::Clamp:
      case OpType::Sigmoid:
      case OpType::Tanh:
      case OpType::Gelu:
      case OpType::Softmax:
      case OpType::GlobalAvgPool:
      case OpType::Upsample:
      case OpType::LayerNorm:
        return g.add(op, {x});
      case OpType::MaxPool:
      case OpType::AvgPool:
        attrs.poolK = 3;
        attrs.poolStride = 2;
        return g.add(op, {x}, attrs);
      case OpType::Reshape:
        attrs.targetShape = {48, 6};
        return g.add(op, {x}, attrs);
      case OpType::Transpose:
        attrs.perm = {0, 2, 1};
        return g.add(op, {x}, attrs);
      case OpType::Concat:
        attrs.axis = 0;
        return g.add(op, {x, x}, attrs);
      case OpType::kNumOps:
        break;
    }
    GCD2_PANIC("no test graph for op " << static_cast<int>(op));
}

/** The runner buffers a served kernel declares (its noalias extents
 *  are the runner's segments, see KernelBuffers::segments). */
kernels::KernelBuffers
declaredBuffers(const dsp::Program &program)
{
    kernels::KernelBuffers buffers;
    for (size_t i = 0; i < program.noaliasRegs.size(); ++i) {
        const int64_t extent = program.noaliasExtents[i];
        switch (program.noaliasRegs[i]) {
          case kernels::kRegInput:
            buffers.inputBytes = extent;
            break;
          case kernels::kRegWeights:
            buffers.weightBytes = extent;
            break;
          case kernels::kRegOutput:
            buffers.outputBytes = extent;
            break;
          case kernels::kRegScratch:
            buffers.scratchBytes = extent;
            break;
        }
    }
    return buffers;
}

void
expectSameStats(const NodeExecStats &a, const NodeExecStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.bytesLoaded, b.bytesLoaded);
    EXPECT_EQ(a.bytesStored, b.bytesStored);
}

TEST(OpFamilyTest, EveryOpCostsAndServesThroughTheTable)
{
    for (int i = 0; i < static_cast<int>(OpType::kNumOps); ++i) {
        const auto op = static_cast<OpType>(i);
        Graph g;
        const NodeId id = addOp(g, op);
        if (op != OpType::Output)
            g.add(OpType::Output, {id});
        graph::inferShapes(g);

        for (bool lut : {true, false}) {
            CostModelOptions options;
            options.lutOptimization = lut;
            const auto cache = std::make_shared<CostCache>();
            const CostModel model(options, cache);
            for (const ExecutionPlan &plan : enumeratePlans(g, id)) {
                SCOPED_TRACE(testing::Message()
                             << graph::opTypeName(op) << " lut=" << lut
                             << " layout="
                             << static_cast<int>(plan.inLayout));
                std::shared_ptr<const dsp::PackedProgram> served;
                EXPECT_NO_THROW(model.planStats(g, id, plan));
                EXPECT_NO_THROW(served =
                                    model.canonicalSchedule(g, id, plan));
                const PlanRecipe recipe = planRecipe(g, id, plan, lut);
                EXPECT_EQ(served != nullptr, !recipe.kernels.empty());
                if (!served || graph::isMatMulFamily(op))
                    continue;

                // planStats filled the first kernel's entry; a second
                // simulation would mean the key differs.
                const KernelTerm &first = recipe.kernels.front();
                const NodeExecStats entry = cache->lookupOrCompute(
                    model.kernelKey(first), [] {
                        ADD_FAILURE() << "first kernel was never costed";
                        return NodeExecStats{};
                    });
                const kernels::KernelRunResult run = kernels::runPackedKernel(
                    served, declaredBuffers(served->program), {}, {});
                NodeExecStats simulated;
                simulated.cycles = run.stats.cycles;
                simulated.instructions = run.stats.instructionsExecuted;
                simulated.packets = run.stats.packetsExecuted;
                simulated.bytesLoaded = run.stats.bytesLoaded;
                simulated.bytesStored = run.stats.bytesStored;
                // The depthwise entry is per output row of its two-row
                // canonical tile.
                if (first.kind == CostKind::DepthwiseRow)
                    simulated = simulated.scaled(0.5);
                expectSameStats(entry, simulated);
            }
        }
    }
    EXPECT_THROW(opFamily(OpType::kNumOps), PanicError);
}

TEST(OpFamilyTest, UniformPlanIndexPicksTheSchemeOrTheRowMajorPlan)
{
    Graph g;
    const NodeId x = models::input(g, {16, 8, 8});
    const NodeId c = models::conv(g, x, 16, 1, 1, 0, /*relu=*/false);
    const NodeId a = g.add(OpType::Add, {c, x});
    g.add(OpType::Output, {a});
    graph::inferShapes(g);

    for (kernels::MatMulScheme scheme :
         {kernels::MatMulScheme::Vmpy, kernels::MatMulScheme::Vmpa,
          kernels::MatMulScheme::Vrmpy}) {
        const std::vector<ExecutionPlan> convPlans = enumeratePlans(g, c);
        EXPECT_EQ(convPlans[static_cast<size_t>(
                                uniformPlanIndex(OpType::Conv2D, scheme))]
                      .scheme,
                  scheme);
        const std::vector<ExecutionPlan> addPlans = enumeratePlans(g, a);
        EXPECT_EQ(addPlans[static_cast<size_t>(
                               uniformPlanIndex(OpType::Add, scheme))]
                      .inLayout,
                  tensor::Layout::RowMajor);
        EXPECT_EQ(uniformPlanIndex(OpType::Softmax, scheme), 0);
    }
}

} // namespace
} // namespace gcd2::select
