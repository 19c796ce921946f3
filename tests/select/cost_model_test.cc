/**
 * @file
 * Cost-model unit tests: tile scaling exactness, memoization, the
 * optimization toggles, and per-op cost sanity.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "graph/passes.h"
#include "kernels/runner.h"
#include "models/builders.h"
#include "select/cost_model.h"

namespace gcd2::select {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::OpType;
using kernels::MatMulScheme;
using kernels::MatMulShape;

TEST(CostModelTest, TileScalingIsExactForVrmpy)
{
    // vrmpy has no drain adjustment, so the scaled tile estimate must
    // match a full kernel simulation: one tile of a column unit per
    // unroll step, and the register-blocked adaptive tile of two row
    // panels.
    struct Case
    {
        MatMulShape shape;
        kernels::UnrollStrategy strategy;
        kernels::UnrollChoice choice;
    };
    const Case cases[] = {
        // 3 panels x 3 column tiles of 2 units.
        {{96, 40, 24}, kernels::UnrollStrategy::Mid2, {1, 2, 1}},
        // 4 panels (2 blocked pairs) x 3 column tiles of 2 units.
        {{128, 40, 24}, kernels::UnrollStrategy::Adaptive, {2, 2, 2}},
    };
    const kernels::UnrollChoice adaptive =
        kernels::adaptiveUnroll(cases[1].shape, MatMulScheme::Vrmpy);
    EXPECT_EQ(adaptive.outer, 2);
    EXPECT_EQ(adaptive.cols, 2);
    EXPECT_EQ(adaptive.k, 2);
    for (const Case &c : cases) {
        CostModelOptions options;
        options.unroll = c.strategy;
        CostModel model(options);
        const NodeExecStats estimate =
            model.matmulStats(c.shape, MatMulScheme::Vrmpy, 0);

        const kernels::MatMulKernel kernel(
            c.shape, kernels::withUnroll({.scheme = MatMulScheme::Vrmpy},
                                         c.choice));
        const auto run = kernels::runKernel(
            kernel.program(), kernel.buffers(), {}, {}, options.packOptions);

        // The panel pairs and column tiles divide evenly; the only
        // inexactness is the one-time loop prologue, which scaling
        // multiplies by the tile count. Allow 5%.
        SCOPED_TRACE(kernels::unrollStrategyName(c.strategy));
        EXPECT_NEAR(static_cast<double>(estimate.cycles),
                    static_cast<double>(run.stats.cycles),
                    0.05 * static_cast<double>(run.stats.cycles));
        EXPECT_GE(estimate.cycles, run.stats.cycles); // over-estimate only
    }
}

TEST(CostModelTest, MemoizationReturnsIdenticalStats)
{
    CostModel model;
    const MatMulShape shape{128, 64, 32};
    const NodeExecStats first =
        model.matmulStats(shape, MatMulScheme::Vmpa, 0);
    const NodeExecStats second =
        model.matmulStats(shape, MatMulScheme::Vmpa, 0);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.instructions, second.instructions);
}

TEST(CostModelTest, DrainChargesGrowWithReductionDepth)
{
    CostModel model;
    // Per-MAC cost of the 16-bit schemes must grow with K (the drain),
    // while vrmpy's stays flat.
    auto perMac = [&](MatMulScheme scheme, int64_t k) {
        const MatMulShape shape{256, k, 64};
        return static_cast<double>(
                   model.matmulStats(shape, scheme, 0).cycles) /
               static_cast<double>(shape.m * shape.k * shape.n);
    };
    EXPECT_GT(perMac(MatMulScheme::Vmpa, 1024),
              1.1 * perMac(MatMulScheme::Vmpa, 32));
    EXPECT_LT(perMac(MatMulScheme::Vrmpy, 1024),
              1.1 * perMac(MatMulScheme::Vrmpy, 32));
}

TEST(CostModelTest, DrainChargeCountsEveryRowPanel)
{
    // The Outer strategy's vmpa tile spans four row panels and holds an
    // accumulator pair per column of each. Every pair drains once per 32
    // reduction steps after the first, so the one-tile estimate is the
    // tile's simulation plus 14 cycles per drain of all eight pairs.
    const MatMulShape shape{
        4 * kernels::schemeInfo(MatMulScheme::Vmpa).panelRows(), 1024, 2};
    CostModelOptions options;
    options.unroll = kernels::UnrollStrategy::Outer;
    CostModel model(options);
    const NodeExecStats estimate =
        model.matmulStats(shape, MatMulScheme::Vmpa, 0);

    const kernels::MatMulKernel kernel(
        shape, kernels::withUnroll({.scheme = MatMulScheme::Vmpa},
                                   kernels::UnrollChoice{4, 1, 1}));
    const auto run = kernels::runKernel(kernel.program(), kernel.buffers(),
                                        {}, {}, options.packOptions);
    const uint64_t drains = (1024 / 32 - 1) * 4 * 2;
    EXPECT_EQ(estimate.cycles, run.stats.cycles + 14 * drains);
}

TEST(CostModelTest, LutToggleOnlyAffectsDivisionFamilies)
{
    Graph g;
    NodeId x = models::input(g, {64, 64});
    NodeId soft = g.add(OpType::Softmax, {x});
    NodeId gelu = g.add(OpType::Gelu, {soft});
    NodeId clamp = g.add(OpType::Clamp, {gelu});
    g.add(OpType::Output, {clamp});
    graph::optimize(g);

    CostModelOptions withLut;
    withLut.lutOptimization = true;
    CostModelOptions noLut;
    noLut.lutOptimization = false;
    CostModel a(withLut), b(noLut);

    const ExecutionPlan plan; // row-major
    EXPECT_LT(a.planStats(g, soft, plan).cycles,
              b.planStats(g, soft, plan).cycles);
    EXPECT_LT(a.planStats(g, gelu, plan).cycles,
              b.planStats(g, gelu, plan).cycles);
    EXPECT_EQ(a.planStats(g, clamp, plan).cycles,
              b.planStats(g, clamp, plan).cycles);
}

TEST(CostModelTest, ZeroCostOps)
{
    Graph g;
    NodeId x = models::input(g, {4, 8});
    graph::NodeAttrs reshape;
    reshape.targetShape = {32};
    NodeId r = g.add(OpType::Reshape, {x}, reshape);
    g.add(OpType::Output, {r});
    graph::optimize(g);

    CostModel model;
    const ExecutionPlan plan;
    EXPECT_EQ(model.planStats(g, x, plan).cycles, 0u);
    EXPECT_EQ(model.planStats(g, r, plan).cycles, 0u);
}

TEST(CostModelTest, ElementwiseCostScalesWithPaddedLayout)
{
    // A 10-row tensor in the 1-column layout pads to 128 rows: the same
    // elementwise op costs ~12.8x more than in row-major.
    Graph g;
    NodeId x = models::input(g, {10, 64});
    NodeId y = g.add(OpType::Clamp, {x});
    g.add(OpType::Output, {y});
    graph::optimize(g);

    CostModel model;
    ExecutionPlan rowMajor;
    ExecutionPlan oneCol;
    oneCol.inLayout = tensor::Layout::OneColumn;
    oneCol.outLayout = tensor::Layout::OneColumn;
    const uint64_t rm = model.planStats(g, y, rowMajor).cycles;
    const uint64_t oc = model.planStats(g, y, oneCol).cycles;
    EXPECT_GT(oc, 8 * rm);
}

TEST(CostModelTest, TransformStatsConsistentWithCost)
{
    CostModel model;
    const tensor::Shape shape({128, 128});
    const uint64_t cost = model.transformCost(
        shape, tensor::Layout::OneColumn, tensor::Layout::FourColumn);
    const NodeExecStats stats = model.transformStats(
        shape, tensor::Layout::OneColumn, tensor::Layout::FourColumn);
    EXPECT_EQ(stats.cycles, cost);
    EXPECT_GT(stats.bytesLoaded, 0u);
    EXPECT_EQ(model.transformCost(shape, tensor::Layout::RowMajor,
                                  tensor::Layout::RowMajor),
              0u);
}

TEST(CostModelTest, BatchMatMulScalesLinearly)
{
    Graph g;
    NodeId x = models::input(g, {4, 32, 48}); // batch of 4
    NodeId w = models::constant(g, {48, 16});
    NodeId y = g.add(OpType::MatMul, {x, w});
    g.add(OpType::Output, {y});
    graph::optimize(g);

    Graph g1;
    NodeId x1 = models::input(g1, {1, 32, 48});
    NodeId w1 = models::constant(g1, {48, 16});
    NodeId y1 = g1.add(OpType::MatMul, {x1, w1});
    g1.add(OpType::Output, {y1});
    graph::optimize(g1);

    CostModel model;
    ExecutionPlan plan;
    plan.scheme = MatMulScheme::Vrmpy;
    plan.inLayout = plan.outLayout = tensor::Layout::FourColumn;
    const uint64_t batched = model.planStats(g, y, plan).cycles;
    const uint64_t single = model.planStats(g1, y1, plan).cycles;
    EXPECT_EQ(batched, 4 * single);
}

TEST(CostModelTest, StatScalingSaturatesInsteadOfOverflowing)
{
    // A double product at or past 2^64 has no uint64_t value, and
    // converting it is undefined behaviour, so scaling clamps at
    // UINT64_MAX.
    NodeExecStats stats;
    stats.cycles = 1000;
    stats.instructions = 1;
    stats.packets = 0;
    stats.bytesLoaded = UINT64_MAX;
    stats.bytesStored = 7;
    const NodeExecStats huge = stats.scaled(1e30);
    EXPECT_EQ(huge.cycles, UINT64_MAX);
    EXPECT_EQ(huge.instructions, UINT64_MAX);
    EXPECT_EQ(huge.packets, 0u);
    EXPECT_EQ(huge.bytesLoaded, UINT64_MAX);
    EXPECT_EQ(huge.bytesStored, UINT64_MAX);
    EXPECT_EQ(scaleSaturating(UINT64_MAX, 1.0), UINT64_MAX);
    EXPECT_EQ(scaleSaturating(UINT64_MAX, 0.0), 0u);

    // Below the limit nothing changes: truncation toward zero, as before.
    EXPECT_EQ(stats.scaled(2.5).cycles, 2500u);
    EXPECT_EQ(stats.scaled(0.5).bytesStored, 3u);
    EXPECT_EQ(scaleSaturating(uint64_t{1} << 52, 3.0),
              uint64_t{3} << 52);

    // Only finite, non-negative factors are meaningful.
    EXPECT_THROW(stats.scaled(-1.0), FatalError);
    EXPECT_THROW(stats.scaled(std::nan("")), FatalError);
    EXPECT_THROW(stats.scaled(HUGE_VAL), FatalError);

    // Sums saturate at the limit instead of wrapping.
    NodeExecStats sum;
    sum.cycles = UINT64_MAX - 1;
    sum.packets = 5;
    NodeExecStats more;
    more.cycles = 2;
    more.packets = 6;
    sum += more;
    EXPECT_EQ(sum.cycles, UINT64_MAX);
    EXPECT_EQ(sum.packets, 11u);
    sum += more;
    EXPECT_EQ(sum.cycles, UINT64_MAX);
    EXPECT_EQ(addSaturating(UINT64_MAX, UINT64_MAX), UINT64_MAX);
}

} // namespace
} // namespace gcd2::select
