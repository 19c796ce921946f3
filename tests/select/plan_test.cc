/**
 * @file
 * Plan-enumeration (op-family table) and matrix-view tests.
 */
#include <gtest/gtest.h>

#include "graph/passes.h"
#include "models/builders.h"
#include "select/plan.h"

namespace gcd2::select {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::OpType;

TEST(PlanTest, MatrixViewFollowsLastDimension)
{
    MatrixView view = matrixView(tensor::Shape({64, 56, 56}));
    EXPECT_EQ(view.cols, 56);
    EXPECT_EQ(view.rows, 64 * 56);

    view = matrixView(tensor::Shape({128, 312}));
    EXPECT_EQ(view.rows, 128);
    EXPECT_EQ(view.cols, 312);

    view = matrixView(tensor::Shape({7}));
    EXPECT_EQ(view.rows, 1);
    EXPECT_EQ(view.cols, 7);

    view = matrixView(tensor::Shape({}));
    EXPECT_EQ(view.rows, 1);
    EXPECT_EQ(view.cols, 1);
}

TEST(PlanTest, LayoutAgnosticClassification)
{
    const auto planSet = [](OpType op) { return opFamily(op).plans; };
    EXPECT_EQ(planSet(OpType::Add), PlanSet::PerLayout);
    EXPECT_EQ(planSet(OpType::Sigmoid), PlanSet::PerLayout);
    EXPECT_EQ(planSet(OpType::Pow), PlanSet::PerLayout);
    EXPECT_EQ(planSet(OpType::Conv2D), PlanSet::PerScheme);
    EXPECT_EQ(planSet(OpType::Softmax), PlanSet::RowMajor);
    EXPECT_EQ(planSet(OpType::Reshape), PlanSet::RowMajor);
    EXPECT_EQ(planSet(OpType::MaxPool), PlanSet::RowMajor);
}

TEST(PlanTest, EnumerationPerOpFamily)
{
    Graph g;
    NodeId x = models::input(g, {16, 8, 8});
    NodeId c = models::conv(g, x, 16, 1, 1, 0, false);
    NodeId a = g.add(OpType::Add, {c, x});
    graph::NodeAttrs pool;
    pool.poolK = 2;
    pool.poolStride = 2;
    NodeId p = g.add(OpType::MaxPool, {a}, pool);
    g.add(OpType::Output, {p});
    graph::optimize(g);

    // Conv: one plan per SIMD scheme, layouts bound to the scheme.
    ASSERT_EQ(opFamily(OpType::Conv2D).plans, PlanSet::PerScheme);
    const auto convPlans = enumeratePlans(g, c);
    ASSERT_EQ(convPlans.size(), 3u);
    EXPECT_EQ(convPlans[0].inLayout, tensor::Layout::OneColumn);
    EXPECT_EQ(convPlans[1].inLayout, tensor::Layout::TwoColumn);
    EXPECT_EQ(convPlans[2].inLayout, tensor::Layout::FourColumn);
    for (const auto &plan : convPlans) {
        EXPECT_EQ(plan.inLayout, plan.outLayout);
        EXPECT_NE(plan.inLayout, tensor::Layout::RowMajor);
    }

    // Elementwise: one layout-preserving plan per layout.
    ASSERT_EQ(opFamily(OpType::Add).plans, PlanSet::PerLayout);
    const auto addPlans = enumeratePlans(g, a);
    ASSERT_EQ(addPlans.size(), 4u);
    EXPECT_EQ(addPlans[0].inLayout, tensor::Layout::RowMajor);
    for (const auto &plan : addPlans)
        EXPECT_EQ(plan.inLayout, plan.outLayout);

    // Layout-pinned: exactly one row-major plan.
    ASSERT_EQ(opFamily(OpType::MaxPool).plans, PlanSet::RowMajor);
    const auto poolPlans = enumeratePlans(g, p);
    ASSERT_EQ(poolPlans.size(), 1u);
    EXPECT_EQ(poolPlans[0].inLayout, tensor::Layout::RowMajor);
    EXPECT_EQ(poolPlans[0].outLayout, tensor::Layout::RowMajor);
}

TEST(PlanTest, RemainingShapeInferenceBranches)
{
    Graph g;
    NodeId x = models::input(g, {8, 6, 6});
    NodeId gap = g.add(OpType::GlobalAvgPool, {x});
    NodeId up = g.add(OpType::Upsample, {x});
    graph::NodeAttrs powAttrs;
    powAttrs.exponent = 2.0;
    NodeId pow = g.add(OpType::Pow, {x}, powAttrs);
    NodeId scale = models::constant(g, {1});
    NodeId div = g.add(OpType::Div, {pow, scale});
    graph::NodeAttrs cat;
    cat.axis = 0;
    NodeId out = g.add(OpType::Concat, {up, up}, cat);
    g.add(OpType::Output, {out});
    g.add(OpType::Output, {gap});
    g.add(OpType::Output, {div});
    graph::inferShapes(g);

    EXPECT_EQ(g.node(gap).shape, tensor::Shape({8, 1, 1}));
    EXPECT_EQ(g.node(up).shape, tensor::Shape({8, 12, 12}));
    EXPECT_EQ(g.node(pow).shape, tensor::Shape({8, 6, 6}));
    EXPECT_EQ(g.node(div).shape, tensor::Shape({8, 6, 6}));
    EXPECT_EQ(g.node(out).shape, tensor::Shape({16, 12, 12}));
}

} // namespace
} // namespace gcd2::select
