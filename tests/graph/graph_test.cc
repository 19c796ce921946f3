/**
 * @file
 * Computational-graph IR tests: construction, shape inference, passes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <utility>

#include "graph/passes.h"
#include "models/builders.h"
#include "models/zoo.h"

namespace gcd2::graph {
namespace {

using models::add;
using models::constant;
using models::conv;
using models::dense;
using models::input;

TEST(GraphTest, TopologicalAppendEnforced)
{
    Graph g;
    const NodeId x = input(g, {3, 8, 8});
    EXPECT_NO_THROW(g.add(OpType::Clamp, {x}));
    EXPECT_THROW(g.add(OpType::Clamp, {99}), FatalError);
}

TEST(GraphTest, ConvShapeInference)
{
    Graph g;
    NodeId x = input(g, {3, 224, 224});
    x = conv(g, x, 64, 7, 2, 3, /*relu=*/false);
    inferShapes(g);
    EXPECT_EQ(g.node(x).shape, tensor::Shape({64, 112, 112}));

    NodeId y = conv(g, x, 64, 3, 1, 1, false);
    NodeAttrs pool;
    pool.poolK = 2;
    pool.poolStride = 2;
    NodeId p = g.add(OpType::MaxPool, {y}, pool);
    inferShapes(g);
    EXPECT_EQ(g.node(p).shape, tensor::Shape({64, 56, 56}));
}

TEST(GraphTest, MatMulShapeInference)
{
    Graph g;
    NodeId x = input(g, {128, 312});
    NodeId w = constant(g, {312, 64});
    NodeId y = g.add(OpType::MatMul, {x, w});
    inferShapes(g);
    EXPECT_EQ(g.node(y).shape, tensor::Shape({128, 64}));

    // Transposed weights.
    NodeId wt = constant(g, {64, 312});
    NodeAttrs attrs;
    attrs.transposeB = true;
    NodeId z = g.add(OpType::MatMul, {x, wt}, attrs);
    inferShapes(g);
    EXPECT_EQ(g.node(z).shape, tensor::Shape({128, 64}));

    // Mismatched reduction throws.
    NodeId bad = constant(g, {100, 10});
    g.add(OpType::MatMul, {x, bad});
    EXPECT_THROW(inferShapes(g), FatalError);
}

TEST(GraphTest, ReshapeValidation)
{
    Graph g;
    NodeId x = input(g, {4, 6});
    NodeAttrs ok;
    ok.targetShape = {24};
    g.add(OpType::Reshape, {x}, ok);
    EXPECT_NO_THROW(inferShapes(g));

    NodeAttrs bad;
    bad.targetShape = {25};
    g.add(OpType::Reshape, {x}, bad);
    EXPECT_THROW(inferShapes(g), FatalError);
}

TEST(GraphTest, TransposeAndConcat)
{
    Graph g;
    NodeId x = input(g, {2, 3, 5});
    NodeAttrs perm;
    perm.perm = {2, 0, 1};
    NodeId t = g.add(OpType::Transpose, {x}, perm);
    NodeId y = input(g, {5, 2, 4});
    NodeAttrs cat;
    cat.axis = 2;
    NodeId c = g.add(OpType::Concat, {t, y}, cat);
    inferShapes(g);
    EXPECT_EQ(g.node(t).shape, tensor::Shape({5, 2, 3}));
    EXPECT_EQ(g.node(c).shape, tensor::Shape({5, 2, 7}));
}

TEST(PassesTest, ClampFusionRequiresSingleConsumer)
{
    Graph g;
    NodeId x = input(g, {8, 16, 16});
    NodeId c1 = conv(g, x, 8, 3, 1, 1, /*relu=*/true); // conv + clamp
    // The clamp is the conv's only consumer: fused.
    NodeId out = g.add(OpType::Output, {c1});
    (void)out;
    inferShapes(g);
    const int64_t fused = fuseClampActivations(g);
    EXPECT_EQ(fused, 1);

    // Rebuild with a second consumer of the conv: no fusion.
    Graph g2;
    NodeId x2 = input(g2, {8, 16, 16});
    NodeId convOut = conv(g2, x2, 8, 3, 1, 1, /*relu=*/false);
    NodeAttrs clamp;
    NodeId act = g2.add(OpType::Clamp, {convOut}, clamp);
    NodeId sum = add(g2, act, convOut); // conv has two consumers
    g2.add(OpType::Output, {sum});
    inferShapes(g2);
    EXPECT_EQ(fuseClampActivations(g2), 0);
}

/** Clamp range applied to the value @p id produces: a live Clamp
 *  narrows its input's range, a fused producer applies its own. */
std::pair<int, int>
effectiveClamp(const Graph &g, NodeId id)
{
    const Node &node = g.node(id);
    if (node.op == OpType::Clamp) {
        const auto [lo, hi] = effectiveClamp(g, node.inputs[0]);
        return {std::max(lo, node.attrs.clampLo),
                std::min(hi, node.attrs.clampHi)};
    }
    if (node.attrs.fusedClamp)
        return {node.attrs.fusedLo, node.attrs.fusedHi};
    return {INT_MIN, INT_MAX};
}

/** MatMul -> Clamp[0,6] -> Clamp[3,100] -> Output, optionally with the
 *  first clamp feeding a second Output. */
struct ClampChain
{
    Graph g;
    NodeId mm = kInvalidNode;
    NodeId second = kInvalidNode;
    NodeId out1 = kInvalidNode;
    NodeId out2 = kInvalidNode;

    explicit ClampChain(bool fanOut)
    {
        const NodeId x = input(g, {16, 32});
        const NodeId w = constant(g, {32, 8});
        mm = g.add(OpType::MatMul, {x, w});
        NodeAttrs first;
        first.clampLo = 0;
        first.clampHi = 6;
        const NodeId c1 = g.add(OpType::Clamp, {mm}, first);
        NodeAttrs next;
        next.clampLo = 3;
        next.clampHi = 100;
        second = g.add(OpType::Clamp, {c1}, next);
        out1 = g.add(OpType::Output, {second});
        if (fanOut)
            out2 = g.add(OpType::Output, {c1});
        optimize(g);
    }
};

TEST(PassesTest, ClampFusionSeesFanOutCreatedByAnEarlierFusion)
{
    // Fusing the first clamp gives the matmul two consumers, so the
    // second clamp must stay a node and each output keeps its range.
    const ClampChain chain(/*fanOut=*/true);
    const Graph &g = chain.g;
    EXPECT_FALSE(g.node(chain.second).dead);
    EXPECT_EQ(g.node(chain.out2).inputs[0], chain.mm);
    EXPECT_EQ(effectiveClamp(g, g.node(chain.out1).inputs[0]),
              std::make_pair(3, 6));
    EXPECT_EQ(effectiveClamp(g, g.node(chain.out2).inputs[0]),
              std::make_pair(0, 6));
}

TEST(PassesTest, ClampFusionNeverOverwritesAFusedClamp)
{
    // A single-consumer chain: the second clamp must not replace the
    // first clamp's bounds in the matmul epilogue.
    const ClampChain chain(/*fanOut=*/false);
    const Graph &g = chain.g;
    EXPECT_TRUE(g.node(chain.mm).attrs.fusedClamp);
    EXPECT_EQ(g.node(chain.mm).attrs.fusedLo, 0);
    EXPECT_EQ(g.node(chain.mm).attrs.fusedHi, 6);
    EXPECT_FALSE(g.node(chain.second).dead);
    EXPECT_EQ(effectiveClamp(g, g.node(chain.out1).inputs[0]),
              std::make_pair(3, 6));
}

TEST(PassesTest, ConstantFoldingAndDce)
{
    Graph g;
    NodeId x = input(g, {4, 4});
    NodeId w = constant(g, {4, 4});
    NodeAttrs perm;
    perm.perm = {1, 0};
    NodeId wt = g.add(OpType::Transpose, {w}, perm); // fold candidate
    NodeId y = g.add(OpType::MatMul, {x, wt});
    NodeId orphan = g.add(OpType::Clamp, {x}); // dead
    (void)orphan;
    g.add(OpType::Output, {y});

    const PassStats stats = optimize(g);
    EXPECT_EQ(stats.foldedNodes, 1);
    // Removed: the orphan clamp AND the source constant w, which lost its
    // only consumer when the transpose was folded.
    EXPECT_EQ(stats.removedNodes, 2);
    EXPECT_EQ(g.node(wt).op, OpType::Constant);
    EXPECT_TRUE(g.node(orphan).dead);
}

TEST(PassesTest, ZooGraphsAreFixpointsOfDefaultOptimize)
{
    // The model builders already ran fold/fuse/DCE, so the compile's
    // graph-optimize pass (transform elimination aside) leaves their
    // graphs as built.
    for (const models::ModelInfo &info : models::allModels()) {
        Graph g = models::buildModel(info.id);
        const PassStats stats = optimize(g);
        EXPECT_EQ(stats.foldedNodes, 0) << info.name;
        EXPECT_EQ(stats.fusedActivations, 0) << info.name;
        EXPECT_EQ(stats.removedNodes, 0) << info.name;
    }
}

TEST(PassesTest, MacAccounting)
{
    Graph g;
    NodeId x = input(g, {3, 8, 8});
    NodeId c = conv(g, x, 16, 3, 1, 1, false);
    g.add(OpType::Output, {c});
    inferShapes(g);
    // 16 out channels * 8*8 spatial * 3 in * 3*3 kernel.
    EXPECT_EQ(g.nodeMacs(c), 16 * 64 * 3 * 9);
    EXPECT_EQ(g.totalMacs(), g.nodeMacs(c));
}

} // namespace
} // namespace gcd2::graph
