/**
 * @file
 * Complexity regression test for the graph-optimize pipeline: layout-
 * transform elimination must do work linear in graph size, not rescan
 * the graph per rewrite. The test times optimize() on a synthetic
 * transformer-like graph at N and 8N blocks, interleaved and best of 5,
 * and bounds the ratio. Linear scaling gives about 8; one whole-graph
 * pass per rewrite gives about 64. Being a same-process ratio, the
 * bound holds across hosts, build types and sanitizers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/timer.h"
#include "graph/passes.h"
#include "models/builders.h"

namespace gcd2::graph {
namespace {

/** Encoder layers with a Conformer-style convolution module: every
 *  block carries head split/merge transforms over matmuls, a transpose
 *  and view pair around a depthwise conv, and a clamp between them. */
Graph
transformerBlocks(int blocks)
{
    const int64_t seq = 16;
    const int64_t hidden = 32;
    Graph g;
    NodeId x = models::input(g, {seq, hidden});
    for (int block = 0; block < blocks; ++block) {
        x = models::transformerLayer(g, x, seq, hidden, /*heads=*/4,
                                     /*ffn=*/2 * hidden);
        NodeAttrs perm;
        perm.perm = {1, 0};
        NodeId t = g.add(OpType::Transpose,
                         {models::dense(g, x, hidden)}, perm);
        NodeAttrs view;
        view.targetShape = {hidden, seq, 1};
        NodeAttrs dw;
        dw.kH = 3;
        dw.padH = 1;
        NodeId conv = g.add(OpType::DepthwiseConv2D,
                            {g.add(OpType::Reshape, {t}, view)}, dw);
        NodeAttrs back;
        back.targetShape = {hidden, seq};
        NodeId flat = g.add(OpType::Reshape,
                            {g.add(OpType::Clamp, {conv})}, back);
        x = models::add(g, x, g.add(OpType::Transpose, {flat}, perm));
    }
    g.add(OpType::Output, {x});
    inferShapes(g);
    return g;
}

TEST(GraphOptimizeComplexityTest, TransformEliminationScalesLinearly)
{
    constexpr int kBlocks = 16;
    const Graph graphs[2] = {transformerBlocks(kBlocks),
                             transformerBlocks(8 * kBlocks)};
    OptimizeOptions options;
    options.eliminateLayoutTransforms = true;
    double best[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
    int64_t eliminated[2] = {0, 0};
    for (int rep = 0; rep < 5; ++rep) {
        for (int which = 0; which < 2; ++which) {
            Graph g = graphs[which];
            const Timer timer;
            const PassStats stats = optimize(g, options);
            best[which] = std::min(best[which], timer.seconds());
            eliminated[which] =
                stats.cancelledTransforms + stats.fusedTransforms;
        }
    }
    // The large graph really is 8x the rewrite work.
    ASSERT_GT(eliminated[0], 0);
    EXPECT_EQ(eliminated[1], 8 * eliminated[0]);
    EXPECT_LT(best[1] / best[0], 20.0)
        << "optimize: " << best[0] * 1e3 << " ms at " << kBlocks
        << " blocks, " << best[1] * 1e3 << " ms at " << 8 * kBlocks;
}

} // namespace
} // namespace gcd2::graph
