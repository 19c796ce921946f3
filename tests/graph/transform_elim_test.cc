/**
 * @file
 * Layout-transform elimination tests.
 *
 * Directed cases exercise each rewrite rule in isolation -- inverse-pair
 * cancel, sink-through-elementwise (unary, matched binary, scalar
 * broadcast), and fuse-into-producer -- and a seeded fuzzer builds random
 * transform-heavy chains and checks that elimination preserves graph
 * semantics exactly, using a test-local reference evaluator (transforms,
 * elementwise, and activations over synthetic per-node data). A second
 * fuzzer and the zoo graphs check the library's linear-time sweep
 * against the original rescan-to-fixpoint implementation, kept here as
 * the reference: same nodes, same counters.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/rng.h"
#include "graph/passes.h"
#include "models/builders.h"
#include "models/zoo.h"

namespace gcd2::graph {
namespace {

using models::constant;
using models::input;

/** Row-major linear index -> multi-coordinate for @p dims. */
std::vector<int64_t>
coordsOf(int64_t index, const std::vector<int64_t> &dims)
{
    std::vector<int64_t> c(dims.size(), 0);
    for (size_t i = dims.size(); i-- > 0;) {
        c[i] = index % dims[i];
        index /= dims[i];
    }
    return c;
}

int64_t
indexOf(const std::vector<int64_t> &c, const std::vector<int64_t> &dims)
{
    int64_t index = 0;
    for (size_t i = 0; i < dims.size(); ++i)
        index = index * dims[i] + c[i];
    return index;
}

/**
 * Reference evaluator over float tensors for the op subset the
 * elimination rules touch. Source nodes (Input / Constant) synthesize
 * deterministic data from their node id, so the same source produces the
 * same values before and after the rewrite regardless of where the graph
 * surgery moved its consumers.
 */
class RefEvaluator
{
  public:
    std::map<NodeId, std::vector<float>>
    evaluate(const Graph &graph) const
    {
        std::map<NodeId, std::vector<float>> values;
        for (const Node &node : graph.nodes()) {
            if (node.dead)
                continue;
            values[node.id] = evalNode(graph, node, values);
        }
        return values;
    }

    /** Values feeding each live Output node, in node order. */
    std::vector<std::vector<float>>
    outputs(const Graph &graph) const
    {
        const auto values = evaluate(graph);
        std::vector<std::vector<float>> outs;
        for (const Node &node : graph.nodes())
            if (!node.dead && node.op == OpType::Output)
                outs.push_back(values.at(node.id));
        return outs;
    }

  private:
    static std::vector<float>
    sourceData(const Node &node)
    {
        const int64_t n = node.shape.elements();
        std::vector<float> data(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            data[static_cast<size_t>(i)] = static_cast<float>(
                ((static_cast<int64_t>(node.id) * 131 + i * 7919) % 251) -
                125);
        return data;
    }

    std::vector<float>
    evalNode(const Graph &graph, const Node &node,
             const std::map<NodeId, std::vector<float>> &values) const
    {
        switch (node.op) {
          case OpType::Input:
          case OpType::Constant:
            return sourceData(node);
          case OpType::Output:
          case OpType::Reshape:
            // Row-major view change: same values, same order.
            return values.at(node.inputs[0]);
          case OpType::Transpose: {
            const Node &src = graph.node(node.inputs[0]);
            const std::vector<float> &in = values.at(node.inputs[0]);
            const std::vector<int64_t> inDims = src.shape.dims();
            const std::vector<int64_t> outDims = node.shape.dims();
            std::vector<float> out(in.size());
            // out dims: outDims[i] = inDims[perm[i]]; out coordinate
            // c'[i] = c[perm[i]].
            for (int64_t idx = 0;
                 idx < static_cast<int64_t>(in.size()); ++idx) {
                const auto c = coordsOf(idx, inDims);
                std::vector<int64_t> cp(c.size());
                for (size_t i = 0; i < c.size(); ++i)
                    cp[i] = c[static_cast<size_t>(node.attrs.perm[i])];
                out[static_cast<size_t>(indexOf(cp, outDims))] =
                    in[static_cast<size_t>(idx)];
            }
            return out;
          }
          case OpType::Clamp: {
            std::vector<float> out = values.at(node.inputs[0]);
            for (float &v : out)
                v = std::min(
                    std::max(v,
                             static_cast<float>(node.attrs.clampLo)),
                    static_cast<float>(node.attrs.clampHi));
            return out;
          }
          case OpType::Sigmoid: {
            std::vector<float> out = values.at(node.inputs[0]);
            for (float &v : out)
                v = 1.0f / (1.0f + std::exp(-v / 64.0f));
            return out;
          }
          case OpType::Add:
          case OpType::Mul:
          case OpType::Sub: {
            const std::vector<float> &a = values.at(node.inputs[0]);
            const std::vector<float> &b = values.at(node.inputs[1]);
            std::vector<float> out(std::max(a.size(), b.size()));
            for (size_t i = 0; i < out.size(); ++i) {
                const float x = a[a.size() == 1 ? 0 : i];
                const float y = b[b.size() == 1 ? 0 : i];
                out[i] = node.op == OpType::Add   ? x + y
                         : node.op == OpType::Mul ? x * y
                                                  : x - y;
            }
            return out;
          }
          default:
            ADD_FAILURE() << "evaluator: unsupported op "
                          << opTypeName(node.op);
            return {};
        }
    }
};

/** Run the elimination group the way optimize() would, without the
 *  unrelated fold/fuse passes (keeps the evaluator's op set closed). */
PassStats
runElimination(Graph &g)
{
    inferShapes(g);
    PassStats stats;
    eliminateLayoutTransforms(g, stats);
    stats.removedNodes += eliminateDeadNodes(g);
    inferShapes(g);
    return stats;
}

int64_t
liveTransformCount(const Graph &g)
{
    int64_t n = 0;
    for (const Node &node : g.nodes())
        if (!node.dead && isLayoutTransformOp(node.op))
            ++n;
    return n;
}

// ---- reference: the rescan-to-fixpoint elimination -------------------
//
// The original implementation of eliminateLayoutTransforms, kept as a
// test oracle: every rule rescans the graph from node 0 for its first
// match, rewires by scanning every node, and re-infers every shape
// after each rewrite. The library's sweep must reproduce its graphs and
// counters exactly.

namespace reference {

void
rewireConsumers(Graph &graph, NodeId from, NodeId to)
{
    for (Node &consumer : graph.nodes()) {
        if (consumer.dead)
            continue;
        for (NodeId &in : consumer.inputs)
            if (in == from)
                in = to;
    }
}

bool
isIdentityPerm(const std::vector<int> &perm)
{
    for (size_t i = 0; i < perm.size(); ++i)
        if (perm[i] != static_cast<int>(i))
            return false;
    return true;
}

bool
isUnaryElementwise(OpType op)
{
    return op == OpType::Clamp || op == OpType::Sigmoid ||
           op == OpType::Tanh || op == OpType::Gelu || op == OpType::Pow;
}

bool
isBinaryElementwise(OpType op)
{
    return op == OpType::Add || op == OpType::Mul ||
           op == OpType::Sub || op == OpType::Div;
}

bool
sameTransformSpec(const Node &a, const Node &b)
{
    if (a.op != b.op)
        return false;
    if (a.op == OpType::Reshape)
        return a.attrs.targetShape == b.attrs.targetShape;
    return a.attrs.perm == b.attrs.perm;
}

int64_t
standingTransformCycles(const Graph &graph)
{
    int64_t cycles = 0;
    for (const Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Transpose)
            continue;
        const int64_t elements =
            graph.node(node.inputs[0]).shape.elements();
        cycles += 4 * ((elements + 127) / 128) + 8;
    }
    return cycles;
}

bool
cancelOneTransform(Graph &graph, PassStats &stats)
{
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLayoutTransformOp(node.op))
            continue;
        const Node &producer = graph.node(node.inputs[0]);
        const bool identity =
            node.op == OpType::Reshape
                ? node.attrs.targetShape == producer.shape.dims()
                : isIdentityPerm(node.attrs.perm);
        if (identity) {
            rewireConsumers(graph, node.id, node.inputs[0]);
            node.dead = true;
            ++stats.cancelledTransforms;
            return true;
        }
        if (node.op == OpType::Reshape &&
            producer.op == OpType::Reshape) {
            node.inputs[0] = producer.inputs[0];
            ++stats.cancelledTransforms;
            return true;
        }
        if (node.op == OpType::Transpose &&
            producer.op == OpType::Transpose) {
            const std::vector<int> &inner = producer.attrs.perm;
            const std::vector<int> &outer = node.attrs.perm;
            std::vector<int> composed(outer.size());
            for (size_t i = 0; i < outer.size(); ++i)
                composed[i] = inner[static_cast<size_t>(outer[i])];
            node.attrs.perm = std::move(composed);
            node.inputs[0] = producer.inputs[0];
            ++stats.cancelledTransforms;
            return true;
        }
    }
    return false;
}

bool
sinkOneTransform(Graph &graph, PassStats &stats)
{
    const auto succ = graph.successors();
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLayoutTransformOp(node.op))
            continue;
        if (succ[static_cast<size_t>(node.id)].size() != 1)
            continue;
        const NodeId consumerId = succ[static_cast<size_t>(node.id)][0];
        Node &consumer = graph.node(consumerId);

        if (isUnaryElementwise(consumer.op) &&
            consumer.inputs.size() == 1) {
            Node elem = consumer;
            Node xform = node;
            elem.id = node.id;
            elem.inputs = {node.inputs[0]};
            xform.id = consumerId;
            xform.inputs = {node.id};
            graph.nodes()[static_cast<size_t>(node.id)] = std::move(elem);
            graph.nodes()[static_cast<size_t>(consumerId)] =
                std::move(xform);
            ++stats.sunkTransforms;
            return true;
        }

        if (!isBinaryElementwise(consumer.op) ||
            consumer.inputs.size() != 2)
            continue;
        const size_t which = consumer.inputs[0] == node.id ? 0 : 1;
        const NodeId otherId = consumer.inputs[1 - which];
        const Node &other = graph.node(otherId);

        if (isLayoutTransformOp(other.op) && otherId != node.id &&
            succ[static_cast<size_t>(otherId)].size() == 1 &&
            sameTransformSpec(node, other) &&
            graph.node(node.inputs[0]).shape.dims() ==
                graph.node(other.inputs[0]).shape.dims()) {
            const NodeId hi = std::max(node.id, otherId);
            const NodeId lo = std::min(node.id, otherId);
            Node elem = consumer;
            elem.id = hi;
            elem.inputs = {graph.node(consumer.inputs[0]).inputs[0],
                           graph.node(consumer.inputs[1]).inputs[0]};
            Node xform = node;
            xform.id = consumerId;
            xform.inputs = {hi};
            graph.nodes()[static_cast<size_t>(hi)] = std::move(elem);
            graph.nodes()[static_cast<size_t>(consumerId)] =
                std::move(xform);
            graph.node(lo).dead = true;
            stats.sunkTransforms += 2;
            ++stats.cancelledTransforms;
            return true;
        }

        if (which == 0 && other.shape.elements() == 1 &&
            otherId < node.id) {
            Node elem = consumer;
            elem.id = node.id;
            elem.inputs = {node.inputs[0], otherId};
            Node xform = node;
            xform.id = consumerId;
            xform.inputs = {node.id};
            graph.nodes()[static_cast<size_t>(node.id)] = std::move(elem);
            graph.nodes()[static_cast<size_t>(consumerId)] =
                std::move(xform);
            ++stats.sunkTransforms;
            return true;
        }
    }
    return false;
}

bool
fuseOneTransform(Graph &graph, PassStats &stats)
{
    const auto succ = graph.successors();
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLayoutTransformOp(node.op))
            continue;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph.node(producerId);
        if (!isMatMulFamily(producer.op) &&
            producer.op != OpType::DepthwiseConv2D)
            continue;
        if (succ[static_cast<size_t>(producerId)].size() != 1)
            continue;
        producer.attrs.fusedTransform = true;
        producer.attrs.fusedOutShape = node.shape.dims();
        if (node.op == OpType::Transpose)
            producer.attrs.fusedTransformPermutes = true;
        rewireConsumers(graph, node.id, producerId);
        node.dead = true;
        ++stats.fusedTransforms;
        return true;
    }
    return false;
}

int64_t
eliminateLayoutTransforms(Graph &graph, PassStats &stats)
{
    inferShapes(graph);
    const int64_t before = standingTransformCycles(graph);
    int64_t total = 0;
    for (bool changed = true; changed;) {
        changed = false;
        while (cancelOneTransform(graph, stats)) {
            inferShapes(graph);
            changed = true;
            ++total;
        }
        while (sinkOneTransform(graph, stats)) {
            inferShapes(graph);
            changed = true;
            ++total;
        }
        while (fuseOneTransform(graph, stats)) {
            inferShapes(graph);
            changed = true;
            ++total;
        }
        if (changed) {
            eliminateDeadNodes(graph);
            inferShapes(graph);
        }
    }
    stats.transformCyclesSaved += before - standingTransformCycles(graph);
    return total;
}

/** graph::optimize with the reference elimination in its place. */
PassStats
optimize(Graph &graph, const OptimizeOptions &options)
{
    inferShapes(graph);
    PassStats stats;
    stats.foldedNodes = foldConstants(graph);
    stats.fusedActivations = fuseClampActivations(graph);
    if (options.eliminateLayoutTransforms) {
        reference::eliminateLayoutTransforms(graph, stats);
        stats.fusedActivations += fuseClampActivations(graph);
    }
    if (options.extendedFusion) {
        stats.fusedLuts = fuseLutActivations(graph);
        stats.fusedResiduals = fuseResidualAdds(graph);
    }
    stats.removedNodes = eliminateDeadNodes(graph);
    inferShapes(graph);
    return stats;
}

} // namespace reference

/** Every node field the passes touch, dead nodes included. */
void
expectSameGraph(const Graph &got, const Graph &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        const Node &a = got.nodes()[i];
        const Node &b = want.nodes()[i];
        SCOPED_TRACE(testing::Message() << "node " << i);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.inputs, b.inputs);
        EXPECT_TRUE(a.attrs == b.attrs);
        EXPECT_EQ(a.shape, b.shape);
        EXPECT_EQ(a.dead, b.dead);
    }
}

void
expectSameStats(const PassStats &got, const PassStats &want)
{
    EXPECT_EQ(got.foldedNodes, want.foldedNodes);
    EXPECT_EQ(got.fusedActivations, want.fusedActivations);
    EXPECT_EQ(got.removedNodes, want.removedNodes);
    EXPECT_EQ(got.cancelledTransforms, want.cancelledTransforms);
    EXPECT_EQ(got.sunkTransforms, want.sunkTransforms);
    EXPECT_EQ(got.fusedTransforms, want.fusedTransforms);
    EXPECT_EQ(got.transformCyclesSaved, want.transformCyclesSaved);
    EXPECT_EQ(got.fusedLuts, want.fusedLuts);
    EXPECT_EQ(got.fusedResiduals, want.fusedResiduals);
}

// ---- directed: cancel ------------------------------------------------

TEST(TransformElimTest, InverseTransposePairCancels)
{
    Graph g;
    const NodeId x = input(g, {2, 3, 5});
    NodeAttrs p1;
    p1.perm = {1, 2, 0};
    const NodeId t1 = g.add(OpType::Transpose, {x}, p1);
    NodeAttrs p2;
    p2.perm = {2, 0, 1}; // inverse of p1
    const NodeId t2 = g.add(OpType::Transpose, {t1}, p2);
    const NodeId act = g.add(OpType::Clamp, {t2});
    g.add(OpType::Output, {act});
    inferShapes(g);

    const auto before = RefEvaluator().outputs(g);
    const PassStats stats = runElimination(g);

    EXPECT_GE(stats.cancelledTransforms, 1);
    EXPECT_EQ(liveTransformCount(g), 0);
    EXPECT_EQ(g.node(act).shape, tensor::Shape({2, 3, 5}));
    EXPECT_EQ(RefEvaluator().outputs(g), before);
}

TEST(TransformElimTest, ReshapeChainCollapsesToIdentity)
{
    Graph g;
    const NodeId x = input(g, {4, 6});
    NodeAttrs r1;
    r1.targetShape = {24};
    const NodeId a = g.add(OpType::Reshape, {x}, r1);
    NodeAttrs r2;
    r2.targetShape = {4, 6}; // back to the input view
    const NodeId b = g.add(OpType::Reshape, {a}, r2);
    const NodeId act = g.add(OpType::Sigmoid, {b});
    g.add(OpType::Output, {act});
    inferShapes(g);

    const auto before = RefEvaluator().outputs(g);
    const PassStats stats = runElimination(g);

    EXPECT_GE(stats.cancelledTransforms, 1);
    EXPECT_EQ(liveTransformCount(g), 0);
    EXPECT_EQ(RefEvaluator().outputs(g), before);
}

// ---- directed: sink --------------------------------------------------

TEST(TransformElimTest, SinkThroughUnaryElementwiseEnablesCancel)
{
    // transpose -> sigmoid -> inverse transpose: the sink moves the
    // first transform past the sigmoid, the cancel rule then removes
    // the now-adjacent inverse pair.
    Graph g;
    const NodeId x = input(g, {3, 4, 5});
    NodeAttrs p1;
    p1.perm = {2, 1, 0};
    const NodeId t1 = g.add(OpType::Transpose, {x}, p1);
    const NodeId act = g.add(OpType::Sigmoid, {t1});
    NodeAttrs p2;
    p2.perm = {2, 1, 0};
    const NodeId t2 = g.add(OpType::Transpose, {act}, p2);
    g.add(OpType::Output, {t2});
    inferShapes(g);

    const auto before = RefEvaluator().outputs(g);
    const PassStats stats = runElimination(g);

    EXPECT_GE(stats.sunkTransforms, 1);
    EXPECT_GE(stats.cancelledTransforms, 1);
    EXPECT_EQ(liveTransformCount(g), 0);
    EXPECT_EQ(RefEvaluator().outputs(g), before);
}

TEST(TransformElimTest, SinkBelowMatchedBinaryAdd)
{
    // Both Add operands went through the same transpose: one transform
    // below the Add replaces two above it.
    Graph g;
    const NodeId x = input(g, {4, 6});
    const NodeId y = input(g, {4, 6});
    NodeAttrs p;
    p.perm = {1, 0};
    const NodeId tx = g.add(OpType::Transpose, {x}, p);
    const NodeId ty = g.add(OpType::Transpose, {y}, p);
    const NodeId sum = g.add(OpType::Add, {tx, ty});
    g.add(OpType::Output, {sum});
    inferShapes(g);

    const auto before = RefEvaluator().outputs(g);
    const PassStats stats = runElimination(g);

    EXPECT_GE(stats.sunkTransforms, 2);
    EXPECT_EQ(liveTransformCount(g), 1);
    EXPECT_EQ(RefEvaluator().outputs(g), before);
}

TEST(TransformElimTest, SinkBelowScalarBroadcastMul)
{
    Graph g;
    const NodeId x = input(g, {2, 3, 4});
    const NodeId scale = constant(g, {1});
    NodeAttrs p;
    p.perm = {1, 0, 2};
    const NodeId t = g.add(OpType::Transpose, {x}, p);
    const NodeId scaled = g.add(OpType::Mul, {t, scale});
    NodeAttrs pInv;
    pInv.perm = {1, 0, 2};
    const NodeId back = g.add(OpType::Transpose, {scaled}, pInv);
    g.add(OpType::Output, {back});
    inferShapes(g);

    const auto before = RefEvaluator().outputs(g);
    const PassStats stats = runElimination(g);

    EXPECT_GE(stats.sunkTransforms, 1);
    EXPECT_EQ(liveTransformCount(g), 0); // sink exposed the inverse pair
    EXPECT_EQ(RefEvaluator().outputs(g), before);
}

// ---- directed: fuse --------------------------------------------------

TEST(TransformElimTest, FuseSingleConsumerTransformIntoMatMul)
{
    Graph g;
    const NodeId x = input(g, {128, 312});
    const NodeId w = constant(g, {312, 64});
    const NodeId mm = g.add(OpType::MatMul, {x, w});
    NodeAttrs p;
    p.perm = {1, 0};
    const NodeId t = g.add(OpType::Transpose, {mm}, p);
    g.add(OpType::Output, {t});
    inferShapes(g);

    PassStats stats;
    eliminateLayoutTransforms(g, stats);
    eliminateDeadNodes(g);
    inferShapes(g);

    EXPECT_EQ(stats.fusedTransforms, 1);
    EXPECT_EQ(liveTransformCount(g), 0);
    const Node &node = g.node(mm);
    EXPECT_TRUE(node.attrs.fusedTransform);
    EXPECT_TRUE(node.attrs.fusedTransformPermutes);
    EXPECT_EQ(node.attrs.fusedOutShape, (std::vector<int64_t>{64, 128}));
    // Inferred shape is the transformed view; the natural shape stays
    // the kernel's compute shape.
    EXPECT_EQ(node.shape, tensor::Shape({64, 128}));
    EXPECT_EQ(naturalNodeShape(g, node), tensor::Shape({128, 64}));
}

TEST(TransformElimTest, SharedProducerTransformIsNotFused)
{
    // The matmul feeds a direct consumer besides the transform, so
    // fusing the epilogue would corrupt the direct consumer's view.
    Graph g;
    const NodeId x = input(g, {64, 96});
    const NodeId w = constant(g, {96, 32});
    const NodeId mm = g.add(OpType::MatMul, {x, w});
    NodeAttrs p;
    p.perm = {1, 0};
    const NodeId t = g.add(OpType::Transpose, {mm}, p);
    const NodeId a = g.add(OpType::Sigmoid, {t});
    const NodeId b = g.add(OpType::Clamp, {mm}); // direct consumer
    g.add(OpType::Output, {a});
    g.add(OpType::Output, {b});
    inferShapes(g);

    PassStats stats;
    eliminateLayoutTransforms(g, stats);
    EXPECT_EQ(stats.fusedTransforms, 0);
    EXPECT_FALSE(g.node(mm).attrs.fusedTransform);
    EXPECT_GE(liveTransformCount(g), 1); // may sink, but never vanishes
}

TEST(TransformElimTest, MultiConsumerTransformFusesWhenProducerIsSole)
{
    // The transform itself fanning out is fine: every consumer is
    // rewired to the producer's fused output, which all of them wanted.
    Graph g;
    const NodeId x = input(g, {64, 96});
    const NodeId w = constant(g, {96, 32});
    const NodeId mm = g.add(OpType::MatMul, {x, w});
    NodeAttrs p;
    p.perm = {1, 0};
    const NodeId t = g.add(OpType::Transpose, {mm}, p);
    const NodeId a = g.add(OpType::Sigmoid, {t});
    const NodeId b = g.add(OpType::Clamp, {t}); // second consumer
    const NodeId sum = g.add(OpType::Add, {a, b});
    g.add(OpType::Output, {sum});
    inferShapes(g);

    PassStats stats;
    eliminateLayoutTransforms(g, stats);
    eliminateDeadNodes(g);
    EXPECT_EQ(stats.fusedTransforms, 1);
    EXPECT_TRUE(g.node(mm).attrs.fusedTransform);
    EXPECT_EQ(liveTransformCount(g), 0);
    // Both former consumers now read the fused matmul directly.
    EXPECT_EQ(g.node(a).inputs[0], mm);
    EXPECT_EQ(g.node(b).inputs[0], mm);
}

// ---- seeded fuzz: semantics preserved on random chains ---------------

TEST(TransformElimFuzzTest, RandomTransformChainsPreserveSemantics)
{
    Rng rng(0xE11A1234ULL);
    for (int round = 0; round < 30; ++round) {
        Graph g;
        std::vector<int64_t> dims = {2 + rng.uniformInt(1, 3),
                                     2 + rng.uniformInt(1, 4),
                                     2 + rng.uniformInt(1, 4)};
        NodeId cur = input(g, dims);
        const int len = static_cast<int>(rng.uniformInt(3, 10));
        for (int i = 0; i < len; ++i) {
            switch (rng.uniformInt(0, 4)) {
              case 0: { // random 3-d transpose
                NodeAttrs p;
                p.perm = {0, 1, 2};
                for (int s = 2; s > 0; --s)
                    std::swap(
                        p.perm[static_cast<size_t>(s)],
                        p.perm[static_cast<size_t>(
                            rng.uniformInt(0, s))]);
                std::vector<int64_t> nd(3);
                for (size_t d = 0; d < 3; ++d)
                    nd[d] = dims[static_cast<size_t>(p.perm[d])];
                dims = nd;
                cur = g.add(OpType::Transpose, {cur}, p);
                break;
              }
              case 1: { // flatten-or-restore reshape
                NodeAttrs r;
                if (rng.uniformInt(0, 1) != 0) {
                    r.targetShape = {dims[0] * dims[1] * dims[2]};
                } else {
                    r.targetShape = dims;
                }
                const bool flat = r.targetShape.size() == 1;
                cur = g.add(OpType::Reshape, {cur}, r);
                if (flat) {
                    // Restore 3-d so later transposes stay valid.
                    NodeAttrs back;
                    back.targetShape = dims;
                    cur = g.add(OpType::Reshape, {cur}, back);
                }
                break;
              }
              case 2:
                cur = g.add(OpType::Sigmoid, {cur});
                break;
              case 3: {
                NodeAttrs c;
                c.clampLo = -50;
                c.clampHi = 50;
                cur = g.add(OpType::Clamp, {cur}, c);
                break;
              }
              default: {
                const NodeId s = constant(g, {1});
                cur = g.add(OpType::Mul, {cur, s});
                break;
              }
            }
        }
        g.add(OpType::Output, {cur});
        inferShapes(g);

        const auto before = RefEvaluator().outputs(g);
        const int64_t transformsBefore = liveTransformCount(g);
        const PassStats stats = runElimination(g);
        EXPECT_LE(liveTransformCount(g), transformsBefore)
            << "round " << round;
        EXPECT_GE(stats.transformCyclesSaved, 0) << "round " << round;
        EXPECT_EQ(RefEvaluator().outputs(g), before)
            << "round " << round << ": elimination changed semantics";
        if (HasFailure())
            break;
    }
}

// ---- seeded differential fuzz: random DAGs against the reference -----

/**
 * Random DAG mixing every pattern the rules match: fan-out, matmul and
 * depthwise producers under transforms, binary ops over identically
 * transformed operands, scalar broadcasts, and identity and composable
 * transform chains.
 */
Graph
randomTransformDag(Rng &rng)
{
    Graph g;
    std::vector<NodeId> values; // every value-producing node so far
    auto append = [&](OpType op, std::vector<NodeId> inputs,
                      NodeAttrs attrs = {}) {
        const NodeId id = g.add(op, std::move(inputs), std::move(attrs));
        inferShapes(g, id);
        values.push_back(id);
        return id;
    };
    auto dimsOf = [&](NodeId id) { return g.node(id).shape.dims(); };
    // Mostly one of the last few values (chains), sometimes any (fan-out).
    auto pick = [&]() {
        const auto n = static_cast<int64_t>(values.size());
        const int64_t back = rng.uniformInt(0, 3) == 0
                                 ? rng.uniformInt(0, n - 1)
                                 : std::min<int64_t>(rng.uniformInt(0, 2),
                                                     n - 1);
        return values[static_cast<size_t>(n - 1 - back)];
    };
    auto randomPerm = [&](size_t rank) {
        std::vector<int> perm(rank);
        for (size_t i = 0; i < rank; ++i)
            perm[i] = static_cast<int>(i);
        for (size_t s = rank; s-- > 1;)
            std::swap(perm[s], perm[static_cast<size_t>(rng.uniformInt(
                                   0, static_cast<int64_t>(s)))]);
        return perm;
    };
    auto transposeOf = [&](NodeId x, std::vector<int> perm) {
        NodeAttrs attrs;
        attrs.perm = std::move(perm);
        return append(OpType::Transpose, {x}, attrs);
    };
    auto reshapeOf = [&](NodeId x, std::vector<int64_t> target) {
        NodeAttrs attrs;
        attrs.targetShape = std::move(target);
        return append(OpType::Reshape, {x}, attrs);
    };
    // A random view of x's elements: identity, flat, split, or reversed.
    auto randomTarget = [&](NodeId x) {
        std::vector<int64_t> dims = dimsOf(x);
        const int64_t elements = g.node(x).shape.elements();
        switch (rng.uniformInt(0, 3)) {
          case 0:
            return dims;
          case 1:
            return std::vector<int64_t>{elements};
          case 2:
            return std::vector<int64_t>{dims[0], elements / dims[0]};
          default:
            std::reverse(dims.begin(), dims.end());
            return dims;
        }
    };
    auto randomTransform = [&](NodeId x) {
        return rng.uniformInt(0, 1) == 0
                   ? transposeOf(x, randomPerm(dimsOf(x).size()))
                   : reshapeOf(x, randomTarget(x));
    };
    const OpType unaryOps[] = {OpType::Clamp, OpType::Sigmoid,
                               OpType::Tanh, OpType::Gelu, OpType::Pow};
    const OpType binaryOps[] = {OpType::Add, OpType::Mul, OpType::Sub,
                                OpType::Div};
    auto unaryOf = [&](NodeId x) {
        return append(unaryOps[rng.uniformInt(0, 4)], {x});
    };

    const NodeId scalar = append(OpType::Constant, {}, [] {
        NodeAttrs attrs;
        attrs.targetShape = {1};
        return attrs;
    }());
    values.pop_back(); // only ever a broadcast operand
    append(OpType::Input, {}, [&] {
        NodeAttrs attrs;
        attrs.targetShape = {rng.uniformInt(2, 4), rng.uniformInt(2, 4),
                             rng.uniformInt(2, 4)};
        return attrs;
    }());

    const int steps = static_cast<int>(rng.uniformInt(8, 40));
    for (int step = 0; step < steps; ++step) {
        const NodeId x = pick();
        const size_t rank = dimsOf(x).size();
        switch (rng.uniformInt(0, 9)) {
          case 0:
          case 1:
            randomTransform(x);
            break;
          case 2: { // composable chain: T(T(x)) or R(R(x))
            if (rng.uniformInt(0, 1) == 0) {
                const std::vector<int> perm = randomPerm(rank);
                std::vector<int> inverse(rank);
                for (size_t i = 0; i < rank; ++i)
                    inverse[static_cast<size_t>(perm[i])] =
                        static_cast<int>(i);
                transposeOf(transposeOf(x, perm),
                            rng.uniformInt(0, 1) == 0 ? inverse
                                                      : randomPerm(rank));
            } else {
                const NodeId r = reshapeOf(x, randomTarget(x));
                reshapeOf(r, rng.uniformInt(0, 1) == 0 ? dimsOf(x)
                                                       : randomTarget(r));
            }
            break;
          }
          case 3:
            unaryOf(x);
            break;
          case 4: { // matched binary: E(T(x), T(y)) over equal shapes,
                    // one side possibly under a unary op the sink clears
            const NodeId y = rng.uniformInt(0, 1) == 0 ? unaryOf(x) : x;
            const NodeId tx = randomTransform(x);
            NodeId ty = g.add(g.node(tx).op, {y}, g.node(tx).attrs);
            inferShapes(g, ty);
            values.push_back(ty);
            if (rng.uniformInt(0, 2) == 0)
                ty = unaryOf(ty);
            const OpType op = binaryOps[rng.uniformInt(0, 3)];
            if (rng.uniformInt(0, 1) == 0)
                append(op, {tx, ty});
            else
                append(op, {ty, tx});
            break;
          }
          case 5: { // scalar broadcast, usually under a transform
            const NodeId t =
                rng.uniformInt(0, 2) == 0 ? x : randomTransform(x);
            append(binaryOps[rng.uniformInt(0, 3)], {t, scalar});
            break;
          }
          case 6: { // binary over two equal-shape values (fan-out)
            NodeId y = pick();
            if (dimsOf(y) != dimsOf(x))
                y = x;
            append(binaryOps[rng.uniformInt(0, 3)], {x, y});
            break;
          }
          case 7:
          case 8: { // matmul producer, usually under a transform chain
            if (rank < 2)
                break;
            NodeAttrs w;
            w.targetShape = {dimsOf(x).back(), rng.uniformInt(2, 4)};
            const NodeId weights = g.add(OpType::Constant, {}, w);
            inferShapes(g, weights);
            NodeId y = append(OpType::MatMul, {x, weights});
            for (int64_t t = rng.uniformInt(0, 2); t > 0; --t)
                y = randomTransform(y);
            break;
          }
          default: { // depthwise producer under a transform
            if (rank != 3)
                break;
            randomTransform(append(OpType::DepthwiseConv2D, {x}));
            break;
          }
        }
    }
    g.add(OpType::Output, {values.back()});
    for (int64_t extra = rng.uniformInt(0, 2); extra > 0; --extra)
        g.add(OpType::Output, {pick()});
    inferShapes(g);
    return g;
}

TEST(TransformElimFuzzTest, RandomDagsMatchReferenceFixpoint)
{
    Rng rng(0x5EED0DA6ULL);
    PassStats seen;
    for (int round = 0; round < 400; ++round) {
        const Graph g = randomTransformDag(rng);
        SCOPED_TRACE(testing::Message() << "round " << round << "\n"
                                        << g.toString());
        Graph got = g;
        Graph want = g;
        PassStats gotStats;
        PassStats wantStats;
        EXPECT_EQ(eliminateLayoutTransforms(got, gotStats),
                  reference::eliminateLayoutTransforms(want, wantStats));
        expectSameGraph(got, want);
        expectSameStats(gotStats, wantStats);
        seen.cancelledTransforms += gotStats.cancelledTransforms;
        seen.sunkTransforms += gotStats.sunkTransforms;
        seen.fusedTransforms += gotStats.fusedTransforms;

        for (bool extended : {false, true}) {
            OptimizeOptions options;
            options.eliminateLayoutTransforms = true;
            options.extendedFusion = extended;
            Graph full = g;
            Graph fullWant = g;
            expectSameStats(optimize(full, options),
                            reference::optimize(fullWant, options));
            expectSameGraph(full, fullWant);
        }
        if (HasFailure())
            break;
    }
    // The generator reaches every rule.
    EXPECT_GT(seen.cancelledTransforms, 0);
    EXPECT_GT(seen.sunkTransforms, 0);
    EXPECT_GT(seen.fusedTransforms, 0);
}

TEST(TransformElimFuzzTest, ZooGraphsMatchReferenceFixpoint)
{
    for (const models::ModelInfo &info : models::allModels()) {
        const Graph g = models::buildModel(info.id);
        for (bool extended : {false, true}) {
            SCOPED_TRACE(testing::Message() << info.name << " extended="
                                            << extended);
            OptimizeOptions options;
            options.eliminateLayoutTransforms = true;
            options.extendedFusion = extended;
            Graph got = g;
            Graph want = g;
            expectSameStats(optimize(got, options),
                            reference::optimize(want, options));
            expectSameGraph(got, want);
        }
    }
}

} // namespace
} // namespace gcd2::graph
