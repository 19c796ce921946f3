#include "models/builders.h"

#include "common/logging.h"
#include "graph/passes.h"

namespace gcd2::models {

NodeId
input(Graph &g, std::vector<int64_t> shape)
{
    NodeAttrs attrs;
    attrs.targetShape = std::move(shape);
    return g.add(OpType::Input, {}, attrs);
}

NodeId
constant(Graph &g, std::vector<int64_t> shape)
{
    NodeAttrs attrs;
    attrs.targetShape = std::move(shape);
    return g.add(OpType::Constant, {}, attrs);
}

NodeId
conv(Graph &g, NodeId x, int64_t outC, int64_t k, int64_t stride,
     int64_t pad, bool relu)
{
    NodeAttrs attrs;
    attrs.outC = outC;
    attrs.kH = attrs.kW = k;
    attrs.strideH = attrs.strideW = stride;
    attrs.padH = attrs.padW = pad;
    NodeId y = g.add(OpType::Conv2D, {x}, attrs);
    if (relu) {
        NodeAttrs clamp;
        clamp.clampLo = 0;
        clamp.clampHi = 255;
        y = g.add(OpType::Clamp, {y}, clamp);
    }
    return y;
}

NodeId
dwConv(Graph &g, NodeId x, int64_t k, int64_t stride, int64_t pad,
       bool relu)
{
    NodeAttrs attrs;
    attrs.kH = attrs.kW = k;
    attrs.strideH = attrs.strideW = stride;
    attrs.padH = attrs.padW = pad;
    NodeId y = g.add(OpType::DepthwiseConv2D, {x}, attrs);
    if (relu) {
        NodeAttrs clamp;
        y = g.add(OpType::Clamp, {y}, clamp);
    }
    return y;
}

NodeId
dense(Graph &g, NodeId x, int64_t outFeatures, bool relu)
{
    // The weight constant's reduction dimension comes from the producer's
    // output shape, so resolve shapes up to this point first. Builders
    // only append, so the nodes not yet inferred (rank 0) form a suffix:
    // inferring just that suffix infers each node once per build.
    NodeId first = static_cast<NodeId>(g.size());
    while (first > 0 && g.node(first - 1).shape.rank() == 0)
        --first;
    graph::inferShapes(g, first);
    const tensor::Shape &shape = g.node(x).shape;
    const int64_t k = shape.dim(shape.rank() - 1);
    NodeId w = constant(g, {k, outFeatures});
    NodeId y = g.add(OpType::MatMul, {x, w});
    if (relu) {
        NodeAttrs clamp;
        y = g.add(OpType::Clamp, {y}, clamp);
    }
    return y;
}

NodeId
add(Graph &g, NodeId a, NodeId b)
{
    return g.add(OpType::Add, {a, b});
}

NodeId
squeezeExcite(Graph &g, NodeId x, int64_t channels, int64_t reduced)
{
    NodeId pooled = g.add(OpType::GlobalAvgPool, {x});
    NodeId squeeze = conv(g, pooled, reduced, 1, 1, 0, /*relu=*/true);
    NodeId expand = conv(g, squeeze, channels, 1, 1, 0, /*relu=*/false);
    NodeId gate = g.add(OpType::Sigmoid, {expand});
    return g.add(OpType::Mul, {x, gate});
}

NodeId
bottleneck(Graph &g, NodeId x, int64_t inC, int64_t midC, int64_t outC,
           int64_t stride)
{
    NodeId y = conv(g, x, midC, 1, 1, 0);
    y = conv(g, y, midC, 3, stride, 1);
    y = conv(g, y, outC, 1, 1, 0, /*relu=*/false);
    NodeId shortcut = x;
    if (stride != 1 || inC != outC)
        shortcut = conv(g, x, outC, 1, stride, 0, /*relu=*/false);
    NodeId sum = add(g, y, shortcut);
    NodeAttrs clamp;
    return g.add(OpType::Clamp, {sum}, clamp);
}

NodeId
invertedResidual(Graph &g, NodeId x, int64_t inC, int64_t expand,
                 int64_t outC, int64_t stride, bool se)
{
    NodeId y = x;
    if (expand != inC)
        y = conv(g, y, expand, 1, 1, 0);
    y = dwConv(g, y, 3, stride, 1);
    if (se)
        y = squeezeExcite(g, y, expand, std::max<int64_t>(8, expand / 4));
    y = conv(g, y, outC, 1, 1, 0, /*relu=*/false);
    if (stride == 1 && inC == outC)
        y = add(g, y, x);
    return y;
}

NodeId
transformerLayer(Graph &g, NodeId x, int64_t seq, int64_t hidden,
                 int64_t heads, int64_t ffn)
{
    GCD2_REQUIRE(hidden % heads == 0, "hidden must divide by heads");
    const int64_t headDim = hidden / heads;

    // Multi-head self-attention.
    NodeId norm1 = g.add(OpType::LayerNorm, {x});
    NodeId q = dense(g, norm1, hidden);
    NodeId k = dense(g, norm1, hidden);
    NodeId v = dense(g, norm1, hidden);

    auto splitHeads = [&](NodeId t) {
        NodeAttrs reshape;
        reshape.targetShape = {seq, heads, headDim};
        NodeId r = g.add(OpType::Reshape, {t}, reshape);
        NodeAttrs perm;
        perm.perm = {1, 0, 2};
        return g.add(OpType::Transpose, {r}, perm); // (heads, seq, dim)
    };
    NodeId qh = splitHeads(q);
    NodeId kh = splitHeads(k);
    NodeId vh = splitHeads(v);

    NodeAttrs mm;
    mm.transposeB = true;
    NodeId scores = g.add(OpType::MatMul, {qh, kh}, mm); // (h, s, s)
    NodeId scaleConst = constant(g, {1});
    NodeId scaled = g.add(OpType::Mul, {scores, scaleConst});
    NodeAttrs smAttrs;
    smAttrs.axis = -1;
    NodeId probs = g.add(OpType::Softmax, {scaled}, smAttrs);
    NodeId ctx = g.add(OpType::MatMul, {probs, vh}); // (h, s, d)

    NodeAttrs backPerm;
    backPerm.perm = {1, 0, 2};
    NodeId merged = g.add(OpType::Transpose, {ctx}, backPerm);
    NodeAttrs mergeShape;
    mergeShape.targetShape = {seq, hidden};
    NodeId flat = g.add(OpType::Reshape, {merged}, mergeShape);
    NodeId proj = dense(g, flat, hidden);
    NodeId attnOut = add(g, proj, x);

    // Feed-forward network.
    NodeId norm2 = g.add(OpType::LayerNorm, {attnOut});
    NodeId up = dense(g, norm2, ffn);
    NodeId act = g.add(OpType::Gelu, {up});
    NodeId down = dense(g, act, hidden);
    return add(g, down, attnOut);
}

void
finish(Graph &g, NodeId result)
{
    g.add(OpType::Output, {result});
    graph::optimize(g);
}

} // namespace gcd2::models
