#include "models/zoo.h"

#include "common/logging.h"
#include "models/builders.h"

namespace gcd2::models {

namespace {

using graph::Graph;
using graph::NodeAttrs;
using graph::NodeId;
using graph::OpType;

// ---------------------------------------------------------------- ResNet-50

Graph
buildResNet50()
{
    Graph g;
    NodeId x = input(g, {3, 224, 224});
    x = conv(g, x, 64, 7, 2, 3);
    NodeAttrs pool;
    pool.poolK = 2;
    pool.poolStride = 2;
    x = g.add(OpType::MaxPool, {x}, pool);

    const struct
    {
        int64_t blocks, mid, out, stride;
    } stages[] = {
        {3, 64, 256, 1},
        {4, 128, 512, 2},
        {6, 256, 1024, 2},
        {3, 512, 2048, 2},
    };
    int64_t inC = 64;
    for (const auto &stage : stages) {
        for (int64_t b = 0; b < stage.blocks; ++b) {
            const int64_t stride = (b == 0) ? stage.stride : 1;
            x = bottleneck(g, x, inC, stage.mid, stage.out, stride);
            inC = stage.out;
        }
    }
    x = g.add(OpType::GlobalAvgPool, {x});
    NodeAttrs flat;
    flat.targetShape = {1, 2048};
    x = g.add(OpType::Reshape, {x}, flat);
    x = dense(g, x, 1000);
    finish(g, x);
    return g;
}

// ------------------------------------------------------------ MobileNet-V3

Graph
buildMobileNetV3()
{
    Graph g;
    NodeId x = input(g, {3, 224, 224});
    x = conv(g, x, 16, 3, 2, 1);

    // (expand, out, stride, SE) -- MobileNetV3-Large schedule (3x3 only).
    const struct
    {
        int64_t expand, out, stride;
        bool se;
    } blocks[] = {
        {16, 16, 1, false},   {64, 24, 2, false},  {72, 24, 1, false},
        {72, 40, 2, true},    {120, 40, 1, true},  {120, 40, 1, true},
        {240, 80, 2, false},  {200, 80, 1, false}, {184, 80, 1, false},
        {184, 80, 1, false},  {480, 112, 1, true}, {672, 112, 1, true},
        {672, 160, 2, true},  {960, 160, 1, true}, {960, 160, 1, true},
    };
    int64_t inC = 16;
    for (const auto &blk : blocks) {
        x = invertedResidual(g, x, inC, blk.expand, blk.out, blk.stride,
                             blk.se);
        inC = blk.out;
    }
    x = conv(g, x, 960, 1, 1, 0);
    x = g.add(OpType::GlobalAvgPool, {x});
    NodeAttrs flat;
    flat.targetShape = {1, 960};
    x = g.add(OpType::Reshape, {x}, flat);
    x = dense(g, x, 1280, /*relu=*/true);
    x = dense(g, x, 1000);
    finish(g, x);
    return g;
}

// --------------------------------------------------------- EfficientNet-b0

NodeId
efficientNetBackbone(Graph &g, NodeId x,
                     std::vector<NodeId> *featureTaps = nullptr)
{
    x = conv(g, x, 32, 3, 2, 1);
    const struct
    {
        int64_t repeat, expandRatio, out, stride;
    } blocks[] = {
        {1, 1, 16, 1}, {2, 6, 24, 2},  {2, 6, 40, 2},
        {3, 6, 80, 2}, {3, 6, 112, 1}, {4, 6, 192, 2},
        {1, 6, 320, 1},
    };
    int64_t inC = 32;
    int stageIdx = 0;
    for (const auto &blk : blocks) {
        for (int64_t r = 0; r < blk.repeat; ++r) {
            const int64_t stride = (r == 0) ? blk.stride : 1;
            x = invertedResidual(g, x, inC, inC * blk.expandRatio, blk.out,
                                 stride, /*se=*/true);
            inC = blk.out;
        }
        ++stageIdx;
        // Taps after stages 3, 5, 7 feed detection necks (P3-P5).
        if (featureTaps &&
            (stageIdx == 3 || stageIdx == 5 || stageIdx == 7))
            featureTaps->push_back(x);
    }
    return x;
}

Graph
buildEfficientNetB0()
{
    Graph g;
    NodeId x = input(g, {3, 224, 224});
    x = efficientNetBackbone(g, x);
    x = conv(g, x, 1280, 1, 1, 0);
    x = g.add(OpType::GlobalAvgPool, {x});
    NodeAttrs flat;
    flat.targetShape = {1, 1280};
    x = g.add(OpType::Reshape, {x}, flat);
    x = dense(g, x, 1000);
    finish(g, x);
    return g;
}

// ------------------------------------------------------- FST style transfer

NodeId
residualConvBlock(Graph &g, NodeId x, int64_t channels)
{
    NodeId y = conv(g, x, channels, 3, 1, 1);
    y = g.add(OpType::LayerNorm, {y});
    y = conv(g, y, channels, 3, 1, 1, /*relu=*/false);
    y = g.add(OpType::LayerNorm, {y});
    return add(g, y, x);
}

Graph
buildFst()
{
    Graph g;
    // High-resolution stylization: the paper's FST runs at full image
    // resolution, which is what makes it 161 GMACs.
    NodeId x = input(g, {3, 1024, 1024});
    x = conv(g, x, 32, 9, 1, 4);
    x = g.add(OpType::LayerNorm, {x});
    x = conv(g, x, 64, 3, 2, 1);
    x = g.add(OpType::LayerNorm, {x});
    x = conv(g, x, 128, 3, 2, 1);
    x = g.add(OpType::LayerNorm, {x});
    for (int i = 0; i < 5; ++i)
        x = residualConvBlock(g, x, 128);
    x = g.add(OpType::Upsample, {x});
    x = conv(g, x, 64, 3, 1, 1);
    x = g.add(OpType::Upsample, {x});
    x = conv(g, x, 32, 3, 1, 1);
    x = conv(g, x, 3, 9, 1, 4, /*relu=*/false);
    finish(g, x);
    return g;
}

// ----------------------------------------------------------------- CycleGAN

Graph
buildCycleGan()
{
    Graph g;
    NodeId x = input(g, {3, 464, 464});
    x = conv(g, x, 64, 7, 1, 3);
    x = g.add(OpType::LayerNorm, {x});
    x = conv(g, x, 128, 3, 2, 1);
    x = conv(g, x, 256, 3, 2, 1);
    for (int i = 0; i < 9; ++i)
        x = residualConvBlock(g, x, 256);
    x = g.add(OpType::Upsample, {x});
    x = conv(g, x, 128, 3, 1, 1);
    x = g.add(OpType::Upsample, {x});
    x = conv(g, x, 64, 3, 1, 1);
    x = conv(g, x, 3, 7, 1, 3, /*relu=*/false);
    x = g.add(OpType::Tanh, {x});
    finish(g, x);
    return g;
}

// ------------------------------------------------------------------- WDSR-b

Graph
buildWdsrB()
{
    Graph g;
    NodeId x = input(g, {3, 208, 368});
    NodeId head = conv(g, x, 32, 3, 1, 1, /*relu=*/false);
    NodeId body = head;
    for (int i = 0; i < 8; ++i) {
        // WDSR-B block: wide 1x1 expand, ReLU, 1x1 shrink, 3x3.
        NodeId y = conv(g, body, 192, 1, 1, 0);
        y = conv(g, y, 25, 1, 1, 0, /*relu=*/false);
        y = conv(g, y, 32, 3, 1, 1, /*relu=*/false);
        body = add(g, body, y);
    }
    // x2 pixel-shuffle tail: conv to 12 channels, depth-to-space.
    NodeId tail = conv(g, body, 12, 3, 1, 1, /*relu=*/false);
    NodeAttrs up;
    up.targetShape = {3, 416, 736};
    NodeId shuffled = g.add(OpType::Reshape, {tail}, up);
    // Global skip: 3-channel conv on the input, upsampled.
    NodeId skip = conv(g, x, 12, 3, 1, 1, /*relu=*/false);
    NodeId skipUp = g.add(OpType::Reshape, {skip}, up);
    NodeId sum = add(g, shuffled, skipUp);
    finish(g, sum);
    return g;
}

// ---------------------------------------------------------- EfficientDet-d0

Graph
buildEfficientDetD0()
{
    Graph g;
    NodeId x = input(g, {3, 512, 512});
    std::vector<NodeId> taps;
    efficientNetBackbone(g, x, &taps);
    GCD2_ASSERT(taps.size() == 3, "expected P3-P5 taps");

    const int64_t fpnC = 64;
    // Lateral 1x1s onto the BiFPN width + two extra downsampled levels.
    std::vector<NodeId> levels;
    for (NodeId tap : taps)
        levels.push_back(conv(g, tap, fpnC, 1, 1, 0, /*relu=*/false));
    NodeAttrs pool;
    pool.poolK = 2;
    pool.poolStride = 2;
    levels.push_back(g.add(OpType::MaxPool, {levels.back()}, pool)); // P6
    levels.push_back(g.add(OpType::MaxPool, {levels.back()}, pool)); // P7

    auto fuse = [&](NodeId a, NodeId b) {
        NodeId sum = add(g, a, b);
        NodeAttrs clamp;
        NodeId act = g.add(OpType::Clamp, {sum}, clamp);
        // Depthwise-separable conv characteristic of BiFPN nodes.
        NodeId dw = dwConv(g, act, 3, 1, 1, /*relu=*/false);
        return conv(g, dw, fpnC, 1, 1, 0, /*relu=*/false);
    };

    // Three BiFPN repeats: top-down then bottom-up pathways.
    for (int repeat = 0; repeat < 3; ++repeat) {
        std::vector<NodeId> td(levels.size());
        td.back() = levels.back();
        for (int i = static_cast<int>(levels.size()) - 2; i >= 0; --i) {
            NodeId upsampled = g.add(OpType::Upsample, {td[i + 1]});
            td[i] = fuse(levels[i], upsampled);
        }
        std::vector<NodeId> bu(levels.size());
        bu.front() = td.front();
        for (size_t i = 1; i < levels.size(); ++i) {
            NodeId down = g.add(OpType::MaxPool, {bu[i - 1]}, pool);
            NodeId fused = fuse(td[i], down);
            // Residual connection with the original level input.
            bu[i] = add(g, fused, levels[i]);
        }
        levels = bu;
    }

    // Class and box heads: 3 depthwise-separable convs each, shared
    // structure across the 5 levels, plus the prediction convs.
    std::vector<NodeId> outputs;
    for (NodeId level : levels) {
        NodeId cls = level;
        NodeId box = level;
        for (int d = 0; d < 3; ++d) {
            cls = conv(g, dwConv(g, cls, 3, 1, 1, false), fpnC, 1, 1, 0);
            box = conv(g, dwConv(g, box, 3, 1, 1, false), fpnC, 1, 1, 0);
        }
        outputs.push_back(conv(g, cls, 90 * 9, 1, 1, 0, false));
        outputs.push_back(conv(g, box, 4 * 9, 1, 1, 0, false));
    }
    // Flatten every prediction map and concatenate.
    graph::inferShapes(g);
    std::vector<NodeId> flat;
    for (NodeId out : outputs) {
        NodeAttrs reshape;
        reshape.targetShape = {g.node(out).shape.elements()};
        flat.push_back(g.add(OpType::Reshape, {out}, reshape));
    }
    NodeAttrs concat;
    concat.axis = 0;
    NodeId merged = g.add(OpType::Concat, flat, concat);
    finish(g, merged);
    return g;
}

// -------------------------------------------------------------------- PixOr

Graph
buildPixOr()
{
    Graph g;
    // Bird's-eye-view LiDAR occupancy input.
    NodeId x = input(g, {36, 352, 320});
    x = conv(g, x, 32, 3, 1, 1);
    x = conv(g, x, 32, 3, 1, 1);

    // Backbone: four residual stages.
    NodeId c2 = bottleneck(g, x, 32, 24, 96, 2);
    c2 = bottleneck(g, c2, 96, 24, 96, 1);
    c2 = bottleneck(g, c2, 96, 24, 96, 1);
    NodeId c3 = bottleneck(g, c2, 96, 48, 192, 2);
    for (int i = 0; i < 5; ++i)
        c3 = bottleneck(g, c3, 192, 48, 192, 1);
    NodeId c4 = bottleneck(g, c3, 192, 64, 256, 2);
    for (int i = 0; i < 4; ++i)
        c4 = bottleneck(g, c4, 256, 64, 256, 1);
    NodeId c5 = bottleneck(g, c4, 256, 96, 384, 2);
    for (int i = 0; i < 2; ++i)
        c5 = bottleneck(g, c5, 384, 96, 384, 1);

    // FPN-style decoder back to the c3 resolution.
    NodeId p5 = conv(g, c5, 128, 1, 1, 0, false);
    NodeId p4 = add(g, g.add(OpType::Upsample, {p5}),
                    conv(g, c4, 128, 1, 1, 0, false));
    NodeId p3 = add(g, g.add(OpType::Upsample, {p4}),
                    conv(g, c3, 128, 1, 1, 0, false));

    // Header: four shared convs, then classification + regression maps.
    NodeId h = p3;
    for (int i = 0; i < 4; ++i)
        h = conv(g, h, 96, 3, 1, 1);
    NodeId cls = conv(g, h, 1, 3, 1, 1, false);
    NodeId reg = conv(g, h, 6, 3, 1, 1, false);
    NodeAttrs concat;
    concat.axis = 0;
    NodeId out = g.add(OpType::Concat, {cls, reg}, concat);
    finish(g, out);
    return g;
}

// ----------------------------------------------------------------- TinyBERT

Graph
buildTinyBert()
{
    Graph g;
    const int64_t seq = 196, hidden = 312, heads = 12, ffn = 1200;
    NodeId x = input(g, {seq, hidden});
    // Embedding projection (factorized embedding characteristic of
    // TinyBERT) + positional add + norm.
    x = dense(g, x, hidden);
    NodeId pos = constant(g, {seq, hidden});
    x = add(g, x, pos);
    x = g.add(OpType::LayerNorm, {x});
    for (int layer = 0; layer < 6; ++layer)
        x = transformerLayer(g, x, seq, hidden, heads, ffn);
    x = g.add(OpType::LayerNorm, {x});
    // Pooler (applied across the sequence; the real model gathers [CLS],
    // which has negligible cost).
    NodeId pooled = dense(g, x, hidden);
    NodeId gate = g.add(OpType::Tanh, {pooled});
    NodeId logits = dense(g, gate, 2);
    finish(g, logits);
    return g;
}

// ---------------------------------------------------------------- Conformer

NodeId
conformerBlock(Graph &g, NodeId x, int64_t seq, int64_t hidden,
               int64_t heads)
{
    // Half-step FFN.
    NodeId n1 = g.add(OpType::LayerNorm, {x});
    NodeId f1 = dense(g, n1, hidden * 4, /*relu=*/false);
    f1 = g.add(OpType::Gelu, {f1});
    f1 = dense(g, f1, hidden);
    NodeId halfConst = constant(g, {1});
    f1 = g.add(OpType::Mul, {f1, halfConst});
    x = add(g, x, f1);

    // Multi-head self-attention.
    x = transformerLayer(g, x, seq, hidden, heads, hidden * 4);

    // Convolution module: pointwise GLU -> depthwise (k=15 over time) ->
    // pointwise.
    NodeId n2 = g.add(OpType::LayerNorm, {x});
    NodeId pw1 = dense(g, n2, hidden * 2, /*relu=*/false);
    NodeId gateIn = dense(g, n2, hidden * 2, /*relu=*/false);
    NodeId gate = g.add(OpType::Sigmoid, {gateIn});
    NodeId glu = g.add(OpType::Mul, {pw1, gate});
    NodeId squeeze = dense(g, glu, hidden, /*relu=*/false);
    // Depthwise over time: view (seq, hidden) as (hidden, seq, 1).
    NodeAttrs permAttrs;
    permAttrs.perm = {1, 0};
    NodeId t = g.add(OpType::Transpose, {squeeze}, permAttrs);
    NodeAttrs viewAttrs;
    viewAttrs.targetShape = {hidden, seq, 1};
    NodeId view = g.add(OpType::Reshape, {t}, viewAttrs);
    NodeAttrs dwAttrs;
    dwAttrs.kH = 15;
    dwAttrs.kW = 1;
    dwAttrs.padH = 7;
    NodeId dw = g.add(OpType::DepthwiseConv2D, {view}, dwAttrs);
    NodeAttrs clampAttrs;
    NodeId act = g.add(OpType::Clamp, {dw}, clampAttrs);
    NodeAttrs backView;
    backView.targetShape = {hidden, seq};
    NodeId flatBack = g.add(OpType::Reshape, {act}, backView);
    NodeAttrs backPerm;
    backPerm.perm = {1, 0};
    NodeId back = g.add(OpType::Transpose, {flatBack}, backPerm);
    NodeId pw2 = dense(g, back, hidden, /*relu=*/false);
    return add(g, x, pw2);
}

Graph
buildConformer()
{
    Graph g;
    const int64_t seq = 200, hidden = 256, heads = 4;
    // Subsampled filterbank features.
    NodeId x = input(g, {seq, 80});
    x = dense(g, x, hidden, /*relu=*/true);
    for (int block = 0; block < 16; ++block)
        x = conformerBlock(g, x, seq, hidden, heads);
    x = g.add(OpType::LayerNorm, {x});
    NodeId logits = dense(g, x, 1024); // vocabulary
    finish(g, logits);
    return g;
}

const std::vector<ModelInfo> kModels = {
    {ModelId::MobileNetV3, "MobileNet-V3", "2D CNN", "Classification",
     0.22, 193},
    {ModelId::EfficientNetB0, "EfficientNet-b0", "2D CNN",
     "Classification", 0.40, 254},
    {ModelId::ResNet50, "ResNet-50", "2D CNN", "Classification", 4.1,
     140},
    {ModelId::FST, "FST", "2D CNN", "Style transfer", 161.0, 64},
    {ModelId::CycleGAN, "CycleGAN", "GAN", "Image translation", 186.0,
     84},
    {ModelId::WdsrB, "WDSR-b", "2D CNN", "Super resolution", 11.5, 32},
    {ModelId::EfficientDetD0, "EfficientDet-d0", "2D CNN",
     "2D object detection", 2.6, 822},
    {ModelId::PixOr, "PixOr", "2D CNN", "3D object detection", 8.8, 150},
    {ModelId::TinyBert, "TinyBERT", "Transformer", "NLP", 1.4, 211},
    {ModelId::Conformer, "Conformer", "Transformer",
     "Speech recognition", 5.6, 675},
};

} // namespace

const std::vector<ModelInfo> &
allModels()
{
    return kModels;
}

const ModelInfo &
modelInfo(ModelId id)
{
    for (const ModelInfo &info : kModels)
        if (info.id == id)
            return info;
    GCD2_PANIC("unknown model id");
}

graph::Graph
buildModel(ModelId id)
{
    switch (id) {
      case ModelId::MobileNetV3:
        return buildMobileNetV3();
      case ModelId::EfficientNetB0:
        return buildEfficientNetB0();
      case ModelId::ResNet50:
        return buildResNet50();
      case ModelId::FST:
        return buildFst();
      case ModelId::CycleGAN:
        return buildCycleGan();
      case ModelId::WdsrB:
        return buildWdsrB();
      case ModelId::EfficientDetD0:
        return buildEfficientDetD0();
      case ModelId::PixOr:
        return buildPixOr();
      case ModelId::TinyBert:
        return buildTinyBert();
      case ModelId::Conformer:
        return buildConformer();
    }
    GCD2_PANIC("unknown model id");
}

} // namespace gcd2::models
