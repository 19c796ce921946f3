#include "select/plan.h"

#include <algorithm>
#include <initializer_list>

#include "common/logging.h"
#include "common/round.h"
#include "kernels/conv.h"
#include "kernels/elementwise.h"

namespace gcd2::select {

using graph::OpType;
using kernels::EwOp;
using kernels::MatMulScheme;
using tensor::Layout;

namespace {

uint64_t
vectorsOf(int64_t elements)
{
    return static_cast<uint64_t>(common::ceilDiv(elements, dsp::kVectorBytes));
}

/** Division cycles of @p rows row reductions: a reciprocal lookup with
 *  the LUT optimization, scalar DIV + glue without. */
NodeExecStats
rowDivisions(const PlanContext &c, int64_t rows)
{
    return {.cycles =
                static_cast<uint64_t>(rows) * (c.lutOptimization ? 8u : 56u)};
}

/** Byte-table nonlinearity: vectorizing the lookups with VLUT is itself
 *  one of the "other optimizations"; without it they run as a scalar
 *  lookup loop. */
EwOp
lutOp(const PlanContext &c)
{
    return c.lutOptimization ? EwOp::Lut : EwOp::DivLut;
}

KernelTerm
elementwise(EwOp op, int64_t length, double scale = 1.0)
{
    return {.kind = CostKind::Elementwise,
            .tag = static_cast<int32_t>(op),
            .length = length,
            .scale = scale};
}

/** An elementwise kernel over the node, which covers the plan layout's
 *  padding too. */
PlanRecipe
padded(const PlanContext &c, EwOp op)
{
    const MatrixView view = matrixView(c.node.shape);
    return {.kernels = {elementwise(
                op, tensor::packedByteSize(c.plan.inLayout, view.rows,
                                           view.cols))}};
}

/** Elementwise @p passes over the node's elements, then one division
 *  per row (softmax and layer normalization). */
PlanRecipe
rowNormalization(const PlanContext &c, std::initializer_list<EwOp> passes)
{
    PlanRecipe recipe{.outer = rowDivisions(
                          c, std::max<int64_t>(
                                 1, matrixView(c.node.shape).rows))};
    for (EwOp op : passes)
        recipe.kernels.push_back(elementwise(op, c.node.shape.elements()));
    return recipe;
}

/**
 * Epilogue of a fused layout transform (attrs.fusedTransform): the
 * kernel's store pass writes the transformed row-major view directly.
 * Charged at half the standalone unpack cost (the store traffic is
 * already paid by the kernel; only the scatter pattern and setup
 * remain), plus one permute-unit op per output vector when a
 * non-identity Transpose was folded in. Living in the plan's cycles
 * keeps auditSelection's Eq.-1 re-derivation consistent: the edge sees
 * a RowMajor producer layout and prices 0.
 */
NodeExecStats
fusedTransformEpilogue(const PlanContext &c)
{
    NodeExecStats stats;
    if (!c.node.attrs.fusedTransform)
        return stats;
    const tensor::Shape natural = graph::naturalNodeShape(c.graph, c.node);
    const MatrixView view = matrixView(natural);
    stats.cycles = tensor::layoutTransformCycles(
                       c.plan.inLayout, Layout::RowMajor, view.rows,
                       view.cols) /
                   2;
    if (c.node.attrs.fusedTransformPermutes) {
        const uint64_t vectors = vectorsOf(natural.elements());
        stats.cycles += vectors;
        stats.instructions += vectors;
    }
    return stats;
}

/** Analytic data movement: every output vector loaded and stored. */
PlanRecipe
analyticCopy(const PlanContext &c, uint64_t cyclesPerVector)
{
    const uint64_t vectors = vectorsOf(c.node.shape.elements());
    const uint64_t cycles = vectors * cyclesPerVector + 8;
    return {.outer = {.cycles = cycles,
                      .instructions = vectors * 3,
                      .packets = std::max<uint64_t>(1, cycles / 3),
                      .bytesLoaded = vectors * 128,
                      .bytesStored = vectors * 128}};
}

/**
 * Conv2D runs its im2col product, gathering patches first unless it is
 * pointwise. MatMul takes its output columns from the natural shape
 * (node.shape may carry a fused epilogue transform) and repeats over
 * the leading batch dimensions.
 */
PlanRecipe
matmul(const PlanContext &c)
{
    const graph::Node &node = c.node;
    const graph::NodeAttrs &a = node.attrs;
    const tensor::Shape &in = c.graph.node(node.inputs[0]).shape;
    KernelTerm term{.kind = CostKind::MatMulTile,
                    .tag = static_cast<int32_t>(c.plan.scheme)};
    PlanRecipe recipe;
    if (node.op == OpType::Conv2D) {
        const kernels::ConvShape conv{in.dim(0), in.dim(1), in.dim(2),
                                      a.outC,    a.kH,      a.kW,
                                      a.strideH, a.strideW, a.padH,
                                      a.padW};
        term.product = conv.matmulShape();
        if (!conv.isPointwise()) {
            const int64_t patchBytes = term.product.m * term.product.k;
            const auto patchVectors =
                static_cast<uint64_t>(patchBytes / dsp::kVectorBytes);
            recipe.inner = {.cycles = 4 * patchVectors + 16,
                            .instructions = 3 * patchVectors,
                            .bytesLoaded = static_cast<uint64_t>(patchBytes),
                            .bytesStored = static_cast<uint64_t>(patchBytes)};
        }
    } else {
        const tensor::Shape natural = graph::naturalNodeShape(c.graph, node);
        term.product = {in.dim(in.rank() - 2), in.dim(in.rank() - 1),
                        natural.dim(natural.rank() - 1)};
        recipe.batch = static_cast<double>(std::max<int64_t>(
            1, in.elements() / (term.product.m * term.product.k)));
    }
    recipe.kernels.push_back(term);

    const uint64_t vectors = vectorsOf(node.shape.elements());
    if (a.fusedLut) {
        // Fused nonlinearity: one extra VLUT per output vector in the
        // epilogue (permute-unit bound), vs. a whole separate pass.
        recipe.outer.cycles += vectors;
    }
    if (a.fusedAdd) {
        // Fused residual: stream the second operand through the
        // epilogue (one load + one byte-average per output vector).
        recipe.outer.cycles += 2 * vectors;
        recipe.outer.bytesLoaded += vectors * 128;
        recipe.outer.instructions += 2 * vectors;
    }
    recipe.outer += fusedTransformEpilogue(c);
    return recipe;
}

/**
 * One depthwise kernel channel per plane and column tile, each running
 * the rows of one band: the host packer stacks R = floor(256 / S) bands
 * of a plane side by side in each row tile (S the padded row), so a
 * channel runs ceil(oh / R) row tiles; a row too wide for one tile runs
 * as column tiles instead (kernels::DepthwiseTiling). A width-1 plane
 * runs as one row (DepthwiseConfig::rowView). The cost model prices a
 * channel from the simulated one- and two-row kernels of the node's
 * (stride, kH, kW). A fused transform only changes the stored view.
 */
PlanRecipe
depthwise(const PlanContext &c)
{
    const kernels::DepthwiseConfig plane =
        depthwisePlane(c.graph, c.node.id).rowView();
    const kernels::DepthwiseTiling tiling = plane.tiling();
    return {.kernels = {{.kind = CostKind::DepthwiseRow,
                         .tag = static_cast<int32_t>(plane.stride),
                         .length = tiling.bandRows,
                         .filterH = static_cast<int32_t>(plane.kH),
                         .filterW = static_cast<int32_t>(plane.kW),
                         .scale = static_cast<double>(plane.channels *
                                                      tiling.colTiles)}},
            .outer = fusedTransformEpilogue(c)};
}

} // namespace

OpFamily
opFamily(OpType op)
{
    switch (op) {
      case OpType::Input:
      case OpType::Constant:
      case OpType::Output:
      case OpType::Reshape: // zero-copy view in row-major
        return {PlanSet::RowMajor,
                [](const PlanContext &) { return PlanRecipe{}; }};

      case OpType::Conv2D:
      case OpType::MatMul:
        return {PlanSet::PerScheme, matmul};

      case OpType::DepthwiseConv2D:
        return {PlanSet::RowMajor, depthwise};

      case OpType::Add:
      case OpType::Sub:
      case OpType::Mul:
        return {PlanSet::PerLayout,
                [](const PlanContext &c) { return padded(c, EwOp::Add); }};

      case OpType::Div:
        // With the LUT optimization: reciprocal lookup + multiply, two
        // LUT-class passes.
        return {PlanSet::PerLayout, [](const PlanContext &c) {
                    if (!c.lutOptimization)
                        return padded(c, EwOp::Div);
                    const KernelTerm lut = padded(c, EwOp::Lut).kernels[0];
                    return PlanRecipe{.kernels = {lut, lut}};
                }};

      case OpType::Pow:
      case OpType::Sigmoid:
      case OpType::Tanh:
      case OpType::Gelu:
        return {PlanSet::PerLayout,
                [](const PlanContext &c) { return padded(c, lutOp(c)); }};

      case OpType::Clamp:
        return {PlanSet::PerLayout,
                [](const PlanContext &c) { return padded(c, EwOp::Clamp); }};

      case OpType::Softmax:
        // exp lookup + row-sum reduction tree + per-row normalization.
        return {PlanSet::RowMajor, [](const PlanContext &c) {
                    return rowNormalization(
                        c, {lutOp(c), EwOp::Add,
                            c.lutOptimization ? EwOp::Lut : EwOp::Div});
                }};

      case OpType::LayerNorm:
        // Mean and variance reductions, then a scale/shift pass.
        return {PlanSet::RowMajor, [](const PlanContext &c) {
                    return rowNormalization(
                        c, {EwOp::Add, EwOp::Add, EwOp::Lut});
                }};

      case OpType::MaxPool:
      case OpType::AvgPool:
        // Pairwise max/avg passes over the pooling window.
        return {PlanSet::RowMajor, [](const PlanContext &c) {
                    const int64_t window =
                        c.node.attrs.poolK * c.node.attrs.poolK;
                    const EwOp op = c.node.op == OpType::MaxPool
                                        ? EwOp::MaxPool
                                        : EwOp::AvgPool;
                    return PlanRecipe{.kernels = {elementwise(
                                          op, 2 * c.node.shape.elements(),
                                          static_cast<double>(
                                              (window + 1) / 2))}};
                }};

      case OpType::GlobalAvgPool:
        return {PlanSet::RowMajor, [](const PlanContext &c) {
                    const tensor::Shape &in =
                        c.graph.node(c.node.inputs[0]).shape;
                    return PlanRecipe{
                        .kernels = {elementwise(EwOp::Add, in.elements())},
                        .outer = rowDivisions(c, c.node.shape.elements())};
                }};

      case OpType::Upsample:
      case OpType::Concat:
        return {PlanSet::RowMajor,
                [](const PlanContext &c) { return analyticCopy(c, 3); }};

      case OpType::Transpose:
        return {PlanSet::RowMajor,
                [](const PlanContext &c) { return analyticCopy(c, 4); }};

      case OpType::kNumOps:
        break;
    }
    GCD2_PANIC("op " << static_cast<int>(op) << " has no op family");
}

PlanRecipe
planRecipe(const graph::Graph &graph, graph::NodeId id,
           const ExecutionPlan &plan, bool lutOptimization)
{
    const graph::Node &node = graph.node(id);
    return opFamily(node.op).recipe({graph, node, plan, lutOptimization});
}

std::vector<ExecutionPlan>
enumeratePlans(const graph::Graph &graph, graph::NodeId id)
{
    const graph::Node &node = graph.node(id);
    std::vector<ExecutionPlan> plans;
    switch (opFamily(node.op).plans) {
      case PlanSet::RowMajor:
        plans.push_back(ExecutionPlan{});
        break;
      case PlanSet::PerLayout:
        for (Layout layout : {Layout::RowMajor, Layout::OneColumn,
                              Layout::TwoColumn, Layout::FourColumn}) {
            ExecutionPlan plan;
            plan.inLayout = plan.outLayout = layout;
            plans.push_back(plan);
        }
        break;
      case PlanSet::PerScheme:
        for (MatMulScheme scheme : {MatMulScheme::Vmpy, MatMulScheme::Vmpa,
                                    MatMulScheme::Vrmpy}) {
            ExecutionPlan plan;
            plan.scheme = scheme;
            plan.inLayout = kernels::schemeLayout(scheme);
            // A fused epilogue transform stores the result directly in
            // the row-major transformed view: downstream edges price
            // from RowMajor and the epilogue residue is charged to the
            // plan's cycles (Eq.-1 consistency).
            plan.outLayout = node.attrs.fusedTransform ? Layout::RowMajor
                                                       : plan.inLayout;
            plans.push_back(plan);
        }
        break;
    }
    return plans;
}

int
uniformPlanIndex(OpType op, MatMulScheme scheme)
{
    return opFamily(op).plans == PlanSet::PerScheme ? static_cast<int>(scheme)
                                                     : 0;
}

kernels::DepthwiseConfig
depthwisePlane(const graph::Graph &graph, graph::NodeId id)
{
    const graph::Node &node = graph.node(id);
    const graph::NodeAttrs &a = node.attrs;
    const tensor::Shape &in = graph.node(node.inputs[0]).shape;
    return {.channels = in.dim(0),
            .inH = in.dim(1),
            .inW = in.dim(2),
            .kH = a.kH,
            .kW = a.kW,
            .stride = a.strideW, // shape inference admits 1 or 2 only
            .padH = a.padH,
            .padW = a.padW};
}

MatrixView
matrixView(const tensor::Shape &shape)
{
    MatrixView view;
    if (shape.rank() == 0) {
        return view;
    }
    view.cols = shape.dim(shape.rank() - 1);
    GCD2_ASSERT(view.cols > 0, "empty tensor in matrix view");
    view.rows = shape.elements() / view.cols;
    return view;
}

} // namespace gcd2::select
