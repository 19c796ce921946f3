/**
 * @file
 * Execution plans and the op-family table (Section IV-A).
 *
 * Every operator O has candidate plans EP(O), each with a cost
 * Cost(ep_i(O)). The op-family table, opFamily(), is the one place that
 * says for each operator kind which plans exist and what each plan's
 * cost is built from. Plan enumeration, plan costing, the served
 * schedule, the certified lower bound, the plan table's tile requests
 * and the uniform baseline all read it (DESIGN.md section 7).
 *
 * Matmul-family operators offer one plan per SIMD multiply scheme with
 * its input and output layout. Elementwise operators run unchanged in
 * any layout (byte-position-independent math), so they offer one
 * layout-preserving plan per layout. Layout-sensitive operators
 * (pooling, shape ops, normalizations, depthwise) are pinned to
 * row-major -- which is exactly what creates the desirable partitioning
 * edges of Section IV-B.
 *
 * A plan's recipe lists the canonical kernels its cost sums, each with
 * its scale rule, plus analytic terms. The first kernel is the one
 * served for the plan; a recipe without kernels serves no program.
 */
#ifndef GCD2_SELECT_PLAN_H
#define GCD2_SELECT_PLAN_H

#include <vector>

#include "graph/graph.h"
#include "kernels/conv.h"
#include "select/cost_cache.h"
#include "select/exec_stats.h"
#include "tensor/layout.h"

namespace gcd2::select {

/** One candidate implementation of an operator. */
struct ExecutionPlan
{
    /** SIMD multiply scheme (matmul-family plans only). */
    kernels::MatMulScheme scheme = kernels::MatMulScheme::Vrmpy;
    /** Layout every (tensor) input must arrive in. */
    tensor::Layout inLayout = tensor::Layout::RowMajor;
    /** Layout the output tensor is produced in. */
    tensor::Layout outLayout = tensor::Layout::RowMajor;
    /** Execution cost in cycles, filled by the cost model. */
    uint64_t cycles = 0;
};

/** How an op family forms its candidate plans. */
enum class PlanSet : uint8_t
{
    RowMajor,  ///< one row-major plan
    PerLayout, ///< one layout-preserving plan per layout
    PerScheme, ///< one plan per SIMD multiply scheme, in enum order
};

/** One canonical kernel a plan's cost looks up, and how it scales. */
struct KernelTerm
{
    CostKind kind = CostKind::Elementwise;
    /** The CostKey tag: MatMulScheme, depthwise stride, or EwOp. */
    int32_t tag = 0;
    /** MatMulTile: the whole product. The cost model picks the unroll
     *  and scales the tile by the product's panel x tile trips. */
    kernels::MatMulShape product{};
    /** Elementwise: elements covered. The simulated run is clamped to a
     *  canonical length and scaled by length / simulated length.
     *  DepthwiseRow: output rows of one kernel channel. */
    int64_t length = 0;
    /** DepthwiseRow: the filter rows and columns of the kernel. */
    int32_t filterH = 0;
    int32_t filterW = 0;
    /** Applied after the kernel's own scaling, unless exactly 1.0. */
    double scale = 1.0;
};

/**
 * A plan's cost: (sum of kernels + inner) scaled by batch, + outer.
 * Sums saturate and scales are NodeExecStats::scaled calls, so the
 * recipe fixes the order of every rounding step.
 */
struct PlanRecipe
{
    /** Summed in order; front() is the kernel served for the plan. */
    std::vector<KernelTerm> kernels{};
    /** Analytic terms charged before the batch scale (im2col). */
    NodeExecStats inner{};
    /** Repetitions of the whole kernel (batched MatMul); 1.0 = none. */
    double batch = 1.0;
    /** Analytic terms charged last: fused epilogues, per-row divisions,
     *  and the whole cost of operators without a kernel. */
    NodeExecStats outer{};
};

/** What a recipe reads: the node, its plan and the LUT toggle. */
struct PlanContext
{
    const graph::Graph &graph;
    const graph::Node &node;
    const ExecutionPlan &plan;
    bool lutOptimization;
};

/** One entry of the op-family table. */
struct OpFamily
{
    PlanSet plans;
    PlanRecipe (*recipe)(const PlanContext &context);
};

/** The table entry of @p op. */
OpFamily opFamily(graph::OpType op);

/** The recipe of @p plan for node @p id. */
PlanRecipe planRecipe(const graph::Graph &graph, graph::NodeId id,
                      const ExecutionPlan &plan, bool lutOptimization);

/**
 * Enumerate the candidate plans of a node (costs not yet filled).
 * Never empty; single-element for layout-pinned operators.
 */
std::vector<ExecutionPlan> enumeratePlans(const graph::Graph &graph,
                                          graph::NodeId id);

/**
 * The plan index SelectionMode::Uniform serves for @p op: @p scheme for
 * the matmul family, the row-major plan (index 0) for every other one --
 * the uniform per-op-type implementations of TFLite/SNPE.
 */
int uniformPlanIndex(graph::OpType op, kernels::MatMulScheme scheme);

/**
 * The planes depthwise node @p id filters, with the graph's semantics:
 * its input's (C, H, W), the filter, the stride and the padding. Its
 * rowView() is what the kernel runs and the recipe prices.
 */
kernels::DepthwiseConfig depthwisePlane(const graph::Graph &graph,
                                        graph::NodeId id);

/**
 * Matrix view of a tensor for layout packing/transform costing:
 * (rows = elements / last-dim, cols = last-dim).
 */
struct MatrixView
{
    int64_t rows = 1;
    int64_t cols = 1;
};

MatrixView matrixView(const tensor::Shape &shape);

} // namespace gcd2::select

#endif // GCD2_SELECT_PLAN_H
