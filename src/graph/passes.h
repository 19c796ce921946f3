/**
 * @file
 * Graph optimization passes applied before global layout selection
 * (the "computational graph optimizations" step of Fig. 6).
 */
#ifndef GCD2_GRAPH_PASSES_H
#define GCD2_GRAPH_PASSES_H

#include "graph/graph.h"

namespace gcd2::graph {

/** Result counters of a pass run. */
struct PassStats
{
    int64_t foldedNodes = 0;
    int64_t fusedActivations = 0;
    int64_t removedNodes = 0;

    // eliminateLayoutTransforms, per rule.
    int64_t cancelledTransforms = 0; ///< inverse pairs / identities gone
    int64_t sunkTransforms = 0;      ///< pushed below layout-agnostic ops
    int64_t fusedTransforms = 0;     ///< folded into producer epilogues
    /** Estimated standalone transform cycles removed from the graph
     *  (analytic copy estimate; epilogue residue is charged to plans). */
    int64_t transformCyclesSaved = 0;

    // Extended fusion (OptimizeOptions::extendedFusion).
    int64_t fusedLuts = 0;
    int64_t fusedResiduals = 0;
};

/** Knobs for optimize(). Defaults preserve historical behavior: model
 *  builders bake in only fold/clamp-fuse/DCE, so built graphs keep their
 *  Reshape/Transpose nodes and the compile pipeline decides (via
 *  runtime::CompileOptions) whether to eliminate them. */
struct OptimizeOptions
{
    /** Cancel / sink / fuse layout transforms (Reshape, Transpose). */
    bool eliminateLayoutTransforms = false;
    /** Also run fuseLutActivations + fuseResidualAdds. */
    bool extendedFusion = false;
};

/**
 * Constant folding: ops whose inputs are all Constant become Constant
 * nodes themselves (shape-level; weights are synthetic, so the fold keeps
 * the inferred shape but drops the computation).
 */
int64_t foldConstants(Graph &graph);

/**
 * Fuse a Clamp whose producer is a Conv2D / DepthwiseConv2D / MatMul /
 * Add with a single consumer into that producer (free on the DSP: the
 * requantization epilogue applies the clamp bounds). A producer that
 * already carries a fused clamp keeps it; the later clamp stays a node.
 */
int64_t fuseClampActivations(Graph &graph);

/** Mark nodes that do not reach any Output as dead. */
int64_t eliminateDeadNodes(Graph &graph);

/**
 * DSP-friendly operator fusion (the paper's future-work extension):
 * fold a single-consumer lookup-table nonlinearity (Sigmoid / Tanh /
 * Gelu / Pow) into the producing Conv2D / MatMul kernel's epilogue --
 * the requantized bytes flow through one extra VLUT before the store
 * instead of a separate load/lookup/store pass over the tensor.
 * Not part of the default pipeline; enable explicitly.
 */
int64_t fuseLutActivations(Graph &graph);

/**
 * Companion fusion: fold a single-consumer residual Add into the
 * producing Conv2D / MatMul epilogue (the second operand streams through
 * the store path), saving a full pass over the output tensor. Part of
 * the same extension; enable explicitly.
 */
int64_t fuseResidualAdds(Graph &graph);

/**
 * Transform-elimination pass group (SmartMem-style, applied before
 * layout selection so the plan table prices the reduced graph):
 *
 *   1. cancel   -- drop identity Reshape/Transpose nodes, compose
 *                  Reshape-of-Reshape and Transpose-of-Transpose chains
 *                  (inverse pairs cancel to identity and vanish);
 *   2. sink     -- push a transform below a layout-agnostic consumer
 *                  (unary elementwise, or a binary elementwise whose
 *                  operands went through identical transforms, or whose
 *                  other operand is a scalar broadcast), re-exposing
 *                  producer/consumer pairs the other rules can collapse;
 *   3. fuse     -- fold a surviving single-consumer transform into its
 *                  matmul-family producer as an epilogue attribute
 *                  (attrs.fusedTransform / fusedOutShape): the kernel
 *                  stores directly in the transformed view and the edge
 *                  transform cost disappears.
 *
 * Runs rounds of cancel, sink and fuse, each to its fixpoint, with
 * dead-node elimination between rounds, until a round changes nothing.
 * Within a rule the smallest-id match is rewritten first; a live
 * successor index and a worklist keep each round linear in graph size
 * (DESIGN.md section 13). Updates stats.{cancelled,sunk,fused}Transforms
 * and stats.transformCyclesSaved. Returns the number of rewrites
 * applied.
 */
int64_t eliminateLayoutTransforms(Graph &graph, PassStats &stats);

/** Run the standard pipeline: fold, fuse, eliminate; then re-infer.
 *  OptimizeOptions gates the transform-elimination and extended-fusion
 *  rewrites (both off by default). */
PassStats optimize(Graph &graph, const OptimizeOptions &options = {});

} // namespace gcd2::graph

#endif // GCD2_GRAPH_PASSES_H
