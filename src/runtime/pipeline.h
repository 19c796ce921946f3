/**
 * @file
 * The compilation pipeline: one CompilationSession per compile, running
 * the Fig. 6 workflow as a sequence of named, individually timed passes:
 *
 *   graph-optimize    computational-graph optimizations (fold/fuse/DCE)
 *   plan-table        enumerate + cost every candidate plan (kernel
 *                     generation, VLIW packing, and timing simulation of
 *                     the canonical kernels happen here, memoized)
 *   selection         global layout/instruction selection (IV-A/B),
 *                     served through a fallback ladder (requested
 *                     strategy -> gcd2 -> pbqp -> local): a rung that
 *                     throws FatalError is recorded as a Warning
 *                     diagnostic and the next rung serves instead; a
 *                     heuristic (RN) pbqp solve is cross-checked
 *                     against gcd2 and the cheaper selection serves
 *   kernel-generation per-node statistics of the *chosen* kernels
 *   cycle-accounting  totals, layout-transformation edges, overheads
 *   audit             selection + schedule invariant checks (AuditMode)
 *
 * Each pass records wall-clock seconds and input/output counters into a
 * PipelineReport that ships inside the CompiledModel, so callers can see
 * where compile time went without re-instrumenting. Structured
 * diagnostics (fallbacks taken, cross-check switches, audit findings) flow
 * through a thread-safe DiagLog into PipelineReport::diagnostics.
 *
 * The session owns a ThreadPool (CompileOptions::numThreads) used by the
 * embarrassingly parallel stages -- per-node plan costing, independent
 * GCD2 partition solves, and per-node kernel accounting. Every parallel
 * region is deterministic: thread count changes wall-clock time only,
 * never the Selection, costs, or cycle totals.
 */
#ifndef GCD2_RUNTIME_PIPELINE_H
#define GCD2_RUNTIME_PIPELINE_H

#include <functional>
#include <optional>

#include "common/diag.h"
#include "common/thread_pool.h"
#include "runtime/compiler.h"
#include "select/pbqp.h"

namespace gcd2::runtime {

class CompilationSession
{
  public:
    CompilationSession(const graph::Graph &graph,
                       const CompileOptions &options);

    /** Run every pass and return the compiled model (with its report). */
    CompiledModel run();

    /** The report built so far (complete after run()). */
    const PipelineReport &report() const { return report_; }

  private:
    /** Time one named pass; @p body fills the pass's counters. */
    void runPass(const char *name,
                 const std::function<void(PassReport &)> &body);

    void passGraphOptimize(PassReport &pass);
    void passPlanTable(PassReport &pass);
    void passSelection(PassReport &pass, CompiledModel &result);
    void passKernelGeneration(PassReport &pass, CompiledModel &result);
    void passCycleAccounting(PassReport &pass, CompiledModel &result);
    void passAudit(PassReport &pass, CompiledModel &result);

    graph::Graph graph_; ///< session-private copy the passes may rewrite
    CompileOptions options_;
    ThreadPool pool_;
    PipelineReport report_;
    /** Thread-safe diagnostic sink; snapshotted into the report. */
    common::DiagLog diag_;

    std::optional<select::CostModel> model_;
    std::optional<select::PlanTable> table_;
    /** Reduction-rule telemetry of the last PBQP solve (valid when the
     *  pbqp rung served; feeds the pbqp-r* counters and gates the deep
     *  audit's exact re-solve on provablyOptimal()). */
    select::PbqpStats pbqpStats_;
    /** Stats of each node's selected plan (kernel-generation output). */
    std::vector<select::NodeExecStats> nodeStats_;
    /** Standalone transform cycles the graph-optimize pass eliminated
     *  (analytic estimate; feeds the transform-cycles-pre counter). */
    int64_t transformCyclesSaved_ = 0;
};

} // namespace gcd2::runtime

#endif // GCD2_RUNTIME_PIPELINE_H
