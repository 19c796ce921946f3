/**
 * @file
 * Global layout & instruction selection (Sections IV-A and IV-B).
 *
 * The optimization problem: pick one execution plan per operator so that
 *   Agg_Cost(G) = sum_v Cost(ep_v) + sum_e TC(ep_src(e), ep_dst(e))
 * is minimal (Eq. 1). Solvers provided:
 *
 *  - Local: per-operator argmin, ignoring transformation costs (the
 *    "local optimal" baseline of Fig. 10).
 *  - GlobalOptimal: branch-and-bound exhaustive search over all
 *    free-choice operators (exponential; the Fig. 10 "global optimal").
 *  - Gcd2Partitioned: the paper's solution -- split the graph at
 *    desirable partitioning edges (single-predecessor layout-pinned
 *    operators and profitable-transformation edges naturally pin
 *    layouts), bound each partition by a maximum operator count (the
 *    "GCD2(13)" / "GCD2(17)" parameter), and solve partitions
 *    independently and optimally.
 *
 * The polynomial exact solver (PBQP, whose R1 fold is the Eq. 2 chain
 * DP) lives in pbqp.h.
 */
#ifndef GCD2_SELECT_SELECTOR_H
#define GCD2_SELECT_SELECTOR_H

#include <vector>

#include "select/cost_model.h"

namespace gcd2 {
class ThreadPool;
}

namespace gcd2::select {

/** One plan choice per node (index into PlanTable::plans). */
struct Selection
{
    std::vector<int> planIndex; ///< -1 for dead nodes
    uint64_t totalCost = 0;     ///< Agg_Cost of the selection
};

/** Costed plans of every live node plus transformation-cost queries. */
class PlanTable
{
  public:
    /**
     * Cost every candidate plan of every live node. Plan costing
     * simulates canonical kernels, which dominates compile time. With
     * tiered costing it runs in two phases on @p pool (inline without
     * one): first one task per matmul tile class, which certifies the
     * class and fills every depth the table needs, then one task per
     * node class, whose tile lookups are then all memo hits. The result
     * is bit-identical at every pool size.
     */
    PlanTable(const graph::Graph &graph, const CostModel &model,
              ThreadPool *pool = nullptr);

    /** Shape-class sharing telemetry (tier 2 of tiered costing). */
    struct Stats
    {
        uint64_t shapeClasses = 0; ///< distinct structural signatures
        uint64_t sharedNodes = 0;  ///< live nodes served by a class rep
        uint64_t sharedPlans = 0;  ///< plan entries copied, not costed
    };

    const Stats &stats() const { return stats_; }

    const graph::Graph &graph() const { return *graph_; }

    const std::vector<ExecutionPlan> &
    plans(graph::NodeId id) const
    {
        return plans_[static_cast<size_t>(id)];
    }

    /** TC along edge producer->consumer under the given plan indices. */
    uint64_t tc(graph::NodeId producer, graph::NodeId consumer,
                int producerPlan, int consumerPlan) const;

    /** All (producer, consumer) tensor edges between live nodes. */
    const std::vector<std::pair<graph::NodeId, graph::NodeId>> &
    edges() const
    {
        return edges_;
    }

    /** Nodes with more than one candidate plan. */
    const std::vector<graph::NodeId> &freeNodes() const
    {
        return freeNodes_;
    }

  private:
    const graph::Graph *graph_;
    const CostModel *model_;
    std::vector<std::vector<ExecutionPlan>> plans_;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges_;
    std::vector<graph::NodeId> freeNodes_;
    Stats stats_;
};

/** Evaluate Agg_Cost (Eq. 1) of a complete selection. */
uint64_t aggCost(const PlanTable &table, const Selection &selection);

/** Solver telemetry for the Fig. 10 search-time comparison. */
struct SelectorResult
{
    Selection selection;
    double seconds = 0.0;        ///< wall-clock search time
    uint64_t evaluations = 0;    ///< plan combinations examined
    /**
     * selectGlobalOptimal's evaluation budget expired before the
     * branch-and-bound search proved optimality; the selection is the best complete assignment
     * found so far (never worse than the per-node-cheapest incumbent
     * the search is seeded with, hence always valid and servable).
     */
    bool truncated = false;
};

SelectorResult selectLocal(const PlanTable &table);

/** Largest free-operator set the unbudgeted branch-and-bound solvers
 *  accept: selectGlobalOptimal's default cap and selectGcd2Partitioned's
 *  partition bound. */
inline constexpr int kMaxExactNodes = 22;

/**
 * Exhaustive global optimum via branch-and-bound.
 * @param maxFreeNodes refuse (fatal) above this many free nodes so
 *        benches cannot accidentally run for hours. The cap is only
 *        enforced when @p maxEvaluations is 0 (unbounded search): a
 *        budgeted search degrades to best-so-far instead of refusing.
 * @param maxEvaluations branch-and-bound evaluation budget (0 =
 *        unlimited). When exhausted the result is marked truncated.
 */
SelectorResult selectGlobalOptimal(const PlanTable &table,
                                   size_t maxFreeNodes = kMaxExactNodes,
                                   uint64_t maxEvaluations = 0);

/**
 * The paper's partitioned solver with bounded sub-graph size.
 *
 * Partitions (connected components of free operators) are independent
 * subproblems: every edge leaving a component ends at a layout-pinned
 * operator whose plan is fixed up front, so no component's solution can
 * influence another's. With a @p pool of more than one worker the
 * components are solved concurrently; the resulting Selection, cost,
 * and evaluation count are bit-identical to the serial solve.
 *
 * @param maxPartition largest subset solved exactly; must lie in
 *        [1, kMaxExactNodes], since the search is unbudgeted and
 *        exponential in it. Out of range is FatalError.
 */
SelectorResult selectGcd2Partitioned(const PlanTable &table,
                                     int maxPartition = 13,
                                     ThreadPool *pool = nullptr);

} // namespace gcd2::select

#endif // GCD2_SELECT_SELECTOR_H
