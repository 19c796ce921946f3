/**
 * @file
 * PBQP plan selection (the Anderson & Gregg formulation of DNN
 * primitive selection, which Eq. 1 is an instance of).
 *
 * The free-operator graph (see free_graph.h) carries a cost vector per
 * node and a cost matrix per edge; the solver repeatedly removes the
 * lowest-degree node:
 *
 *  - R0 (degree 0): the node is independent; resolved by vector argmin
 *    during back-propagation.
 *  - R1 (degree 1): fold min_p (v_i[p] + M(p, q)) into the neighbor's
 *    vector; exact.
 *  - R2 (degree 2): combine the node's two matrices into one new matrix
 *    between its neighbors (merging with any existing edge); exact.
 *  - RN (degree >= 3): heuristic -- pick the plan minimizing the node's
 *    vector cost plus the row-minimum of every incident matrix, fold
 *    that row into each neighbor, and reconsider the choice during
 *    back-propagation once the neighbors are assigned.
 *
 * When only R0/R1/R2 fire the back-propagated assignment is a proven
 * optimum of the instance (and hence of Agg_Cost); any RN application
 * makes the result heuristic, so the caller must not claim optimality.
 * Either way the served selection is floored at the local baseline, so
 * the rung always satisfies the audit's not-worse-than-local check.
 *
 * Complexity is polynomial (no branch-and-bound), which is what makes
 * PBQP the default selector (runtime::SelectionMode::Pbqp) and the
 * ladder rung between the partitioned branch-and-bound and the local
 * floor. The pipeline cross-checks a heuristic (RN) solve against gcd2
 * and serves the cheaper selection.
 */
#ifndef GCD2_SELECT_PBQP_H
#define GCD2_SELECT_PBQP_H

#include "select/selector.h"

namespace gcd2::select {

/** Reduction-rule telemetry of one PBQP solve. */
struct PbqpStats
{
    uint64_t r0 = 0; ///< degree-0 removals (vector argmin)
    uint64_t r1 = 0; ///< degree-1 folds
    uint64_t r2 = 0; ///< degree-2 matrix combinations
    uint64_t rn = 0; ///< heuristic removals (degree >= 3)

    /** True iff no heuristic reduction fired: the assignment is a
     *  proven Agg_Cost optimum, safe for the deep audit's exact
     *  re-solve to cross-check. */
    bool provablyOptimal() const { return rn == 0; }
};

SelectorResult selectPbqp(const PlanTable &table,
                          PbqpStats *stats = nullptr);

} // namespace gcd2::select

#endif // GCD2_SELECT_PBQP_H
