/**
 * @file
 * Non-throwing selection auditor.
 *
 * Proves (or disproves) on every compile that a served Selection actually
 * has the properties the solvers claim:
 *  - structural sanity: every live node carries an in-range plan index,
 *    dead nodes carry none;
 *  - cost honesty: the recorded totalCost re-derives from Eq. 1 via
 *    aggCost;
 *  - solver-quality floor (optional): a global solver's result is never
 *    worse than selectLocal's, the cheapest bar any solver must clear;
 *  - deep mode (optional, expensive): on graphs small enough to solve
 *    exactly, the result's cost matches selectGlobalOptimal's.
 *
 * Violations come back as structured Error diagnostics (pass
 * "selection-audit") rather than panics, so the pipeline can serve the
 * artifact while flagging it suspect.
 */
#ifndef GCD2_SELECT_AUDIT_H
#define GCD2_SELECT_AUDIT_H

#include <vector>

#include "common/diag.h"
#include "select/selector.h"

namespace gcd2::select {

struct SelectionAuditOptions
{
    /**
     * Check selection.totalCost <= selectLocal's Agg_Cost. Only sound
     * for solvers that dominate the local baseline by construction
     * (partitioned / global / budget-seeded); modes that deliberately
     * override plans (Uniform) must leave it off.
     */
    bool checkNotWorseThanLocal = false;
    /** Re-solve exactly and require cost equality on small graphs. */
    bool deep = false;
    /** Free-node cap above which deep mode silently skips (exponential). */
    size_t deepMaxFreeNodes = 12;
};

/**
 * Audit @p selection against @p table. Returns one Error diagnostic per
 * violated invariant (empty = all checks passed). Derived checks that
 * would crash on a structurally broken selection are skipped once the
 * structural pass fails, so the auditor itself never throws.
 */
std::vector<common::Diag>
auditSelection(const PlanTable &table, const Selection &selection,
               const SelectionAuditOptions &opts = {});

/**
 * Deep tiered-costing audit (expensive): re-cost every live node's plans
 * through a scratch *exhaustive* cost model -- tiered costing off, a
 * fresh private CostCache, so nothing the tiered path memoized can leak
 * in -- and prove @p table is what full costing produces: every plan
 * must match its exhaustive enumeration and cost exactly. With TC
 * independent of costing, that makes any selection solved over the
 * table bit-identical to one solved over exhaustive costs. Returns
 * Error diagnostics (pass "tiered-audit"; empty = proven).
 */
std::vector<common::Diag>
auditTieredCosts(const PlanTable &table, const CostModelOptions &options);

} // namespace gcd2::select

#endif // GCD2_SELECT_AUDIT_H
