#include "select/audit.h"

#include <string>

namespace gcd2::select {

using common::Diag;
using common::DiagSeverity;

std::vector<Diag>
auditSelection(const PlanTable &table, const Selection &selection,
               const SelectionAuditOptions &opts)
{
    std::vector<Diag> findings;
    const auto fail = [&](int64_t node, std::string message) {
        findings.push_back(Diag{DiagSeverity::Error, "selection-audit",
                                node, std::move(message)});
    };

    const graph::Graph &graph = table.graph();
    bool structural = true;
    if (selection.planIndex.size() != graph.size()) {
        fail(-1, "selection covers " +
                     std::to_string(selection.planIndex.size()) +
                     " nodes, graph has " + std::to_string(graph.size()));
        return findings; // nothing below is safe to evaluate
    }
    for (const graph::Node &node : graph.nodes()) {
        const int plan = selection.planIndex[static_cast<size_t>(node.id)];
        if (node.dead) {
            if (plan >= 0) {
                fail(node.id, "dead node carries plan index " +
                                  std::to_string(plan));
                structural = false;
            }
            continue;
        }
        const int planCount =
            static_cast<int>(table.plans(node.id).size());
        if (plan < 0 || plan >= planCount) {
            fail(node.id, "live node plan index " + std::to_string(plan) +
                              " outside [0, " + std::to_string(planCount) +
                              ")");
            structural = false;
        }
    }
    if (!structural)
        return findings; // aggCost would assert on a broken selection

    const uint64_t derived = aggCost(table, selection);
    if (derived != selection.totalCost)
        fail(-1, "totalCost " + std::to_string(selection.totalCost) +
                     " does not re-derive via Agg_Cost (" +
                     std::to_string(derived) + ")");

    if (opts.checkNotWorseThanLocal) {
        const SelectorResult local = selectLocal(table);
        if (derived > local.selection.totalCost)
            fail(-1, "selection cost " + std::to_string(derived) +
                         " worse than the local baseline " +
                         std::to_string(local.selection.totalCost));
    }

    if (opts.deep && table.freeNodes().size() <= opts.deepMaxFreeNodes) {
        const SelectorResult opt =
            selectGlobalOptimal(table, opts.deepMaxFreeNodes);
        if (derived != opt.selection.totalCost)
            fail(-1, "deep audit: cost " + std::to_string(derived) +
                         " differs from the exact optimum " +
                         std::to_string(opt.selection.totalCost) + " (" +
                         std::to_string(table.freeNodes().size()) +
                         " free nodes)");
    }
    return findings;
}

std::vector<Diag>
auditTieredCosts(const PlanTable &table, const CostModelOptions &options)
{
    std::vector<Diag> findings;
    const auto fail = [&](int64_t node, std::string message) {
        findings.push_back(Diag{DiagSeverity::Error, "tiered-audit", node,
                                std::move(message)});
    };

    // A scratch exhaustive model: tiered costing off and a private
    // cache, so every cost below comes from a genuine generate + pack +
    // simulate, independent of anything the tiered path produced. The
    // packs go through the process-wide PackCache, whose block tier
    // answers most of them from blocks the tiered path already packed.
    // That does not weaken the re-cost: a block hit requires equal
    // vliw::blockPackingKey bytes, which hold everything the block
    // packer reads, so it returns exactly what a direct pack would, and
    // PackDifferentialTest pins the tier against vliw::pack.
    CostModelOptions exhaustiveOptions = options;
    exhaustiveOptions.tieredCosting = false;
    const CostModel exhaustive(exhaustiveOptions);

    const graph::Graph &graph = table.graph();
    for (const graph::Node &node : graph.nodes()) {
        if (node.dead)
            continue;
        const std::vector<ExecutionPlan> &tiered = table.plans(node.id);
        const std::vector<ExecutionPlan> exact =
            exhaustive.costedPlans(graph, node.id);
        if (tiered.size() != exact.size()) {
            fail(node.id, "tiered table has " +
                              std::to_string(tiered.size()) +
                              " plans, exhaustive costing has " +
                              std::to_string(exact.size()));
            continue;
        }
        for (size_t i = 0; i < tiered.size(); ++i) {
            if (tiered[i].scheme != exact[i].scheme ||
                tiered[i].inLayout != exact[i].inLayout ||
                tiered[i].outLayout != exact[i].outLayout) {
                fail(node.id, "plan " + std::to_string(i) +
                                  " differs structurally from the "
                                  "exhaustive enumeration");
                continue;
            }
            if (tiered[i].cycles != exact[i].cycles) {
                fail(node.id, "plan " + std::to_string(i) + " costs " +
                                  std::to_string(tiered[i].cycles) +
                                  " tiered but " +
                                  std::to_string(exact[i].cycles) +
                                  " exhaustively");
            }
        }
    }
    return findings;
}

} // namespace gcd2::select
