/**
 * @file
 * Reduced pairwise view of a PlanTable: the selection problem restricted
 * to the free operators (two or more candidate plans). Pinned neighbors
 * (exactly one plan) contribute constants folded into per-node cost
 * vectors, and all parallel tensor edges between two free operators
 * merge into one undirected cost matrix. The result is exactly the
 * Partitioned Boolean Quadratic Problem instance (Anderson & Gregg) that
 * the PBQP rung solves:
 *
 *   min over assignments x of
 *     sum_i vectors[i][x_i] + sum_{(a,b)} edge.cost[x_a][x_b]
 *
 * which equals Agg_Cost (Eq. 1) minus the constant contributed by pinned
 * nodes and pinned-pinned edges -- so an argmin here, with every pinned
 * node at its single plan, is an Agg_Cost argmin.
 */
#ifndef GCD2_SELECT_FREE_GRAPH_H
#define GCD2_SELECT_FREE_GRAPH_H

#include <cstdint>
#include <vector>

#include "select/selector.h"

namespace gcd2::select {

struct FreeGraph
{
    struct Edge
    {
        int a = 0, b = 0; ///< node indices into nodes, a < b
        /** cost[pa][pb]: summed TC of every parallel tensor edge between
         *  the pair, whichever direction each runs. */
        std::vector<std::vector<uint64_t>> cost;
    };

    std::vector<graph::NodeId> nodes; ///< free nodes, PlanTable order
    /** vectors[i][p]: plan cycles plus TC on edges to pinned neighbors
     *  (and any self-loop diagonal). */
    std::vector<std::vector<uint64_t>> vectors;
    std::vector<Edge> edges;

    static FreeGraph build(const PlanTable &table);

    size_t size() const { return nodes.size(); }

    size_t planCount(int i) const
    {
        return vectors[static_cast<size_t>(i)].size();
    }
};

} // namespace gcd2::select

#endif // GCD2_SELECT_FREE_GRAPH_H
