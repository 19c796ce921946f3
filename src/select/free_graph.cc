#include "select/free_graph.h"

#include <algorithm>
#include <map>

namespace gcd2::select {

using graph::NodeId;

FreeGraph
FreeGraph::build(const PlanTable &table)
{
    FreeGraph fg;
    fg.nodes = table.freeNodes();
    const size_t n = fg.nodes.size();
    std::vector<int> posOf(table.graph().size(), -1); // -1 = not free
    for (size_t i = 0; i < n; ++i)
        posOf[static_cast<size_t>(fg.nodes[i])] = static_cast<int>(i);

    fg.vectors.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const auto &plans = table.plans(fg.nodes[i]);
        fg.vectors[i].resize(plans.size());
        for (size_t p = 0; p < plans.size(); ++p)
            fg.vectors[i][p] = plans[p].cycles;
    }

    // Merge parallel tensor edges between one node pair into a single
    // matrix (keyed by the unordered pair); fold edges whose other
    // endpoint is pinned -- a live node with exactly one plan, always
    // plan 0 -- into the free endpoint's vector.
    std::map<std::pair<int, int>, size_t> edgeIndex;
    for (const auto &[src, dst] : table.edges()) {
        const int a = posOf[static_cast<size_t>(src)];
        const int b = posOf[static_cast<size_t>(dst)];
        if (a >= 0 && b >= 0) {
            if (a == b) {
                // Self loop (an operator consuming its own output twice
                // reduces to one node): diagonal folds into the vector.
                auto &vec = fg.vectors[static_cast<size_t>(a)];
                for (size_t p = 0; p < vec.size(); ++p)
                    vec[p] += table.tc(src, dst, static_cast<int>(p),
                                       static_cast<int>(p));
                continue;
            }
            const int lo = std::min(a, b);
            const int hi = std::max(a, b);
            const auto [it, inserted] =
                edgeIndex.try_emplace({lo, hi}, fg.edges.size());
            if (inserted) {
                Edge edge;
                edge.a = lo;
                edge.b = hi;
                edge.cost.assign(
                    fg.planCount(lo),
                    std::vector<uint64_t>(fg.planCount(hi), 0));
                fg.edges.push_back(std::move(edge));
            }
            Edge &edge = fg.edges[it->second];
            for (size_t pa = 0; pa < fg.planCount(lo); ++pa)
                for (size_t pb = 0; pb < fg.planCount(hi); ++pb) {
                    const int srcPlan = a == lo ? static_cast<int>(pa)
                                                : static_cast<int>(pb);
                    const int dstPlan = a == lo ? static_cast<int>(pb)
                                                : static_cast<int>(pa);
                    edge.cost[pa][pb] +=
                        table.tc(src, dst, srcPlan, dstPlan);
                }
        } else if (a >= 0 || b >= 0) {
            const int inside = a >= 0 ? a : b;
            auto &vec = fg.vectors[static_cast<size_t>(inside)];
            for (size_t p = 0; p < vec.size(); ++p) {
                const int srcPlan = a >= 0 ? static_cast<int>(p) : 0;
                const int dstPlan = a >= 0 ? 0 : static_cast<int>(p);
                vec[p] += table.tc(src, dst, srcPlan, dstPlan);
            }
        }
    }
    return fg;
}

} // namespace gcd2::select
