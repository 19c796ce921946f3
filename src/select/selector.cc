#include "select/selector.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace gcd2::select {

using graph::NodeId;
using graph::OpType;

namespace {

/**
 * Structural node signature (tier 2 of tiered costing, DESIGN.md
 * section 16): two live nodes with equal signatures produce identical
 * costedPlans vectors, because plan enumeration and the cost model read
 * nothing else about a node -- its op, its full attribute set, its
 * output shape, and its inputs' ops and shapes. Compared exactly (no
 * hashing), so equal signatures really do mean identical costing
 * inputs.
 */
std::vector<int64_t>
nodeSignature(const graph::Graph &graph, const graph::Node &node)
{
    std::vector<int64_t> sig;
    auto pushShape = [&sig](const tensor::Shape &shape) {
        sig.push_back(shape.rank());
        for (int64_t d : shape.dims())
            sig.push_back(d);
    };
    auto pushVec = [&sig](const auto &values) {
        sig.push_back(static_cast<int64_t>(values.size()));
        for (const auto v : values)
            sig.push_back(static_cast<int64_t>(v));
    };
    sig.push_back(static_cast<int64_t>(node.op));
    pushShape(node.shape);

    const graph::NodeAttrs &a = node.attrs;
    sig.insert(sig.end(),
               {a.outC, a.kH, a.kW, a.strideH, a.strideW, a.padH, a.padW,
                a.transposeB ? 1 : 0, a.poolK, a.poolStride, a.clampLo,
                a.clampHi, a.axis, a.fusedClamp ? 1 : 0, a.fusedLo,
                a.fusedHi, a.fusedLut ? 1 : 0, a.fusedAdd ? 1 : 0,
                a.fusedTransform ? 1 : 0,
                a.fusedTransformPermutes ? 1 : 0});
    int64_t exponentBits = 0;
    static_assert(sizeof(exponentBits) == sizeof(a.exponent));
    std::memcpy(&exponentBits, &a.exponent, sizeof(exponentBits));
    sig.push_back(exponentBits);
    pushVec(a.targetShape);
    pushVec(a.perm);
    pushVec(a.fusedOutShape);

    sig.push_back(static_cast<int64_t>(node.inputs.size()));
    for (NodeId in : node.inputs) {
        const graph::Node &producer = graph.node(in);
        sig.push_back(static_cast<int64_t>(producer.op));
        pushShape(producer.shape);
    }
    return sig;
}

/** body(0..n-1) on @p pool, or inline in order without one. */
void
forEachIndex(ThreadPool *pool, size_t n,
             const std::function<void(int64_t)> &body)
{
    if (pool != nullptr) {
        pool->parallelFor(static_cast<int64_t>(n), body);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        body(static_cast<int64_t>(i));
}

} // namespace

PlanTable::PlanTable(const graph::Graph &graph, const CostModel &model,
                     ThreadPool *pool)
    : graph_(&graph), model_(&model)
{
    plans_.resize(graph.size());
    const std::vector<graph::Node> &nodes = graph.nodes();
    // Every table lookup below is keyed by node id, so ids must be a
    // dense [0, size) enumeration matching storage order. Check once
    // here rather than trusting each path to agree.
    for (size_t i = 0; i < nodes.size(); ++i)
        GCD2_ASSERT(static_cast<size_t>(nodes[i].id) == i,
                    "graph node ids must be dense and positional (node "
                        << nodes[i].id << " at index " << i << ")");
    if (model.options().tieredCosting) {
        // Shape-class canonicalization: group live nodes by structural
        // signature, cost one representative per class, and copy its
        // plan vector to every member. Identical signatures feed the
        // cost model identical inputs, so the copies are what per-node
        // costing would have produced bit for bit.
        std::map<std::vector<int64_t>, std::vector<NodeId>> classes;
        for (const graph::Node &node : nodes)
            if (!node.dead)
                classes[nodeSignature(graph, node)].push_back(node.id);
        std::vector<const std::vector<NodeId> *> groups;
        groups.reserve(classes.size());
        for (const auto &entry : classes)
            groups.push_back(&entry.second);

        // Phase 1: certify every tile class the representatives' plans
        // look up, one pool task per class. Certification (one pack and
        // three anchor simulations) is most of the table's cost and runs
        // under the class lock, so costing nodes directly would park
        // every other node of a class behind whichever thread got there
        // first. As tasks, each class is certified once and its depths
        // filled by the thread that certified it. Largest canonical
        // program first, so the longest task never starts last.
        struct TileClassTask
        {
            std::vector<TileRequest> requests; ///< distinct depths
            size_t programSize = 0;
        };
        std::vector<TileClassTask> tileTasks;
        std::map<std::vector<int64_t>, size_t> taskOf;
        for (const std::vector<NodeId> *members : groups) {
            for (const TileRequest &request :
                 model.tileRequests(graph, members->front())) {
                const auto [slot, fresh] = taskOf.try_emplace(
                    tileClassKey(request.tile, request.config),
                    tileTasks.size());
                if (fresh)
                    tileTasks.push_back(
                        {{}, tileClassProgramSize(request.tile,
                                                  request.config)});
                std::vector<TileRequest> &requests =
                    tileTasks[slot->second].requests;
                if (std::none_of(requests.begin(), requests.end(),
                                 [&](const TileRequest &r) {
                                     return r.tile.k == request.tile.k;
                                 }))
                    requests.push_back(request);
            }
        }
        std::stable_sort(tileTasks.begin(), tileTasks.end(),
                         [](const TileClassTask &a, const TileClassTask &b) {
                             return a.programSize > b.programSize;
                         });
        forEachIndex(pool, tileTasks.size(), [&](int64_t i) {
            model.fillTiles(tileTasks[static_cast<size_t>(i)].requests);
        });

        // Phase 2: cost the representatives. Every tile lookup is now a
        // memo hit; what remains is the cheap non-matmul kernels. Members
        // are disjoint across groups, so parallel writes never touch the
        // same plan slot.
        forEachIndex(pool, groups.size(), [&](int64_t i) {
            const std::vector<NodeId> &members =
                *groups[static_cast<size_t>(i)];
            const NodeId rep = members.front();
            plans_[static_cast<size_t>(rep)] =
                model.costedPlans(graph, rep);
            for (size_t m = 1; m < members.size(); ++m)
                plans_[static_cast<size_t>(members[m])] =
                    plans_[static_cast<size_t>(rep)];
        });
        stats_.shapeClasses = classes.size();
        for (const auto &entry : classes) {
            const size_t copies = entry.second.size() - 1;
            stats_.sharedNodes += copies;
            stats_.sharedPlans +=
                copies *
                plans_[static_cast<size_t>(entry.second.front())].size();
        }
    } else {
        // Each node's plan set is an independent pure computation (the
        // cost model's memo cache is thread-safe), so any iteration
        // order yields the same table.
        forEachIndex(pool, nodes.size(), [&](int64_t i) {
            const graph::Node &node = nodes[static_cast<size_t>(i)];
            if (!node.dead)
                plans_[static_cast<size_t>(node.id)] =
                    model.costedPlans(graph, node.id);
        });
    }
    // Edge and free-node enumeration stays serial so their order (which
    // downstream solvers iterate in) is independent of thread count.
    for (const graph::Node &node : nodes) {
        if (node.dead)
            continue;
        for (NodeId in : node.inputs)
            if (!graph.node(in).dead)
                edges_.emplace_back(in, node.id);
        if (plans_[static_cast<size_t>(node.id)].size() > 1)
            freeNodes_.push_back(node.id);
    }
}

uint64_t
PlanTable::tc(NodeId producer, NodeId consumer, int producerPlan,
              int consumerPlan) const
{
    const graph::Node &src = graph_->node(producer);
    // Constants (weights, tables) are packed at compile time: free.
    if (src.op == OpType::Constant)
        return 0;
    const ExecutionPlan &from =
        plans_[static_cast<size_t>(producer)]
              [static_cast<size_t>(producerPlan)];
    const ExecutionPlan &to =
        plans_[static_cast<size_t>(consumer)]
              [static_cast<size_t>(consumerPlan)];
    return model_->transformCost(src.shape, from.outLayout, to.inLayout);
}

uint64_t
aggCost(const PlanTable &table, const Selection &selection)
{
    const graph::Graph &graph = table.graph();
    uint64_t total = 0;
    for (const graph::Node &node : graph.nodes()) {
        if (node.dead)
            continue;
        const int plan =
            selection.planIndex[static_cast<size_t>(node.id)];
        GCD2_ASSERT(plan >= 0, "live node " << node.id << " unselected");
        total += table.plans(node.id)[static_cast<size_t>(plan)].cycles;
    }
    for (const auto &[src, dst] : table.edges()) {
        total += table.tc(src, dst,
                          selection.planIndex[static_cast<size_t>(src)],
                          selection.planIndex[static_cast<size_t>(dst)]);
    }
    return total;
}

namespace {

Selection
emptySelection(const PlanTable &table)
{
    Selection sel;
    sel.planIndex.assign(table.graph().size(), -1);
    for (const graph::Node &node : table.graph().nodes())
        if (!node.dead)
            sel.planIndex[static_cast<size_t>(node.id)] = 0;
    return sel;
}

/** Pre-assign every free node its cheapest plan (selectLocal's argmin
 *  and tie-breaking), so chunked or budget-truncated searches start
 *  from -- and, solving one subset at a time with the rest fixed, can
 *  only improve on -- the local baseline. */
void
seedCheapestPlans(const PlanTable &table, Selection &sel)
{
    for (NodeId id : table.freeNodes()) {
        const auto &plans = table.plans(id);
        int bestPlan = 0;
        for (size_t p = 1; p < plans.size(); ++p)
            if (plans[p].cycles <
                plans[static_cast<size_t>(bestPlan)].cycles)
                bestPlan = static_cast<int>(p);
        sel.planIndex[static_cast<size_t>(id)] = bestPlan;
    }
}

/**
 * Branch-and-bound optimal assignment of @p subset (free nodes), given
 * that every node with planIndex >= 0 outside the subset is already
 * decided. Edges to undecided nodes outside the subset are ignored
 * (their chunks pay the cost when they are solved).
 *
 * @p evalLimit is an *absolute* cap on the @p evaluations counter (0 =
 * unlimited). Once the counter reaches the cap the search stops, serves
 * the best complete assignment seen, and returns true (truncated).
 * Budgeted searches are seeded with complete incumbents (the caller's
 * current assignment, adopted without charge, plus the per-node-
 * cheapest plans and the greedy argmin of the folded base costs), so
 * even a spent budget yields an assignment no worse than any of those.
 */
bool
solveSubsetOptimal(const PlanTable &table, const std::vector<NodeId> &subset,
                   Selection &sel, uint64_t &evaluations,
                   uint64_t evalLimit = 0)
{
    const size_t n = subset.size();
    if (n == 0)
        return false;

    std::vector<int> posOf(table.graph().size(), -1);
    for (size_t i = 0; i < n; ++i)
        posOf[static_cast<size_t>(subset[i])] = static_cast<int>(i);

    // Remember any pre-existing assignment: it becomes an incumbent so
    // a budget-truncated search can only improve on it.
    std::vector<int> prior(n, -1);
    bool priorComplete = true;
    for (size_t i = 0; i < n; ++i) {
        prior[i] = sel.planIndex[static_cast<size_t>(subset[i])];
        if (prior[i] < 0 ||
            prior[i] >=
                static_cast<int>(table.plans(subset[i]).size()))
            priorComplete = false;
    }

    // Mark subset nodes as undecided for base-cost computation.
    for (NodeId id : subset)
        sel.planIndex[static_cast<size_t>(id)] = -1;

    // base[i][p]: node cost + TC on edges whose other endpoint is already
    // decided outside the subset.
    std::vector<std::vector<uint64_t>> base(n);
    for (size_t i = 0; i < n; ++i) {
        const auto &plans = table.plans(subset[i]);
        base[i].resize(plans.size());
        for (size_t p = 0; p < plans.size(); ++p)
            base[i][p] = plans[p].cycles;
    }

    struct PairEdge
    {
        int a, b; // positions in subset, a < b in iteration order
        std::vector<std::vector<uint64_t>> tc;
    };
    std::vector<PairEdge> pairs;
    // pairsAt[i]: pair edges whose later endpoint is i.
    std::vector<std::vector<int>> pairsAt(n);

    for (const auto &[src, dst] : table.edges()) {
        const int pi = posOf[static_cast<size_t>(src)];
        const int pj = posOf[static_cast<size_t>(dst)];
        if (pi >= 0 && pj >= 0) {
            PairEdge edge;
            edge.a = std::min(pi, pj);
            edge.b = std::max(pi, pj);
            const auto &aPlans = table.plans(subset[edge.a]);
            const auto &bPlans = table.plans(subset[edge.b]);
            edge.tc.assign(aPlans.size(),
                           std::vector<uint64_t>(bPlans.size(), 0));
            for (size_t pa = 0; pa < aPlans.size(); ++pa)
                for (size_t pb = 0; pb < bPlans.size(); ++pb) {
                    const int srcPlan = pi == edge.a
                                            ? static_cast<int>(pa)
                                            : static_cast<int>(pb);
                    const int dstPlan = pi == edge.a
                                            ? static_cast<int>(pb)
                                            : static_cast<int>(pa);
                    edge.tc[pa][pb] =
                        table.tc(src, dst, srcPlan, dstPlan);
                }
            pairsAt[static_cast<size_t>(edge.b)].push_back(
                static_cast<int>(pairs.size()));
            pairs.push_back(std::move(edge));
        } else if (pi >= 0 || pj >= 0) {
            // One endpoint inside: fold into base if the outside endpoint
            // is decided.
            const int inside = pi >= 0 ? pi : pj;
            const NodeId outsideId = pi >= 0 ? dst : src;
            const int outsidePlan =
                sel.planIndex[static_cast<size_t>(outsideId)];
            if (outsidePlan < 0)
                continue;
            auto &row = base[static_cast<size_t>(inside)];
            for (size_t p = 0; p < row.size(); ++p) {
                const int srcPlan =
                    pi >= 0 ? static_cast<int>(p) : outsidePlan;
                const int dstPlan =
                    pi >= 0 ? outsidePlan : static_cast<int>(p);
                row[p] += table.tc(src, dst, srcPlan, dstPlan);
            }
        }
    }

    // Admissible remainder bound: best base cost of each later node.
    std::vector<uint64_t> suffixLb(n + 1, 0);
    for (size_t i = n; i-- > 0;)
        suffixLb[i] = suffixLb[i + 1] +
                      *std::min_element(base[i].begin(), base[i].end());

    // Full-assignment cost under the same metric the search minimizes
    // (folded base + intra-subset pair edges).
    const auto assignmentCost = [&](const std::vector<int> &assign) {
        uint64_t cost = 0;
        for (size_t i = 0; i < n; ++i)
            cost += base[i][static_cast<size_t>(assign[i])];
        for (const PairEdge &edge : pairs)
            cost += edge.tc[static_cast<size_t>(
                assign[static_cast<size_t>(edge.a)])]
                           [static_cast<size_t>(
                               assign[static_cast<size_t>(edge.b)])];
        return cost;
    };

    std::vector<int> best(n, 0);
    uint64_t bestCost = UINT64_MAX;
    const auto seedIncumbent = [&](const std::vector<int> &assign,
                                   bool charged) {
        if (charged) {
            if (evaluations >= evalLimit)
                return; // budget spent; prior was adopted free
            ++evaluations;
        }
        const uint64_t cost = assignmentCost(assign);
        if (cost < bestCost) {
            bestCost = cost;
            best = assign;
        }
    };

    // Incumbents bound how bad a budget-truncated answer can get. Only
    // seeded when a budget is active: an unbudgeted search always runs
    // to proven optimality anyway, and seeding would change its pruning
    // and hence its evaluation telemetry (which benches compare).
    // Adopting the caller's standing assignment is free (it is not a
    // newly examined combination), so the strict budget bound holds
    // while every call still returns a complete assignment.
    if (evalLimit != 0) {
        if (priorComplete)
            seedIncumbent(prior, /*charged=*/false);
        std::vector<int> seed(n, 0);
        for (size_t i = 0; i < n; ++i) {
            const auto &plans = table.plans(subset[i]);
            int arg = 0;
            for (size_t p = 1; p < plans.size(); ++p)
                if (plans[p].cycles <
                    plans[static_cast<size_t>(arg)].cycles)
                    arg = static_cast<int>(p);
            seed[i] = arg;
        }
        seedIncumbent(seed, /*charged=*/true); // per-node cheapest
        for (size_t i = 0; i < n; ++i) {
            seed[i] = static_cast<int>(
                std::min_element(base[i].begin(), base[i].end()) -
                base[i].begin());
        }
        seedIncumbent(seed, /*charged=*/true); // greedy folded argmin
    }

    // Iterative depth-first branch and bound.
    std::vector<int> current(n, -1);
    std::vector<uint64_t> partial(n + 1, 0);
    size_t depth = 0;
    bool truncated = false;
    while (true) {
        if (current[depth] + 1 >=
            static_cast<int>(base[depth].size())) {
            // Exhausted this level: backtrack.
            current[depth] = -1;
            if (depth == 0)
                break;
            --depth;
            continue;
        }
        if (evalLimit != 0 && evaluations >= evalLimit) {
            truncated = true;
            break; // serve the best incumbent found so far
        }
        ++current[depth];
        ++evaluations;

        uint64_t cost = partial[depth] +
                        base[depth][static_cast<size_t>(current[depth])];
        for (int e : pairsAt[depth]) {
            const PairEdge &edge = pairs[static_cast<size_t>(e)];
            cost += edge.tc[static_cast<size_t>(
                current[static_cast<size_t>(edge.a)])]
                           [static_cast<size_t>(current[depth])];
        }
        if (cost + suffixLb[depth + 1] >= bestCost)
            continue; // prune
        if (depth + 1 == n) {
            bestCost = cost;
            best = current;
            continue;
        }
        partial[depth + 1] = cost;
        ++depth;
    }

    GCD2_ASSERT(bestCost != UINT64_MAX, "branch and bound found nothing");
    for (size_t i = 0; i < n; ++i)
        sel.planIndex[static_cast<size_t>(subset[i])] = best[i];
    return truncated;
}

/** Connected components of the free nodes via free-free edges. */
std::vector<std::vector<NodeId>>
freeComponents(const PlanTable &table)
{
    const auto &free = table.freeNodes();
    std::vector<int> comp(table.graph().size(), -1);
    for (NodeId id : free)
        comp[static_cast<size_t>(id)] = static_cast<int>(id);

    // Union-find (path-halving).
    std::vector<int> parent(table.graph().size());
    for (size_t i = 0; i < parent.size(); ++i)
        parent[i] = static_cast<int>(i);
    auto find = [&](int x) {
        while (parent[static_cast<size_t>(x)] != x) {
            parent[static_cast<size_t>(x)] =
                parent[static_cast<size_t>(
                    parent[static_cast<size_t>(x)])];
            x = parent[static_cast<size_t>(x)];
        }
        return x;
    };
    for (const auto &[src, dst] : table.edges()) {
        if (comp[static_cast<size_t>(src)] >= 0 &&
            comp[static_cast<size_t>(dst)] >= 0) {
            parent[static_cast<size_t>(find(src))] = find(dst);
        }
    }

    std::map<int, std::vector<NodeId>> byRoot;
    for (NodeId id : free)
        byRoot[find(id)].push_back(id);

    std::vector<std::vector<NodeId>> components;
    for (auto &[root, nodes] : byRoot) {
        std::sort(nodes.begin(), nodes.end()); // topological (append) order
        components.push_back(std::move(nodes));
    }
    return components;
}

} // namespace

SelectorResult
selectLocal(const PlanTable &table)
{
    const Timer timer;
    SelectorResult result;
    result.selection = emptySelection(table);
    for (const graph::Node &node : table.graph().nodes()) {
        if (node.dead)
            continue;
        const auto &plans = table.plans(node.id);
        int bestPlan = 0;
        for (size_t p = 1; p < plans.size(); ++p) {
            if (plans[p].cycles < plans[static_cast<size_t>(bestPlan)]
                                      .cycles)
                bestPlan = static_cast<int>(p);
        }
        result.selection.planIndex[static_cast<size_t>(node.id)] =
            bestPlan;
        result.evaluations += plans.size();
    }
    result.selection.totalCost = aggCost(table, result.selection);
    result.seconds = timer.seconds();
    return result;
}

SelectorResult
selectGlobalOptimal(const PlanTable &table, size_t maxFreeNodes,
                    uint64_t maxEvaluations)
{
    // An unbudgeted search must refuse oversized graphs (it cannot bail
    // out mid-flight); a budgeted one degrades to best-so-far instead.
    if (maxEvaluations == 0) {
        GCD2_REQUIRE(table.freeNodes().size() <= maxFreeNodes,
                     "global optimal search over "
                         << table.freeNodes().size()
                         << " free operators would take too long (cap "
                         << maxFreeNodes << ")");
    }
    const Timer timer;
    SelectorResult result;
    result.selection = emptySelection(table);
    // Budgeted searches start from the local baseline so even a
    // first-combination truncation serves an assignment no worse than
    // selectLocal's; unbudgeted searches keep their historical seeding
    // (none) so their evaluation telemetry is untouched.
    if (maxEvaluations != 0)
        seedCheapestPlans(table, result.selection);
    result.truncated =
        solveSubsetOptimal(table, table.freeNodes(), result.selection,
                           result.evaluations, maxEvaluations);
    result.selection.totalCost = aggCost(table, result.selection);
    result.seconds = timer.seconds();
    return result;
}

namespace {

/**
 * Solve one free-operator component: small components exactly, oversized
 * ones via topological chunks followed by overlapping boundary polish --
 * each window is re-optimized exactly, conditioned on the rest, so every
 * polish step is monotone in Agg_Cost. Touches only the component's own
 * planIndex entries (plus reads of already-fixed pinned nodes), which is
 * what makes concurrent component solves race-free.
 */
void
solveComponent(const PlanTable &table, const std::vector<NodeId> &component,
               int maxPartition, Selection &sel, uint64_t &evaluations)
{
    if (static_cast<int>(component.size()) <= maxPartition) {
        solveSubsetOptimal(table, component, sel, evaluations);
        return;
    }
    // Oversized component: cut into topological chunks and solve them
    // in order with earlier decisions fixed ("complementary edges").
    std::vector<NodeId> chunk;
    auto flush = [&]() {
        if (!chunk.empty()) {
            solveSubsetOptimal(table, chunk, sel, evaluations);
            chunk.clear();
        }
    };
    for (size_t i = 0; i < component.size(); ++i) {
        chunk.push_back(component[i]);
        if (static_cast<int>(chunk.size()) >= maxPartition)
            flush();
    }
    flush();

    // Polish windows re-solve exactly with the rest fixed, so each one
    // is monotone in Agg_Cost.
    const size_t window = static_cast<size_t>(maxPartition);
    const size_t stride = std::max<size_t>(1, window / 2);
    for (size_t start = stride; start < component.size();
         start += stride) {
        const size_t end = std::min(component.size(), start + window);
        const std::vector<NodeId> slice(
            component.begin() + static_cast<long>(start),
            component.begin() + static_cast<long>(end));
        solveSubsetOptimal(table, slice, sel, evaluations);
    }
}

} // namespace

SelectorResult
selectGcd2Partitioned(const PlanTable &table, int maxPartition,
                      ThreadPool *pool)
{
    GCD2_REQUIRE(maxPartition >= 1, "partition bound must be positive");
    // The search is unbudgeted and exponential in the partition size.
    GCD2_REQUIRE(maxPartition <= kMaxExactNodes,
                 "partition bound " << maxPartition << " exceeds the cap of "
                                    << kMaxExactNodes);
    const Timer timer;

    SelectorResult result;
    result.selection = emptySelection(table);
    // Start every free node at its cheapest plan: chunked solves then
    // condition on (and polish from) the local baseline, which makes
    // the audit's not-worse-than-local floor hold by construction --
    // chunks and polish windows are exact block-coordinate descents in
    // Agg_Cost from that start.
    seedCheapestPlans(table, result.selection);

    // Layout-pinned operators are forced; components of free operators
    // between them can be optimized independently (the cost-optimal
    // partitioning of Definition IV.1: pinned nodes fix the layout on
    // every crossing edge). Independence also means the components can
    // be solved concurrently: each one writes a disjoint slice of the
    // selection, and per-component evaluation counts are reduced in
    // component order so the telemetry is thread-count-invariant too.
    const std::vector<std::vector<NodeId>> components =
        freeComponents(table);
    std::vector<uint64_t> evaluations(components.size(), 0);
    if (pool != nullptr && pool->size() > 1) {
        pool->parallelFor(
            static_cast<int64_t>(components.size()), [&](int64_t i) {
                solveComponent(table, components[static_cast<size_t>(i)],
                               maxPartition, result.selection,
                               evaluations[static_cast<size_t>(i)]);
            });
    } else {
        for (size_t i = 0; i < components.size(); ++i)
            solveComponent(table, components[i], maxPartition,
                           result.selection, evaluations[i]);
    }
    for (uint64_t count : evaluations)
        result.evaluations += count;

    result.selection.totalCost = aggCost(table, result.selection);
    result.seconds = timer.seconds();
    return result;
}

} // namespace gcd2::select
