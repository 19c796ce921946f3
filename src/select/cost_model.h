/**
 * @file
 * Simulator-backed operator cost model.
 *
 * Cost(ep_i(O)) from Section IV-A: the cycles of executing operator O
 * under plan ep_i, assuming inputs already sit in the plan's layout (the
 * layout-transformation term TC is separate). Matmul-family operators are
 * costed by *simulating one kernel tile* (one row panel x one column tile,
 * full reduction depth) on the DSP timing simulator and scaling by the
 * panel/tile trip counts -- exact, because the generated kernels do
 * identical work per tile (padding included). Elementwise and pooling
 * operators scale a simulated canonical length; reductions and
 * normalizations use documented compositions of simulated primitives.
 * Which kernels a plan sums, and how each scales, is the plan's recipe
 * in the op-family table (plan.h); this class evaluates recipes.
 *
 * The options mirror the ablations of the paper's Fig. 9/11/12: which
 * VLIW packer generates the code, which unrolling strategy is used, and
 * whether the division-to-lookup-table optimization is applied.
 *
 * Thread safety: every public query is const and safe to call from
 * multiple threads concurrently -- the canonical-kernel simulations are
 * memoized in a sharded CostCache (see cost_cache.h). By default each
 * model owns a private cache; pass a shared one to reuse simulations
 * across compiles with identical kernel-level options.
 *
 * Simulations run through the pre-decoded execution engine
 * (dsp/decoded.h), whose DecodeCache deduplicates the decode work one
 * level below this cache: a CostCache hit skips simulation entirely,
 * while a miss that re-simulates a previously seen program still reuses
 * its decoded form. Such a miss costs one fingerprint walk of the packed
 * program plus the vectorized simulation; a first-seen program also pays
 * one decode. See DESIGN.md section 9.
 */
#ifndef GCD2_SELECT_COST_MODEL_H
#define GCD2_SELECT_COST_MODEL_H

#include <memory>

#include "graph/graph.h"
#include "kernels/elementwise.h"
#include "kernels/unroll.h"
#include "select/cost_cache.h"
#include "select/exec_stats.h"
#include "select/plan.h"
#include "select/tiered_cost.h"
#include "vliw/packer.h"

namespace gcd2::select {

/** Cost-model configuration (the Fig. 9 optimization toggles). */
struct CostModelOptions
{
    vliw::PackOptions packOptions{};
    kernels::UnrollStrategy unroll = kernels::UnrollStrategy::Adaptive;
    /** "Other optimizations": replace divisions with table lookups. */
    bool lutOptimization = true;
    /**
     * Tiered plan costing (DESIGN.md section 16): the certified analytic
     * bound prefilters exhaustive unroll search, and shared-structure
     * affine costing with packet transplantation prices matmul tiles.
     * Every plan gets its exact cost, so costs, selections, and served
     * schedules are bit-identical to the exhaustive path (enforced by
     * the always-on audit and the deep exhaustive re-cost),
     * so it only trades compile time -- deliberately *not* part of the
     * service request fingerprint (service/fingerprint.cc).
     */
    bool tieredCosting = true;
};

/** One matmul tile kernel a plan's costing looks up: the canonical tile
 *  (tile.k is the reduction depth) and its generator configuration. */
struct TileRequest
{
    kernels::MatMulShape tile;
    kernels::MatMulConfig config;
};

/** Memoizing cost model. */
class CostModel
{
  public:
    /**
     * @param cache memo table for canonical-kernel simulations; a fresh
     *        private cache is created when omitted. Sharing a cache
     *        between models is sound because every option that affects
     *        a simulation is part of the cache key.
     */
    explicit CostModel(CostModelOptions options = {},
                       std::shared_ptr<CostCache> cache = nullptr);
    ~CostModel();

    const CostModelOptions &options() const { return options_; }

    /** The memo table (for telemetry and cross-compile sharing). */
    const CostCache &cache() const { return *cache_; }

    /** The tiered coster (nullptr when tieredCosting is off); exposes
     *  tier counters, tier timings, and the cheap self-audit. */
    const TieredCoster *tieredCoster() const { return tiered_.get(); }

    /** Candidate plans of a node with cycles filled in. */
    std::vector<ExecutionPlan> costedPlans(const graph::Graph &graph,
                                           graph::NodeId id) const;

    /**
     * The tile kernels costedPlans(graph, id) looks up, in plan order:
     * one per matmul-family plan. Empty without the tiered coster, and
     * under UnrollStrategy::Exhaustive, whose lookups depend on costs.
     */
    std::vector<TileRequest> tileRequests(const graph::Graph &graph,
                                          graph::NodeId id) const;

    /**
     * Cost every request of @p requests (members of one tile class) into
     * the memo table. The first miss certifies the class; the remaining
     * depths derive from its fit without waiting on another thread.
     */
    void fillTiles(const std::vector<TileRequest> &requests) const;

    /** Full event statistics of a node under a plan: its recipe's
     *  (sum of kernels + inner) x batch + outer. */
    NodeExecStats planStats(const graph::Graph &graph, graph::NodeId id,
                            const ExecutionPlan &plan) const;

    /** TC: cycles to transform a tensor between layouts (0 if equal). */
    uint64_t transformCost(const tensor::Shape &shape, tensor::Layout from,
                           tensor::Layout to) const;

    /** Event statistics of a layout transformation (for reporting). */
    NodeExecStats transformStats(const tensor::Shape &shape,
                                 tensor::Layout from,
                                 tensor::Layout to) const;

    /**
     * Stats of a standalone matmul kernel under this model's unroll
     * strategy and packer (tile-simulated and scaled; also used by the
     * per-kernel compiler baselines).
     */
    NodeExecStats matmulStats(const kernels::MatMulShape &shape,
                              kernels::MatMulScheme scheme,
                              uint64_t extraCycles) const;

    /**
     * The schedule served for (node, plan): the packed program of the
     * first canonical kernel of the plan's recipe, which this model
     * simulates when costing the plan, fetched through the process-wide
     * vliw::PackCache (a cache hit once the plan has been costed). The
     * pipeline retains these in CompiledModel so the audit pass audits
     * served schedules directly. Returns nullptr for recipes without
     * kernels (operators costed analytically).
     */
    std::shared_ptr<const dsp::PackedProgram>
    canonicalSchedule(const graph::Graph &graph, graph::NodeId id,
                      const ExecutionPlan &plan) const;

    /**
     * The cache key of canonical kernel @p term under this model's unroll
     * strategy and packer; for a recipe's first kernel, the key of the
     * entry its served schedule was simulated for.
     */
    CostKey kernelKey(const KernelTerm &term) const;

  private:
    CostKey tileKey(kernels::MatMulScheme scheme,
                    const kernels::UnrollChoice &choice, int64_t k) const;

    /** The unroll choice matmulStats uses for @p shape under this
     *  model's strategy (Exhaustive scans the candidate set by cost). */
    kernels::UnrollChoice unrollFor(const kernels::MatMulShape &shape,
                                    kernels::MatMulScheme scheme) const;

    /** Certified floor of tile @p key's cycles scaled to @p shape (0 =
     *  no bound): the raw bound plus the drain charge, times the trips. */
    uint64_t tileFloor(const CostKey &key,
                       const kernels::MatMulShape &shape) const;

    /** The memoized stats of one canonical kernel. */
    NodeExecStats kernelStats(const CostKey &key) const;
    /** @p term's kernel stats scaled to the node. */
    NodeExecStats termStats(const KernelTerm &term) const;

    CostModelOptions options_;
    std::shared_ptr<CostCache> cache_;
    std::unique_ptr<TieredCoster> tiered_;
};

} // namespace gcd2::select

#endif // GCD2_SELECT_COST_MODEL_H
