#include "select/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/round.h"
#include "kernels/conv.h"
#include "kernels/runner.h"
#include "vliw/pack_cache.h"

namespace gcd2::select {

using graph::NodeId;
using kernels::EwOp;
using kernels::MatMulScheme;
using kernels::MatMulShape;
using kernels::UnrollChoice;
using kernels::UnrollStrategy;
using tensor::Layout;

uint64_t
scaleSaturating(uint64_t value, double factor)
{
    GCD2_REQUIRE(std::isfinite(factor) && factor >= 0.0,
                 "cost scale factor " << factor
                                      << " is not finite and non-negative");
    // 2^64 is exact in double; any product at or above it would make the
    // conversion undefined.
    const double product = static_cast<double>(value) * factor;
    if (product >= 18446744073709551616.0)
        return UINT64_MAX;
    return static_cast<uint64_t>(product);
}

NodeExecStats &
NodeExecStats::operator+=(const NodeExecStats &other)
{
    cycles = addSaturating(cycles, other.cycles);
    instructions = addSaturating(instructions, other.instructions);
    packets = addSaturating(packets, other.packets);
    bytesLoaded = addSaturating(bytesLoaded, other.bytesLoaded);
    bytesStored = addSaturating(bytesStored, other.bytesStored);
    return *this;
}

NodeExecStats
NodeExecStats::scaled(double factor) const
{
    NodeExecStats out;
    out.cycles = scaleSaturating(cycles, factor);
    out.instructions = scaleSaturating(instructions, factor);
    out.packets = scaleSaturating(packets, factor);
    out.bytesLoaded = scaleSaturating(bytesLoaded, factor);
    out.bytesStored = scaleSaturating(bytesStored, factor);
    return out;
}

CostModel::CostModel(CostModelOptions options,
                     std::shared_ptr<CostCache> cache)
    : options_(options), cache_(std::move(cache))
{
    if (!cache_)
        cache_ = std::make_shared<CostCache>();
    if (options_.tieredCosting)
        tiered_ = std::make_unique<TieredCoster>(options_.packOptions);
}

CostModel::~CostModel() = default;

namespace {

/** The tile a MatMulTile key names: one row panel x one column tile at
 *  the key's unroll, full reduction depth, and its generator config. */
TileRequest
tileOf(const CostKey &key)
{
    const auto scheme = static_cast<MatMulScheme>(key.tag);
    const kernels::UnrollChoice choice{key.unrollOut, key.unrollCols,
                                       key.unrollK};
    return {kernels::unrollTile(scheme, choice, key.extent),
            kernels::withUnroll({.scheme = scheme}, choice)};
}

/** Row panels x column tiles of @p shape: the factor that scales one
 *  canonical tile's stats to the whole kernel. */
double
tileTrips(const MatMulShape &shape, const MatMulShape &tile)
{
    return static_cast<double>(common::ceilDiv(shape.m, tile.m)) *
           static_cast<double>(common::ceilDiv(shape.n, tile.n));
}

/** Accumulator drains a tile is charged for (see kernelStats): one per
 *  live 16-bit accumulator pair (every column of every row panel) every
 *  32 reduction steps; none for vrmpy, which accumulates in 32-bit lanes
 *  natively. */
uint64_t
drainSteps(const CostKey &key)
{
    const kernels::MatMulSchemeInfo &info =
        kernels::schemeInfo(static_cast<MatMulScheme>(key.tag));
    if (info.accLaneBits == 32)
        return 0;
    const int accPairs = key.unrollOut * key.unrollCols * info.colsPerUnit;
    const int64_t drains =
        std::max<int64_t>(0, common::ceilDiv(key.extent, 32) - 1);
    return static_cast<uint64_t>(drains) * static_cast<uint64_t>(accPairs);
}

/**
 * Run @p fn on the generated kernel a cost key names: a matmul tile, a
 * canonical depthwise channel (key.extent output rows of a 256-byte row,
 * the key's stride and filter), or an elementwise run of key.extent
 * elements.
 */
template <typename Fn>
auto
withCanonicalKernel(const CostKey &key, Fn &&fn)
{
    switch (key.kind) {
      case CostKind::MatMulTile: {
        const TileRequest tile = tileOf(key);
        return fn(kernels::MatMulKernel(tile.tile, tile.config));
      }
      case CostKind::DepthwiseRow: // key.tag is the stride
        return fn(kernels::DepthwiseKernel({.channels = 1,
                                            .inH = (key.extent - 1) *
                                                       key.tag +
                                                   key.filterH,
                                            .inW = 256,
                                            .kH = key.filterH,
                                            .kW = key.filterW,
                                            .stride = key.tag}));
      case CostKind::Elementwise: {
        kernels::EwConfig config;
        config.op = static_cast<EwOp>(key.tag);
        config.length = key.extent;
        return fn(kernels::ElementwiseKernel(config));
      }
    }
    GCD2_PANIC("unknown cost kind");
}

/**
 * A depthwise channel of @p rows output rows: the one-row kernel, then
 * every further row at the two-row kernel's increment over it (twice
 * its per-row entry @p perRow, less the one-row kernel).
 */
NodeExecStats
channelRows(const NodeExecStats &oneRow, const NodeExecStats &perRow,
            int64_t rows)
{
    const auto extra = static_cast<double>(rows - 1);
    auto field = [extra](uint64_t one, uint64_t half) {
        const uint64_t twoRows = addSaturating(half, half);
        return addSaturating(
            one, scaleSaturating(twoRows > one ? twoRows - one : 0, extra));
    };
    return {field(oneRow.cycles, perRow.cycles),
            field(oneRow.instructions, perRow.instructions),
            field(oneRow.packets, perRow.packets),
            field(oneRow.bytesLoaded, perRow.bytesLoaded),
            field(oneRow.bytesStored, perRow.bytesStored)};
}

} // namespace

CostKey
CostModel::tileKey(MatMulScheme scheme, const UnrollChoice &choice,
                   int64_t k) const
{
    return {CostKind::MatMulTile, static_cast<int32_t>(scheme),
            choice.outer, choice.cols, choice.k, k,
            options_.packOptions.policy, options_.packOptions.w,
            options_.packOptions.penaltyScale};
}

CostKey
CostModel::kernelKey(const KernelTerm &term) const
{
    if (term.kind == CostKind::MatMulTile) {
        const auto scheme = static_cast<MatMulScheme>(term.tag);
        return tileKey(scheme, unrollFor(term.product, scheme),
                       term.product.k);
    }
    // Elementwise runs are simulated at a canonical length and scaled:
    // 512 elements for the scalar-loop ops, 8192 for the vector ones.
    // Depthwise serves its two-row kernel.
    const auto op = static_cast<EwOp>(term.tag);
    const bool scalarOp = op == EwOp::Div || op == EwOp::DivLut;
    return {term.kind, term.tag, 0, 0, 0,
            term.kind == CostKind::Elementwise
                ? std::min<int64_t>(term.length, scalarOp ? 512 : 8192)
                : 2,
            options_.packOptions.policy, options_.packOptions.w,
            options_.packOptions.penaltyScale, term.filterH, term.filterW};
}

NodeExecStats
CostModel::kernelStats(const CostKey &key) const
{
    return cache_->lookupOrCompute(key, [&] {
        NodeExecStats entry;
        if (key.kind == CostKind::MatMulTile && tiered_) {
            // Shared-structure path: a certified affine derivation or a
            // transplant-scheduled simulation, exact either way.
            const TileRequest tile = tileOf(key);
            entry = tiered_->tileStats(tile.tile, tile.config);
        } else {
            entry = withCanonicalKernel(key, [&](const auto &kernel) {
                const dsp::TimingStats run =
                    kernels::runKernel(kernel.program(), kernel.buffers(),
                                       {}, {}, options_.packOptions)
                        .stats;
                return NodeExecStats{run.cycles, run.instructionsExecuted,
                                     run.packetsExecuted, run.bytesLoaded,
                                     run.bytesStored};
            });
        }

        if (key.kind == CostKind::DepthwiseRow) // per simulated row
            return entry.scaled(1.0 / static_cast<double>(key.extent));
        if (key.kind == CostKind::MatMulTile) {
            // 16-bit accumulator drain: vmpy/vmpa accumulate 8-bit
            // products into halfword lanes, which is only overflow-safe
            // for a bounded number of accumulation steps; production
            // kernels periodically widen the partial sums into 32-bit
            // lanes. The generated kernels implement the drain-free
            // building block; the model charges the periodic widening,
            // which is what makes vrmpy (native 32-bit accumulation) win
            // deep reductions -- the shape-dependent instruction
            // trade-off behind Table II and Fig. 10. Each drain reads the
            // pair, widen-adds into the 32-bit partials and re-zeroes it:
            // ~14 cycles per pair through the single shift and permute
            // units.
            const uint64_t steps = drainSteps(key);
            entry.cycles += steps * 14;
            entry.instructions += steps * 8;
        }
        return entry;
    });
}

NodeExecStats
CostModel::termStats(const KernelTerm &term) const
{
    const CostKey key = kernelKey(term);
    NodeExecStats stats = kernelStats(key);
    if (term.kind == CostKind::MatMulTile) {
        // One row panel x one column tile, full reduction depth: every
        // other tile of the kernel does identical work, so scaling is
        // exact.
        stats = stats.scaled(tileTrips(term.product, tileOf(key).tile));
    } else if (term.kind == CostKind::DepthwiseRow) {
        CostKey oneRow = key;
        oneRow.extent = 1;
        stats = channelRows(kernelStats(oneRow), stats, term.length);
    } else if (term.kind == CostKind::Elementwise) {
        const double factor = static_cast<double>(term.length) /
                              static_cast<double>(key.extent);
        if (factor != 1.0)
            stats = stats.scaled(factor);
    }
    if (term.scale != 1.0)
        stats = stats.scaled(term.scale);
    return stats;
}

uint64_t
CostModel::tileFloor(const CostKey &key, const MatMulShape &shape) const
{
    const TileRequest tile = tileOf(key);
    const uint64_t rawLb = tiered_->tileLowerBound(tile.tile, tile.config);
    if (rawLb == 0)
        return 0;
    // The same drain charge and trip-count scaling (same double
    // multiplication and truncation) as the exact path.
    return scaleSaturating(addSaturating(rawLb, drainSteps(key) * 14),
                           tileTrips(shape, tile.tile));
}

UnrollChoice
CostModel::unrollFor(const MatMulShape &shape, MatMulScheme scheme) const
{
    UnrollChoice choice{1, 1, 1};
    switch (options_.unroll) {
      case UnrollStrategy::None:
        break;
      case UnrollStrategy::Outer:
        choice = UnrollChoice{4, 1, 1};
        break;
      case UnrollStrategy::Mid:
        choice = UnrollChoice{1, 4, 1};
        break;
      case UnrollStrategy::Mid2:
        choice = UnrollChoice{1, 2, 1};
        break;
      case UnrollStrategy::Adaptive:
        choice = kernels::adaptiveUnroll(shape, scheme);
        break;
      case UnrollStrategy::Exhaustive: {
        uint64_t best = UINT64_MAX;
        for (const UnrollChoice &candidate : kernels::unrollCandidates()) {
            // Tier-1 prefilter: a candidate whose certified floor
            // already exceeds the best exact cost can never win the
            // `cycles < best` argmin, so skip its pack + simulation.
            const CostKey key = tileKey(scheme, candidate, shape.k);
            if (tiered_ && best != UINT64_MAX &&
                tileFloor(key, shape) > best) {
                tiered_->notePruned(1);
                continue;
            }
            const uint64_t cycles =
                kernelStats(key)
                    .scaled(tileTrips(shape, tileOf(key).tile))
                    .cycles;
            if (cycles < best) {
                best = cycles;
                choice = candidate;
            }
        }
        break;
      }
    }
    return choice;
}

NodeExecStats
CostModel::matmulStats(const MatMulShape &shape, MatMulScheme scheme,
                       uint64_t extraCycles) const
{
    NodeExecStats stats = termStats({.kind = CostKind::MatMulTile,
                                     .tag = static_cast<int32_t>(scheme),
                                     .product = shape});
    stats.cycles += extraCycles;
    return stats;
}

NodeExecStats
CostModel::planStats(const graph::Graph &graph, NodeId id,
                     const ExecutionPlan &plan) const
{
    const PlanRecipe recipe =
        planRecipe(graph, id, plan, options_.lutOptimization);
    NodeExecStats stats;
    for (const KernelTerm &term : recipe.kernels)
        stats += termStats(term);
    stats += recipe.inner;
    if (recipe.batch != 1.0)
        stats = stats.scaled(recipe.batch);
    stats += recipe.outer;
    return stats;
}

std::vector<ExecutionPlan>
CostModel::costedPlans(const graph::Graph &graph, NodeId id) const
{
    std::vector<ExecutionPlan> plans = enumeratePlans(graph, id);
    for (ExecutionPlan &plan : plans)
        plan.cycles = planStats(graph, id, plan).cycles;
    return plans;
}

std::vector<TileRequest>
CostModel::tileRequests(const graph::Graph &graph, NodeId id) const
{
    std::vector<TileRequest> requests;
    if (!tiered_ || options_.unroll == UnrollStrategy::Exhaustive)
        return requests;
    for (const ExecutionPlan &plan : enumeratePlans(graph, id))
        for (const KernelTerm &term :
             planRecipe(graph, id, plan, options_.lutOptimization).kernels)
            if (term.kind == CostKind::MatMulTile)
                requests.push_back(tileOf(kernelKey(term)));
    return requests;
}

void
CostModel::fillTiles(const std::vector<TileRequest> &requests) const
{
    for (const TileRequest &request : requests) {
        const kernels::MatMulConfig &config = request.config;
        kernelStats(tileKey(config.scheme,
                            UnrollChoice{config.unrollOut,
                                         config.unrollCols, config.unrollK},
                            request.tile.k));
    }
}

std::shared_ptr<const dsp::PackedProgram>
CostModel::canonicalSchedule(const graph::Graph &graph, NodeId id,
                             const ExecutionPlan &plan) const
{
    const PlanRecipe recipe =
        planRecipe(graph, id, plan, options_.lutOptimization);
    if (recipe.kernels.empty())
        return nullptr; // costed analytically; no kernel program served
    const CostKey key = kernelKey(recipe.kernels.front());
    if (key.kind == CostKind::MatMulTile && tiered_) {
        // The tiered coster serves the class anchor's packet structure
        // transplanted onto this kernel -- bit-identical to packing it
        // (transplantCompatible programs have equal block packing keys),
        // and one shared PackedProgram object per (class, depth) so
        // downstream passes that dedupe by pointer still coalesce.
        const TileRequest tile = tileOf(key);
        return tiered_->tileSchedule(tile.tile, tile.config);
    }
    return withCanonicalKernel(key, [&](const auto &kernel) {
        return vliw::PackCache::global().lookupOrPack(
            kernel.program(), options_.packOptions);
    });
}

uint64_t
CostModel::transformCost(const tensor::Shape &shape, Layout from,
                         Layout to) const
{
    const MatrixView view = matrixView(shape);
    return tensor::layoutTransformCycles(from, to, view.rows, view.cols);
}

NodeExecStats
CostModel::transformStats(const tensor::Shape &shape, Layout from,
                          Layout to) const
{
    NodeExecStats stats;
    stats.cycles = transformCost(shape, from, to);
    if (stats.cycles == 0)
        return stats;
    const MatrixView view = matrixView(shape);
    const int64_t inBytes =
        tensor::packedByteSize(from, view.rows, view.cols);
    const int64_t outBytes =
        tensor::packedByteSize(to, view.rows, view.cols);
    stats.bytesLoaded = static_cast<uint64_t>(inBytes);
    stats.bytesStored = static_cast<uint64_t>(outBytes);
    stats.instructions =
        static_cast<uint64_t>(3 * ((inBytes + outBytes) / 128));
    stats.packets = std::max<uint64_t>(1, stats.cycles / 3);
    return stats;
}

} // namespace gcd2::select
