#include "select/cost_model.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "kernels/conv.h"
#include "kernels/runner.h"
#include "vliw/pack_cache.h"

namespace gcd2::select {

using graph::NodeId;
using graph::OpType;
using kernels::EwOp;
using kernels::MatMulScheme;
using kernels::MatMulShape;
using kernels::UnrollChoice;
using kernels::UnrollStrategy;
using tensor::Layout;

namespace {

int64_t
roundUp(int64_t v, int64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

int
panelRowsOf(MatMulScheme scheme)
{
    return tensor::layoutPanelRows(kernels::schemeLayout(scheme));
}

int
colsPerUnitOf(MatMulScheme scheme)
{
    return scheme == MatMulScheme::Vmpy  ? 1
           : scheme == MatMulScheme::Vmpa ? 2
                                          : 4;
}

/** Scalar-division cycles per row for reductions (DIV + glue). */
constexpr uint64_t kScalarDivCycles = 56;
/** Reciprocal-lookup cycles per row when the LUT optimization is on. */
constexpr uint64_t kLutDivCycles = 8;

NodeExecStats
fromTiming(const kernels::KernelRunResult &run)
{
    NodeExecStats stats;
    stats.cycles = run.stats.cycles;
    stats.instructions = run.stats.instructionsExecuted;
    stats.packets = run.stats.packetsExecuted;
    stats.bytesLoaded = run.stats.bytesLoaded;
    stats.bytesStored = run.stats.bytesStored;
    return stats;
}

/** Analytic data-movement stats: @p vectors 128-byte vectors each way. */
NodeExecStats
analyticCopy(int64_t vectors, uint64_t cyclesPerVector)
{
    NodeExecStats stats;
    stats.cycles = static_cast<uint64_t>(vectors) * cyclesPerVector + 8;
    stats.instructions = static_cast<uint64_t>(vectors) * 3;
    stats.packets = std::max<uint64_t>(1, stats.cycles / 3);
    stats.bytesLoaded = static_cast<uint64_t>(vectors) * 128;
    stats.bytesStored = static_cast<uint64_t>(vectors) * 128;
    return stats;
}

} // namespace

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

/** The periodic 16-bit accumulator-drain charge of matmulTileStats,
 *  exposed so dominance pruning can bound exact costs analytically. */
uint64_t
drainCycles(MatMulScheme scheme, const UnrollChoice &choice, int64_t k)
{
    if (scheme == MatMulScheme::Vrmpy)
        return 0;
    const int accPairs =
        choice.cols * (scheme == MatMulScheme::Vmpa ? 2 : 1);
    const int64_t drains = std::max<int64_t>(0, (k + 31) / 32 - 1);
    return static_cast<uint64_t>(drains) *
           static_cast<uint64_t>(accPairs) * 14;
}

/** The canonical tile kernel matmulTileStats simulates. */
MatMulShape
tileShapeOf(MatMulScheme scheme, const UnrollChoice &choice, int64_t k)
{
    MatMulShape tile;
    tile.m = static_cast<int64_t>(panelRowsOf(scheme)) * choice.outer;
    tile.k = k;
    tile.n = static_cast<int64_t>(colsPerUnitOf(scheme)) * choice.cols;
    return tile;
}

kernels::MatMulConfig
tileConfigOf(MatMulScheme scheme, const UnrollChoice &choice)
{
    kernels::MatMulConfig config;
    config.scheme = scheme;
    return kernels::withUnroll(config, choice);
}

/** Row panels x column tiles of @p shape under (scheme, choice): the
 *  factor that scales one canonical tile's stats to the whole kernel. */
double
tileTrips(const MatMulShape &shape, MatMulScheme scheme,
          const UnrollChoice &choice)
{
    const int64_t panelSpan =
        static_cast<int64_t>(panelRowsOf(scheme)) * choice.outer;
    const int64_t tileSpan =
        static_cast<int64_t>(colsPerUnitOf(scheme)) * choice.cols;
    const double panels =
        static_cast<double>(roundUp(shape.m, panelSpan) / panelSpan);
    const double tiles =
        static_cast<double>(roundUp(shape.n, tileSpan) / tileSpan);
    return panels * tiles;
}

/** The matmul a matmul-family node runs, @c batch times over. */
struct MatMulProblem
{
    MatMulShape shape;
    int64_t batch = 1;
    bool im2col = false; ///< non-pointwise Conv2D: patches gathered first
};

/**
 * Conv2D runs its im2col product. MatMul takes its kernel's output
 * columns from the natural shape (node.shape may carry a fused epilogue
 * transform) and repeats over the leading batch dimensions. nullopt for
 * every other op.
 */
std::optional<MatMulProblem>
matmulProblemOf(const graph::Graph &graph, const graph::Node &node)
{
    if (!graph::isMatMulFamily(node.op))
        return std::nullopt;
    const tensor::Shape &in = graph.node(node.inputs[0]).shape;
    if (node.op == OpType::Conv2D) {
        kernels::ConvShape conv;
        conv.inC = in.dim(0);
        conv.inH = in.dim(1);
        conv.inW = in.dim(2);
        conv.outC = node.attrs.outC;
        conv.kH = node.attrs.kH;
        conv.kW = node.attrs.kW;
        conv.strideH = node.attrs.strideH;
        conv.strideW = node.attrs.strideW;
        conv.padH = node.attrs.padH;
        conv.padW = node.attrs.padW;
        return MatMulProblem{conv.matmulShape(), 1, !conv.isPointwise()};
    }
    const tensor::Shape natural = graph::naturalNodeShape(graph, node);
    MatMulProblem problem;
    problem.shape.m = in.dim(in.rank() - 2);
    problem.shape.k = in.dim(in.rank() - 1);
    problem.shape.n = natural.dim(natural.rank() - 1);
    problem.batch = std::max<int64_t>(
        1, in.elements() / (problem.shape.m * problem.shape.k));
    return problem;
}

} // namespace

CostKey
CostModel::baseKey(CostKind kind) const
{
    CostKey key;
    key.kind = kind;
    key.policy = options_.packOptions.policy;
    key.packW = options_.packOptions.w;
    key.packPenaltyScale = options_.packOptions.penaltyScale;
    return key;
}

NodeExecStats
CostModel::matmulTileStats(MatMulScheme scheme, const UnrollChoice &choice,
                           int64_t k) const
{
    CostKey key = baseKey(CostKind::MatMulTile);
    key.tag = static_cast<int32_t>(scheme);
    key.unrollOut = choice.outer;
    key.unrollCols = choice.cols;
    key.unrollK = choice.k;
    key.extent = k;
    return cache_->lookupOrCompute(key, [&] {
        // One row panel x one column tile, full reduction depth: every
        // other tile of the kernel does identical work, so scaling is
        // exact.
        const MatMulShape tile = tileShapeOf(scheme, choice, k);
        const kernels::MatMulConfig config = tileConfigOf(scheme, choice);

        NodeExecStats entry;
        if (tiered_) {
            // Shared-structure path: a certified affine derivation or a
            // transplant-scheduled simulation, exact either way.
            entry = tiered_->tileStats(tile, config);
        } else {
            const kernels::MatMulKernel kernel(tile, config);
            const kernels::KernelRunResult run =
                kernels::runKernel(kernel.program(), kernel.buffers(), {},
                                   {}, options_.packOptions);
            entry = fromTiming(run);
        }

        // 16-bit accumulator drain: vmpy/vmpa accumulate 8-bit products
        // into halfword lanes, which is only overflow-safe for a bounded
        // number of accumulation steps; production kernels periodically
        // widen the partial sums into 32-bit lanes. The generated kernels
        // implement the drain-free building block; the model charges the
        // periodic widening (one widen + re-zero sequence per live
        // accumulator pair every 32 reduction steps), which is what makes
        // vrmpy (native 32-bit accumulation) win deep reductions -- the
        // shape-dependent instruction trade-off behind Table II and
        // Fig. 10.
        if (scheme != MatMulScheme::Vrmpy) {
            const int accPairs =
                choice.cols * (scheme == MatMulScheme::Vmpa ? 2 : 1);
            // Drain every 32 reduction steps (requantized-operand
            // headroom in the halfword lanes); each drain reads the pair,
            // widen-adds into the 32-bit partials and re-zeroes it -- ~14
            // cycles per pair through the single shift and permute units.
            const int64_t drains = std::max<int64_t>(0, (k + 31) / 32 - 1);
            entry.cycles += static_cast<uint64_t>(drains) *
                            static_cast<uint64_t>(accPairs) * 14;
            entry.instructions += static_cast<uint64_t>(drains) *
                                  static_cast<uint64_t>(accPairs) * 8;
        }
        return entry;
    });
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
            const double trips = tileTrips(shape, scheme, candidate);
            if (tiered_ && best != UINT64_MAX) {
                // Tier-1 prefilter: a candidate whose certified analytic
                // floor (raw bound + the same drain charge and trip-count
                // scaling the exact path applies) already exceeds the
                // best exact cost can never win the `cycles < best`
                // argmin, so skip its pack + simulation entirely.
                const uint64_t rawLb = tiered_->tileLowerBound(
                    tileShapeOf(scheme, candidate, shape.k),
                    tileConfigOf(scheme, candidate));
                if (rawLb > 0) {
                    const uint64_t scaledLb = scaleSaturating(
                        addSaturating(rawLb, drainCycles(scheme, candidate,
                                                         shape.k)),
                        trips);
                    if (scaledLb > best) {
                        tiered_->notePruned(1);
                        continue;
                    }
                }
            }
            const uint64_t cycles =
                matmulTileStats(scheme, candidate, shape.k)
                    .scaled(trips)
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
    const UnrollChoice choice = unrollFor(shape, scheme);
    NodeExecStats stats = matmulTileStats(scheme, choice, shape.k)
                              .scaled(tileTrips(shape, scheme, choice));
    stats.cycles += extraCycles;
    return stats;
}

NodeExecStats
CostModel::depthwiseRowStats(int stride) const
{
    CostKey key = baseKey(CostKind::DepthwiseRow);
    key.tag = stride;
    return cache_->lookupOrCompute(key, [&] {
        kernels::DepthwiseConfig config;
        config.channels = 1;
        config.stride = stride;
        config.inH = stride == 2 ? 5 : 4; // two output rows
        config.inW = 256;
        const kernels::DepthwiseKernel kernel(config);
        const kernels::KernelRunResult run =
            kernels::runKernel(kernel.program(), kernel.buffers(), {}, {},
                               options_.packOptions);
        return fromTiming(run).scaled(0.5); // per output row tile
    });
}

NodeExecStats
CostModel::elementwiseStats(EwOp op, int64_t length) const
{
    const bool scalarOp = op == EwOp::Div || op == EwOp::DivLut;
    const int64_t simLen =
        std::min<int64_t>(length, scalarOp ? 512 : 8192);

    CostKey key = baseKey(CostKind::Elementwise);
    key.tag = static_cast<int32_t>(op);
    key.extent = simLen;
    const NodeExecStats entry = cache_->lookupOrCompute(key, [&] {
        kernels::EwConfig config;
        config.op = op;
        config.length = simLen;
        const kernels::ElementwiseKernel kernel(config);
        const kernels::KernelRunResult run =
            kernels::runKernel(kernel.program(), kernel.buffers(), {}, {},
                               options_.packOptions);
        return fromTiming(run);
    });

    const double factor =
        static_cast<double>(length) / static_cast<double>(simLen);
    return factor == 1.0 ? entry : entry.scaled(factor);
}

NodeExecStats
CostModel::computeStats(const graph::Graph &graph, NodeId id,
                        const ExecutionPlan &plan) const
{
    const graph::Node &node = graph.node(id);
    const MatrixView view = matrixView(node.shape);
    const int64_t elements = node.shape.elements();
    // Elementwise work covers the plan layout's padding too.
    const int64_t paddedElements =
        tensor::packedByteSize(plan.inLayout, view.rows, view.cols);
    const int64_t rows = std::max<int64_t>(1, view.rows);
    const uint64_t perRowDiv =
        options_.lutOptimization ? kLutDivCycles : kScalarDivCycles;

    // Epilogue of a fused layout transform (attrs.fusedTransform): the
    // kernel's store pass writes the transformed row-major view
    // directly. Charged at half the standalone unpack cost (the store
    // traffic is already paid by the kernel; only the scatter pattern
    // and setup remain), plus one permute-unit op per output vector
    // when a non-identity Transpose was folded in. Living in the plan's
    // cycles keeps auditSelection's Eq.-1 re-derivation consistent: the
    // edge sees a RowMajor producer layout and prices 0.
    const auto fusedTransformEpilogue = [&](NodeExecStats &stats) {
        if (!node.attrs.fusedTransform)
            return;
        const tensor::Shape natural =
            graph::naturalNodeShape(graph, node);
        uint64_t cycles =
            transformCost(natural, plan.inLayout, Layout::RowMajor) / 2;
        if (node.attrs.fusedTransformPermutes) {
            const uint64_t vectors = static_cast<uint64_t>(
                (natural.elements() + 127) / 128);
            cycles += vectors;
            stats.instructions += vectors;
        }
        stats.cycles += cycles;
    };

    switch (node.op) {
      case OpType::Input:
      case OpType::Constant:
      case OpType::Output:
      case OpType::Reshape: // zero-copy view in row-major
        return {};

      case OpType::Conv2D:
      case OpType::MatMul: {
        const MatMulProblem problem = *matmulProblemOf(graph, node);
        uint64_t im2col = 0;
        NodeExecStats extraTraffic;
        if (problem.im2col) {
            const int64_t patchBytes = problem.shape.m * problem.shape.k;
            im2col = static_cast<uint64_t>(
                4 * (patchBytes / dsp::kVectorBytes) + 16);
            extraTraffic.bytesLoaded =
                static_cast<uint64_t>(patchBytes);
            extraTraffic.bytesStored =
                static_cast<uint64_t>(patchBytes);
            extraTraffic.instructions = static_cast<uint64_t>(
                3 * (patchBytes / dsp::kVectorBytes));
        }
        NodeExecStats stats =
            matmulStats(problem.shape, plan.scheme, im2col);
        stats += extraTraffic;
        if (problem.batch != 1)
            stats = stats.scaled(static_cast<double>(problem.batch));
        if (node.attrs.fusedLut) {
            // Fused nonlinearity: one extra VLUT per output vector in the
            // epilogue (permute-unit bound), vs. a whole separate pass.
            stats.cycles += static_cast<uint64_t>(
                (node.shape.elements() + 127) / 128);
        }
        if (node.attrs.fusedAdd) {
            // Fused residual: stream the second operand through the
            // epilogue (one load + one byte-average per output vector).
            const uint64_t vectors = static_cast<uint64_t>(
                (node.shape.elements() + 127) / 128);
            stats.cycles += 2 * vectors;
            stats.bytesLoaded += vectors * 128;
            stats.instructions += 2 * vectors;
        }
        fusedTransformEpilogue(stats);
        return stats;
      }

      case OpType::DepthwiseConv2D: {
        // Compute-loop extents come from the natural shape (a fused
        // transform only changes the stored view).
        const tensor::Shape natural = graph::naturalNodeShape(graph, node);
        const int64_t c = natural.dim(0);
        const int64_t oh = natural.dim(1);
        const int64_t ow = natural.dim(2);
        const int stride = node.attrs.strideW == 1 ? 1 : 2;
        // Stride-2 tiles yield 128 outputs per pass, stride-1 tiles 256.
        const int64_t tileOut = stride == 2 ? 128 : 256;
        double rowTiles = static_cast<double>(c) *
                          static_cast<double>(oh) *
                          static_cast<double>((ow + tileOut - 1) /
                                              tileOut);
        // The canonical tile is 3x3; other kernel extents scale by taps.
        rowTiles *= static_cast<double>(node.attrs.kH * node.attrs.kW) /
                    9.0;
        NodeExecStats stats = depthwiseRowStats(stride).scaled(rowTiles);
        fusedTransformEpilogue(stats);
        return stats;
      }

      case OpType::Add:
      case OpType::Sub:
      case OpType::Mul:
        return elementwiseStats(EwOp::Add, paddedElements);

      case OpType::Div: {
        if (options_.lutOptimization) {
            // Reciprocal lookup + multiply: two LUT-class passes.
            NodeExecStats stats =
                elementwiseStats(EwOp::Lut, paddedElements);
            stats += elementwiseStats(EwOp::Lut, paddedElements);
            return stats;
        }
        return elementwiseStats(EwOp::Div, paddedElements);
      }

      case OpType::Pow:
      case OpType::Sigmoid:
      case OpType::Tanh:
      case OpType::Gelu:
        // Vectorizing byte-table lookups with VLUT is itself one of the
        // "other optimizations"; without it the nonlinearity runs as a
        // scalar lookup loop.
        return elementwiseStats(options_.lutOptimization ? EwOp::Lut
                                                         : EwOp::DivLut,
                                paddedElements);

      case OpType::Clamp:
        return elementwiseStats(EwOp::Clamp, paddedElements);

      case OpType::Softmax: {
        // exp lookup + row-sum reduce + per-row normalization.
        NodeExecStats stats = elementwiseStats(
            options_.lutOptimization ? EwOp::Lut : EwOp::DivLut,
            elements);
        stats += elementwiseStats(EwOp::Add, elements); // reduction tree
        if (options_.lutOptimization) {
            stats += elementwiseStats(EwOp::Lut, elements); // recip scale
            stats.cycles += static_cast<uint64_t>(rows) * kLutDivCycles;
        } else {
            stats += elementwiseStats(EwOp::Div, elements);
            stats.cycles += static_cast<uint64_t>(rows) *
                            kScalarDivCycles;
        }
        return stats;
      }

      case OpType::LayerNorm: {
        // mean + variance reductions, then a scale/shift pass.
        NodeExecStats stats = elementwiseStats(EwOp::Add, elements);
        stats += elementwiseStats(EwOp::Add, elements);
        stats += elementwiseStats(EwOp::Lut, elements);
        stats.cycles += static_cast<uint64_t>(rows) * perRowDiv;
        return stats;
      }

      case OpType::MaxPool:
      case OpType::AvgPool: {
        const int64_t window = node.attrs.poolK * node.attrs.poolK;
        const int64_t passes = (window + 1) / 2;
        const EwOp op = node.op == OpType::MaxPool ? EwOp::MaxPool
                                                   : EwOp::AvgPool;
        return elementwiseStats(op, 2 * elements)
            .scaled(static_cast<double>(passes));
      }

      case OpType::GlobalAvgPool: {
        const int64_t inElements =
            graph.node(node.inputs[0]).shape.elements();
        NodeExecStats stats = elementwiseStats(EwOp::Add, inElements);
        stats.cycles +=
            static_cast<uint64_t>(node.shape.elements()) * perRowDiv;
        return stats;
      }

      case OpType::Upsample:
      case OpType::Concat:
        return analyticCopy((elements + 127) / 128, 3);

      case OpType::Transpose:
        return analyticCopy((elements + 127) / 128, 4);

      case OpType::kNumOps:
        break;
    }
    GCD2_PANIC("unhandled op in cost model");
}

std::vector<ExecutionPlan>
CostModel::costedPlans(const graph::Graph &graph, NodeId id) const
{
    std::vector<ExecutionPlan> plans = enumeratePlans(graph, id);
    if (tiered_) {
        // Tier 2: same-layout dominance. The current plan enumeration
        // gives matmul-family plans pairwise distinct layout pairs, so
        // this filter is usually a no-op on zoo graphs -- it earns its
        // keep under exhaustive unroll scans and future enumerations
        // that propose several kernels per layout.
        tiered_->notePruned(applySameLayoutDominance(
            plans,
            [&](const ExecutionPlan &plan) {
                return computeStats(graph, id, plan).cycles;
            },
            [&](const ExecutionPlan &plan) {
                return planLowerBound(graph, id, plan);
            }));
        return plans;
    }
    for (ExecutionPlan &plan : plans)
        plan.cycles = computeStats(graph, id, plan).cycles;
    return plans;
}

uint64_t
CostModel::planLowerBound(const graph::Graph &graph, NodeId id,
                          const ExecutionPlan &plan) const
{
    if (!tiered_)
        return 0;
    // Only matmul-family plans have a certified analytic floor; every
    // other operator reports "no bound" (0), which never prunes.
    const std::optional<MatMulProblem> problem =
        matmulProblemOf(graph, graph.node(id));
    if (!problem)
        return 0;
    const MatMulShape &shape = problem->shape;
    const UnrollChoice choice = unrollFor(shape, plan.scheme);
    const uint64_t rawLb = tiered_->tileLowerBound(
        tileShapeOf(plan.scheme, choice, shape.k),
        tileConfigOf(plan.scheme, choice));
    if (rawLb == 0)
        return 0;

    // Mirror computeStats' scaling exactly (same double multiplications
    // and truncations), dropping every non-negative extra term (im2col,
    // fused epilogues) so the result stays a true floor.
    uint64_t bound = scaleSaturating(
        addSaturating(rawLb, drainCycles(plan.scheme, choice, shape.k)),
        tileTrips(shape, plan.scheme, choice));
    if (problem->batch != 1)
        bound = scaleSaturating(bound, static_cast<double>(problem->batch));
    return bound;
}

std::vector<TileRequest>
CostModel::tileRequests(const graph::Graph &graph, NodeId id) const
{
    std::vector<TileRequest> requests;
    if (!tiered_ || options_.unroll == UnrollStrategy::Exhaustive)
        return requests;
    const std::optional<MatMulProblem> problem =
        matmulProblemOf(graph, graph.node(id));
    if (!problem)
        return requests;
    // enumeratePlans gives matmul-family plans pairwise distinct
    // layouts, so same-layout dominance never prunes one: costedPlans
    // looks up the tile of every plan.
    for (const ExecutionPlan &plan : enumeratePlans(graph, id)) {
        const UnrollChoice choice = unrollFor(problem->shape, plan.scheme);
        requests.push_back(
            {tileShapeOf(plan.scheme, choice, problem->shape.k),
             tileConfigOf(plan.scheme, choice)});
    }
    return requests;
}

void
CostModel::fillTiles(const std::vector<TileRequest> &requests) const
{
    for (const TileRequest &request : requests) {
        const kernels::MatMulConfig &config = request.config;
        matmulTileStats(config.scheme,
                        UnrollChoice{config.unrollOut, config.unrollCols,
                                     config.unrollK},
                        request.tile.k);
    }
}

NodeExecStats
CostModel::planStats(const graph::Graph &graph, NodeId id,
                     const ExecutionPlan &plan) const
{
    return computeStats(graph, id, plan);
}

std::shared_ptr<const dsp::PackedProgram>
CostModel::canonicalSchedule(const graph::Graph &graph, NodeId id,
                             const ExecutionPlan &plan) const
{
    const graph::Node &node = graph.node(id);
    const MatrixView view = matrixView(node.shape);
    const int64_t elements = node.shape.elements();
    const int64_t paddedElements =
        tensor::packedByteSize(plan.inLayout, view.rows, view.cols);

    auto packOf = [&](const dsp::Program &prog) {
        return vliw::PackCache::global().lookupOrPack(
            prog, options_.packOptions);
    };
    auto matmulSchedule = [&](const MatMulShape &shape,
                              MatMulScheme scheme) {
        // Rebuild the exact canonical tile kernel matmulTileStats
        // simulates for this shape's unroll choice.
        const UnrollChoice choice = unrollFor(shape, scheme);
        const MatMulShape tile = tileShapeOf(scheme, choice, shape.k);
        const kernels::MatMulConfig config = tileConfigOf(scheme, choice);
        // The tiered coster serves the class anchor's packet structure
        // transplanted onto this kernel -- bit-identical to packing it
        // (transplantCompatible programs share one dependence graph),
        // and one shared PackedProgram object per (class, depth) so
        // downstream passes that dedupe by pointer still coalesce.
        if (tiered_)
            return tiered_->tileSchedule(tile, config);
        return packOf(kernels::MatMulKernel(tile, config).program());
    };
    auto elementwiseSchedule = [&](EwOp op, int64_t length) {
        // Mirror elementwiseStats' canonical simulation length.
        const bool scalarOp = op == EwOp::Div || op == EwOp::DivLut;
        kernels::EwConfig config;
        config.op = op;
        config.length = std::min<int64_t>(length, scalarOp ? 512 : 8192);
        return packOf(kernels::ElementwiseKernel(config).program());
    };

    switch (node.op) {
      case OpType::Input:
      case OpType::Constant:
      case OpType::Output:
      case OpType::Reshape:
      case OpType::Upsample:
      case OpType::Concat:
      case OpType::Transpose:
        return nullptr; // costed analytically; no kernel program served

      case OpType::Conv2D:
      case OpType::MatMul:
        return matmulSchedule(matmulProblemOf(graph, node)->shape,
                              plan.scheme);

      case OpType::DepthwiseConv2D: {
        const int stride = node.attrs.strideW == 1 ? 1 : 2;
        kernels::DepthwiseConfig config;
        config.channels = 1;
        config.stride = stride;
        config.inH = stride == 2 ? 5 : 4;
        config.inW = 256;
        return packOf(kernels::DepthwiseKernel(config).program());
      }

      case OpType::Add:
      case OpType::Sub:
      case OpType::Mul:
        return elementwiseSchedule(EwOp::Add, paddedElements);

      case OpType::Div:
        return elementwiseSchedule(options_.lutOptimization ? EwOp::Lut
                                                            : EwOp::Div,
                                   paddedElements);

      case OpType::Pow:
      case OpType::Sigmoid:
      case OpType::Tanh:
      case OpType::Gelu:
        return elementwiseSchedule(options_.lutOptimization ? EwOp::Lut
                                                            : EwOp::DivLut,
                                   paddedElements);

      case OpType::Clamp:
        return elementwiseSchedule(EwOp::Clamp, paddedElements);

      case OpType::Softmax:
        return elementwiseSchedule(options_.lutOptimization ? EwOp::Lut
                                                            : EwOp::DivLut,
                                   elements);

      case OpType::LayerNorm:
        return elementwiseSchedule(EwOp::Add, elements);

      case OpType::MaxPool:
      case OpType::AvgPool:
        return elementwiseSchedule(node.op == OpType::MaxPool
                                       ? EwOp::MaxPool
                                       : EwOp::AvgPool,
                                   2 * elements);

      case OpType::GlobalAvgPool:
        return elementwiseSchedule(
            EwOp::Add, graph.node(node.inputs[0]).shape.elements());

      case OpType::kNumOps:
        break;
    }
    GCD2_PANIC("unhandled op in canonicalSchedule");
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
