#include "kernels/unroll.h"

#include <algorithm>

#include "common/round.h"

namespace gcd2::kernels {

const char *
unrollStrategyName(UnrollStrategy strategy)
{
    switch (strategy) {
      case UnrollStrategy::None:
        return "none";
      case UnrollStrategy::Outer:
        return "out";
      case UnrollStrategy::Mid:
        return "mid";
      case UnrollStrategy::Mid2:
        return "mid2";
      case UnrollStrategy::Adaptive:
        return "gcd2";
      case UnrollStrategy::Exhaustive:
        return "exhaustive";
    }
    return "?";
}

OutputShapeClass
classifyOutputShape(int64_t m, int64_t n)
{
    if (n * 4 <= m)
        return OutputShapeClass::Skinny;
    if (m * 4 <= n)
        return OutputShapeClass::Fat;
    return OutputShapeClass::NearSquare;
}

UnrollChoice
adaptiveUnroll(const MatMulShape &shape, MatMulScheme scheme)
{
    const MatMulSchemeInfo &info = schemeInfo(scheme);
    UnrollChoice choice;
    switch (classifyOutputShape(shape.m, shape.n)) {
      case OutputShapeClass::Skinny:
        // Few output columns: widen the reduction instead.
        choice = UnrollChoice{1, 2, 4};
        break;
      case OutputShapeClass::NearSquare:
        // The paper's exhaustive search lands on 4-4 here.
        choice = UnrollChoice{1, 4, 4};
        break;
      case OutputShapeClass::Fat:
        // Many output columns: maximize live accumulators (without
        // spilling) and keep k modest.
        choice = UnrollChoice{1, 8, 2};
        break;
    }

    // A vrmpy tile issues one LOADW per vrmpy, so its two memory slots,
    // not its two multiply pipes, bound it. Blocking it over two row
    // panels loads each weight word once for both. Only where the rows
    // fill panel pairs: an odd panel count below 16 pads the kernel by a
    // sixteenth of its rows or more.
    const int64_t panels = common::ceilDiv(shape.m, info.panelRows());
    if (scheme == MatMulScheme::Vrmpy && (panels % 2 == 0 || panels >= 16))
        choice = UnrollChoice{2, 2, 2};

    // Never request more column tiles than the output provides, and stay
    // within the no-spill accumulator budget.
    const int maxTiles = static_cast<int>(
        std::max<int64_t>(1, common::ceilDiv(shape.n, info.colsPerUnit)));
    choice.cols =
        std::min({choice.cols, maxTiles, info.noSpillUnits(choice.outer)});

    // Keep k-unrolling within the reduction depth.
    const int maxK = static_cast<int>(
        std::max<int64_t>(1, common::ceilDiv(shape.k, info.kPerStep)));
    choice.k = std::min(choice.k, maxK);
    return choice;
}

std::vector<UnrollChoice>
unrollCandidates()
{
    std::vector<UnrollChoice> grid;
    for (int outer : {1, 2})
        for (int cols : {1, 2, 4, 8})
            for (int k : {1, 2, 4, 8})
                grid.push_back(UnrollChoice{outer, cols, k});
    return grid;
}

MatMulShape
unrollTile(MatMulScheme scheme, const UnrollChoice &choice, int64_t k)
{
    const MatMulSchemeInfo &info = schemeInfo(scheme);
    return {static_cast<int64_t>(info.panelRows()) * choice.outer, k,
            static_cast<int64_t>(info.colsPerUnit) * choice.cols};
}

MatMulConfig
withUnroll(MatMulConfig config, const UnrollChoice &choice)
{
    config.unrollOut = choice.outer;
    config.unrollCols = choice.cols;
    config.unrollK = choice.k;
    return config;
}

} // namespace gcd2::kernels
