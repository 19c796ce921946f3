/**
 * @file
 * Loop-unrolling strategies (Section IV-C, "Impact of Unrolling").
 *
 * GCD2 uses a low-cost shape-adaptive heuristic: the output tensor shape
 * (skinny / near-square / fat) picks the unroll setting directly, instead
 * of an exhaustive search over factor combinations. The alternatives the
 * paper compares against in Fig. 12 are expressible here too: unrolling
 * only the outer-most loop (Out), only the mid loop (Mid), no unrolling,
 * and exhaustive search over a candidate grid.
 */
#ifndef GCD2_KERNELS_UNROLL_H
#define GCD2_KERNELS_UNROLL_H

#include <vector>

#include "kernels/matmul.h"

namespace gcd2::kernels {

/** One unroll setting: (outer panels, column tiles, k steps). */
struct UnrollChoice
{
    int outer = 1;
    int cols = 1;
    int k = 1;
};

/** The strategies compared in Fig. 12. */
enum class UnrollStrategy : uint8_t
{
    None,       ///< factor 1 everywhere
    Outer,      ///< row panels only: tiles register-blocked over 4 panels
    Mid,        ///< unroll the mid (output column) loop only (factor 4)
    Mid2,       ///< fixed mid-loop factor 2 (library-default unrolling)
    Adaptive,   ///< GCD2: shape-adaptive selection
    Exhaustive, ///< search the candidate grid (expensive)
};

const char *unrollStrategyName(UnrollStrategy strategy);

/** Output-shape classes driving the adaptive heuristic. */
enum class OutputShapeClass : uint8_t { Skinny, NearSquare, Fat };

/** Classify an output matrix (M rows x N columns). */
OutputShapeClass classifyOutputShape(int64_t m, int64_t n);

/**
 * GCD2's shape-adaptive unroll choice for a matmul on @p scheme.
 * Skinny outputs (tall, few columns) lean on k-unrolling, fat outputs on
 * wide column tiles, near-square outputs on a balanced 4-4 setting. A
 * vrmpy matmul whose row panels pair up (an even count, or 16 and more)
 * runs a tile register-blocked over two panels instead (2-2-2).
 */
UnrollChoice adaptiveUnroll(const MatMulShape &shape, MatMulScheme scheme);

/** Candidate grid used by the Exhaustive strategy and Fig. 12 sweeps. */
std::vector<UnrollChoice> unrollCandidates();

/**
 * The tile @p choice runs on @p scheme: one layout panel of rows and one
 * column unit per unroll step, at reduction depth @p k. The cost model
 * prices a kernel by this tile.
 */
MatMulShape unrollTile(MatMulScheme scheme, const UnrollChoice &choice,
                       int64_t k);

/** Apply a choice to a config. */
MatMulConfig withUnroll(MatMulConfig config, const UnrollChoice &choice);

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_UNROLL_H
