/**
 * @file
 * The zoo-block tile grid that pack_throughput packs and fig8_utilization
 * measures: for each matmul scheme, one tile per distinct unroll choice
 * the default (adaptive) strategy makes on a grid of layer shapes, with
 * the cost model's tile geometry (kernels::unrollTile).
 */
#ifndef GCD2_BENCH_ZOO_TILES_H
#define GCD2_BENCH_ZOO_TILES_H

#include <algorithm>
#include <array>
#include <vector>

#include "kernels/matmul.h"
#include "kernels/unroll.h"

namespace gcd2::bench {

struct ZooTile
{
    kernels::MatMulScheme scheme;
    kernels::UnrollChoice choice;

    /** The tile kernel with @p iters inner-loop iterations. */
    kernels::MatMulKernel
    kernel(int64_t iters) const
    {
        return kernels::MatMulKernel(
            kernels::unrollTile(scheme, choice,
                                kernels::kQuantum(scheme, choice.k) * iters),
            kernels::withUnroll({.scheme = scheme}, choice));
    }
};

/** Every scheme's tiles, grouped by scheme (vmpy, vmpa, vrmpy). */
inline std::vector<ZooTile>
zooTiles()
{
    using kernels::MatMulScheme;
    std::vector<ZooTile> tiles;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        std::vector<std::array<int, 3>> seen;
        for (const int64_t m : {4, 16, 64, 256, 1024}) {
            for (const int64_t n : {4, 16, 64, 256, 1024}) {
                const kernels::UnrollChoice choice =
                    kernels::adaptiveUnroll({m, 1024, n}, scheme);
                const std::array<int, 3> key{choice.outer, choice.cols,
                                             choice.k};
                if (std::find(seen.begin(), seen.end(), key) != seen.end())
                    continue;
                seen.push_back(key);
                tiles.push_back({scheme, choice});
            }
        }
    }
    return tiles;
}

} // namespace gcd2::bench

#endif // GCD2_BENCH_ZOO_TILES_H
