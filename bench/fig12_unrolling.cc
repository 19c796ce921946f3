/**
 * @file
 * Fig. 12: unrolling-factor analysis.
 *  (a) A single near-square MatMul kernel swept over unroll factors for
 *      the Out (outer loop only) and Mid (column loop only) strategies,
 *      normalized by no unrolling; GCD2's adaptive choice and the
 *      exhaustive-search best are marked.
 *  (b) Eight MatMul kernels (O1..O8) comparing No-unroll, best-Out,
 *      best-Mid, GCD2 adaptive, and exhaustive search.
 */
#include <iostream>
#include <map>
#include <tuple>

#include "common/table.h"
#include "common/timer.h"
#include "kernels/runner.h"
#include "kernels/unroll.h"

using namespace gcd2;
using kernels::MatMulConfig;
using kernels::MatMulKernel;
using kernels::MatMulScheme;
using kernels::MatMulShape;
using kernels::UnrollChoice;

namespace {

uint64_t
cyclesFor(const MatMulShape &shape, const UnrollChoice &choice)
{
    using Key = std::tuple<int64_t, int64_t, int64_t, int, int, int>;
    static std::map<Key, uint64_t> memo;
    const Key key{shape.m, shape.k, shape.n, choice.outer, choice.cols,
                  choice.k};
    const auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    MatMulConfig config;
    config.scheme = MatMulScheme::Vrmpy;
    config = kernels::withUnroll(config, choice);
    const MatMulKernel kernel(shape, config);
    const uint64_t cycles =
        kernels::runKernel(kernel.program(), kernel.buffers(), {}, {})
            .stats.cycles;
    memo.emplace(key, cycles);
    return cycles;
}

UnrollChoice
exhaustiveBest(const MatMulShape &shape, double *searchSeconds = nullptr)
{
    const gcd2::Timer timer;
    UnrollChoice best{1, 1, 1};
    uint64_t bestCycles = UINT64_MAX;
    for (const UnrollChoice &choice : kernels::unrollCandidates()) {
        const uint64_t cycles = cyclesFor(shape, choice);
        if (cycles < bestCycles) {
            bestCycles = cycles;
            best = choice;
        }
    }
    if (searchSeconds)
        *searchSeconds = timer.seconds();
    return best;
}

} // namespace

int
main()
{
    std::cout << "Fig. 12 (a): unroll-factor sweep on a near-square "
                 "MatMul (128x128x128), speedup over factor 1\n\n";

    const MatMulShape square{128, 128, 128};
    const double base = static_cast<double>(
        cyclesFor(square, UnrollChoice{1, 1, 1}));

    Table sweep({"Factor", "Out (outer only)", "Mid (columns only)"});
    for (int factor : {1, 2, 4, 8, 16}) {
        sweep.addRow({std::to_string(factor),
                      factor <= 8
                          ? fmtSpeedup(base / static_cast<double>(cyclesFor(
                                                  square, {factor, 1, 1})),
                                       2)
                          : "-",
                      fmtSpeedup(base / static_cast<double>(cyclesFor(
                                            square, {1, factor, 1})),
                                 2)});
    }
    sweep.print(std::cout);
    std::cout << "Out 16: sixteen register-blocked row panels need more "
                 "input registers than the kernel has free.\n";

    double searchSeconds = 0.0;
    const UnrollChoice best = exhaustiveBest(square, &searchSeconds);
    const UnrollChoice adaptive =
        kernels::adaptiveUnroll(square, MatMulScheme::Vrmpy);
    std::cout << "\nGCD2 adaptive choice: (out=" << adaptive.outer
              << ", cols=" << adaptive.cols << ", k=" << adaptive.k
              << ") -> "
              << fmtSpeedup(base / static_cast<double>(
                                       cyclesFor(square, adaptive)),
                            2)
              << "; exhaustive best: (out=" << best.outer
              << ", cols=" << best.cols << ", k=" << best.k << ") -> "
              << fmtSpeedup(
                     base / static_cast<double>(cyclesFor(square, best)),
                     2)
              << " found in " << fmtDouble(searchSeconds, 2)
              << " s (paper: exhaustive takes minutes per kernel; the "
                 "paper's best is 4-4).\n";

    std::cout << "\nFig. 12 (b): strategies across 8 MatMul kernels "
                 "(speedup over no unrolling)\n\n";

    const MatMulShape kernels8[] = {
        {256, 64, 64},  {128, 128, 128}, {64, 128, 256},
        {512, 32, 16},  {96, 96, 192},   {128, 256, 64},
        {32, 64, 512},  {192, 96, 96},
    };

    Table part2({"Kernel", "No unroll", "Out (best)", "Mid (best)",
                 "GCD2", "Exhaustive"});
    int idx = 1;
    for (const MatMulShape &shape : kernels8) {
        const double none = static_cast<double>(
            cyclesFor(shape, UnrollChoice{1, 1, 1}));
        // Best single-axis factors from the (a) sweep methodology.
        double bestOut = 0, bestMid = 0;
        for (int factor : {1, 2, 4, 8}) {
            bestOut = std::max(
                bestOut, none / static_cast<double>(cyclesFor(
                                    shape, {factor, 1, 1})));
            bestMid = std::max(
                bestMid, none / static_cast<double>(cyclesFor(
                                    shape, {1, factor, 1})));
        }
        const UnrollChoice gcd2Choice =
            kernels::adaptiveUnroll(shape, MatMulScheme::Vrmpy);
        const double gcd2 =
            none / static_cast<double>(cyclesFor(shape, gcd2Choice));
        const double exhaustive =
            none / static_cast<double>(
                       cyclesFor(shape, exhaustiveBest(shape)));
        std::string label = "O";
        label += std::to_string(idx++);
        part2.addRow({label, "1.00x",
                      fmtSpeedup(bestOut, 2), fmtSpeedup(bestMid, 2),
                      fmtSpeedup(gcd2, 2), fmtSpeedup(exhaustive, 2)});
    }
    part2.print(std::cout);

    std::cout << "\npaper shape: performance rises with moderate factors "
                 "and falls once unrolling spills registers; GCD2's\n"
                 "shape-adaptive setting tracks the exhaustive best "
                 "while avoiding its search cost and beats both\n"
                 "single-axis strategies across kernels.\n";
    return 0;
}
