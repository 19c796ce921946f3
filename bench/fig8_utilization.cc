/**
 * @file
 * Fig. 8: DSP utilization and memory bandwidth of TFLite / SNPE relative
 * to GCD2 (= 100%) on the five representative models.
 *
 * A second table shows where utilization is lost inside the matmul
 * tiles: for every tile of pack_throughput's zoo-block grid, its
 * steady-state simulated cycles per k-iteration against the
 * multiply-pipe bound, the certified tier-1 lower bound (ResMII) and the
 * accumulator recurrence (RecMII). A third
 * gives the depthwise models' depthwise cycle share and the
 * cycle-weighted share of vtmpy output lanes that hold outputs.
 */
#include <algorithm>
#include <iostream>
#include <string>

#include "baselines/frameworks.h"
#include "common/table.h"
#include "kernels/runner.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "select/analytic.h"
#include "zoo_tiles.h"

using namespace gcd2;
using baselines::Framework;

namespace {

/**
 * One row per zoo-block tile (zoo_tiles.h). Steady-state figures are
 * slopes between 8 and 24 inner-loop iterations: simulated cycles, the
 * two multiply pipes' bound, the certified tier-1 lower bound, and
 * RecMII: each column accumulator takes unrollK dependent multiplies per
 * iteration, each waiting out the multiply latency.
 */
void
printTileTable()
{
    Table table({"Scheme", "Unroll o-c-k", "cyc/k-iter", "mpy bound",
                 "tier-1 bound", "RecMII", "x mpy", "x max(tier-1, RecMII)"});
    for (const bench::ZooTile &tile : bench::zooTiles()) {
        const kernels::MatMulKernel lo = tile.kernel(8);
        const kernels::MatMulKernel hi = tile.kernel(24);
        auto cycles = [](const kernels::MatMulKernel &k) {
            return static_cast<double>(
                kernels::runKernel(k.program(), k.buffers(), {}, {})
                    .stats.cycles);
        };
        auto lower = [](const kernels::MatMulKernel &k) {
            return static_cast<double>(
                select::analyzeProgram(k.program()).lower);
        };
        // Every multiply of a tile sits in its k loops.
        int multUnits = 0;
        int mulLatency = 0;
        for (const dsp::Instruction &inst : lo.program().code) {
            multUnits += inst.info().multUnits;
            if (inst.info().multUnits > 0)
                mulLatency = std::max(mulLatency, inst.info().latency);
        }
        const double perIter = (cycles(hi) - cycles(lo)) / 16.0;
        const double pipeBound = (multUnits + 1) / 2;
        const double tier1 = (lower(hi) - lower(lo)) / 16.0;
        const kernels::UnrollChoice &c = tile.choice;
        const double recMII = c.k * mulLatency;
        table.addRow({kernels::schemeName(tile.scheme),
                      std::to_string(c.outer) + "-" +
                          std::to_string(c.cols) + "-" +
                          std::to_string(c.k),
                      fmtDouble(perIter, 1), fmtDouble(pipeBound, 0),
                      fmtDouble(tier1, 1), fmtDouble(recMII, 0),
                      fmtDouble(perIter / pipeBound, 2),
                      fmtDouble(perIter / std::max(tier1, recMII), 2)});
    }
    table.print(std::cout);
}

/** Depthwise cycle share and lane fill of the four depthwise models. */
void
printDepthwiseTable()
{
    Table table({"Model", "depthwise cycles %", "lane fill %"});
    for (models::ModelId id :
         {models::ModelId::MobileNetV3, models::ModelId::EfficientNetB0,
          models::ModelId::EfficientDetD0, models::ModelId::Conformer}) {
        const graph::Graph g = models::buildModel(id);
        const runtime::DepthwiseProfile profile =
            runtime::depthwiseProfile(g, runtime::compile(g));
        table.addRow({models::modelInfo(id).name,
                      fmtDouble(100.0 * profile.cycleShare, 1),
                      fmtDouble(100.0 * profile.laneFill, 1)});
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    std::cout << "Fig. 8: DSP Utilization and Memory Bandwidth "
                 "(normalized, GCD2 = 100%)\n\n";

    const models::ModelId ids[] = {
        models::ModelId::EfficientNetB0, models::ModelId::ResNet50,
        models::ModelId::FST, models::ModelId::WdsrB,
        models::ModelId::PixOr};

    Table table({"Model", "TFLite util%", "SNPE util%", "GCD2 util%",
                 "TFLite bw%", "SNPE bw%", "GCD2 bw%"});
    for (models::ModelId id : ids) {
        const auto gcd2 = baselines::runFramework(Framework::Gcd2, id);
        const auto tflite = baselines::runFramework(Framework::TfLite, id);
        const auto snpe = baselines::runFramework(Framework::Snpe, id);
        auto pct = [](double v, double ref) {
            return fmtDouble(100.0 * v / ref, 0);
        };
        table.addRow(
            {models::modelInfo(id).name,
             pct(tflite->utilization(), gcd2->utilization()),
             pct(snpe->utilization(), gcd2->utilization()), "100",
             pct(tflite->bandwidth(), gcd2->bandwidth()),
             pct(snpe->bandwidth(), gcd2->bandwidth()), "100"});
    }
    table.print(std::cout);

    std::cout << "\npaper: TFLite reaches 88-93% of GCD2's utilization "
                 "and 86-93% of its bandwidth; SNPE 89-95% and 90-94%.\n"
                 "Expected shape: both baselines below 100% on both "
                 "axes for every model.\n";

    std::cout << "\nAdaptive matmul tiles, steady state per k-iteration "
                 "(zoo-block grid, slope over 8 -> 24 iterations)\n\n";
    printTileTable();
    std::cout << "Expected shape: every tile within 1.3x of max(tier-1, "
                 "RecMII) (MatMulLatency.EveryAdaptiveTileMeetsItsII).\n";

    std::cout << "\nDepthwise layers (GCD2): share of model cycles and "
                 "cycle-weighted vtmpy lane fill\n\n";
    printDepthwiseTable();
    std::cout << "Expected shape: lane fill >= 50% on every model "
                 "(short rows share a row tile).\n";
    return 0;
}
