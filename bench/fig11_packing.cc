/**
 * @file
 * Fig. 11: VLIW scheduling analysis -- the SDA packer against the
 * soft_to_hard (all soft dependencies forbid co-packing) and soft_to_none
 * (stall penalty ignored, lines 27-28 removed) ablations on the five
 * representative models, normalized by soft_to_hard.
 *
 * Pass --sweep-w to additionally ablate the Eq. 4 weight `w` and the
 * penalty scale on a ResNet-50 convolution kernel.
 */
#include <cstring>
#include <iostream>

#include "baselines/kernel_compilers.h"
#include "common/table.h"
#include "models/zoo.h"
#include "runtime/compiler.h"

using namespace gcd2;

namespace {

double
latencyWith(const graph::Graph &g, vliw::PackPolicy policy,
            kernels::UnrollStrategy unroll)
{
    runtime::CompileOptions options;
    options.selection = runtime::SelectionMode::Gcd2; // the paper's GCD2
    options.cost.packOptions.policy = policy;
    options.cost.unroll = unroll;
    return runtime::compile(g, options).latencyMs();
}

void
runComparison(kernels::UnrollStrategy unroll)
{
    const models::ModelId ids[] = {
        models::ModelId::EfficientNetB0, models::ModelId::ResNet50,
        models::ModelId::FST, models::ModelId::WdsrB,
        models::ModelId::PixOr};

    Table table({"Model", "soft_to_hard", "soft_to_none", "SDA (GCD2)"});
    for (models::ModelId id : ids) {
        const graph::Graph g = models::buildModel(id);
        const double hard =
            latencyWith(g, vliw::PackPolicy::SoftToHard, unroll);
        const double none =
            latencyWith(g, vliw::PackPolicy::SoftToNone, unroll);
        const double sda = latencyWith(g, vliw::PackPolicy::Sda, unroll);
        table.addRow({models::modelInfo(id).name, "1.00x",
                      fmtSpeedup(hard / none, 2),
                      fmtSpeedup(hard / sda, 2)});
    }
    table.print(std::cout);
}

void
sweepW()
{
    std::cout << "\nEq. 4 parameter ablation (ResNet-50 C2 3x3 kernel, "
                 "cycles; lower = better):\n";
    Table table({"w", "penalty x1", "penalty x4", "penalty x8",
                 "penalty x16"});
    const auto &shape = baselines::resnetConvKernels()[2];
    const kernels::MatMulShape mm = shape.matmulShape();
    for (double w : {0.2, 0.4, 0.6, 0.8}) {
        std::vector<std::string> row{fmtDouble(w, 1)};
        for (double scale : {1.0, 4.0, 8.0, 16.0}) {
            select::CostModelOptions options;
            options.packOptions.policy = vliw::PackPolicy::Sda;
            options.packOptions.w = w;
            options.packOptions.penaltyScale = scale;
            select::CostModel model(options);
            row.push_back(std::to_string(
                model.matmulStats(mm, kernels::MatMulScheme::Vmpa, 0)
                    .cycles));
        }
        table.addRow(row);
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::cout << "Fig. 11: VLIW Scheduling Analysis (speedup over "
                 "soft_to_hard)\n\n";

    std::cout << "Library-style fixed kernels (no unrolling) -- the "
                 "low-ILP regime where\nsoft-dependency treatment "
                 "dominates:\n";
    runComparison(kernels::UnrollStrategy::None);

    std::cout << "\nWith GCD2's shape-adaptive unrolling (abundant "
                 "independent work narrows the gap):\n";
    runComparison(kernels::UnrollStrategy::Adaptive);

    std::cout << "\npaper: SDA reaches up to 2.1x over soft_to_hard and "
                 "up to 1.4x over soft_to_none.\n"
                 "Expected shape: SDA >= both ablations on every model; "
                 "the advantage concentrates where instruction-level\n"
                 "parallelism is scarce (soft_to_none even loses to "
                 "soft_to_hard there by eating real stalls).\n";

    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--sweep-w") == 0)
            sweepW();
    return 0;
}
