/**
 * @file
 * Depthwise costing against simulation, over every depthwise shape class
 * the model zoo serves, and the lane fill of the depthwise models.
 *
 * The depthwise recipe prices a node as row tiles x half the simulated
 * two-row canonical kernel of its (stride, kH, kW). The fidelity test
 * simulates the generated kernel over each node's whole banded plane
 * (two channels) and bounds the recipe's per-channel cycles against it.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>

#include "kernels/runner.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "select/cost_model.h"

namespace gcd2::select {
namespace {

/** Largest relative error of the recipe's per-channel cycles (the zoo's
 *  largest is 6.9%, 14x14 at stride 2). */
constexpr double kMaxRecipeError = 0.10;

/** The four zoo models with depthwise layers. */
constexpr models::ModelId kDepthwiseModels[] = {
    models::ModelId::MobileNetV3, models::ModelId::EfficientNetB0,
    models::ModelId::EfficientDetD0, models::ModelId::Conformer};

TEST(DepthwiseCostTest, RecipeTracksTheSimulatedPlane)
{
    const CostModel model;
    using ClassKey = std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t,
                                int64_t, int64_t>;
    std::set<ClassKey> seen;
    for (models::ModelId id : kDepthwiseModels) {
        const graph::Graph g = models::buildModel(id);
        for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.size());
             ++n) {
            if (g.node(n).op != graph::OpType::DepthwiseConv2D)
                continue;
            kernels::DepthwiseConfig plane = depthwisePlane(g, n);
            if (!seen.insert({plane.inH, plane.inW, plane.kH, plane.kW,
                              plane.stride, plane.padH, plane.padW})
                     .second)
                continue;

            const ExecutionPlan plan = enumeratePlans(g, n).front();
            const PlanRecipe recipe =
                planRecipe(g, n, plan, model.options().lutOptimization);
            const double recipeCycles =
                static_cast<double>(model.planStats(g, n, plan).cycles -
                                    recipe.outer.cycles) /
                static_cast<double>(plane.channels);

            plane.channels = 2;
            const kernels::DepthwiseKernel kernel(plane);
            const double simulated =
                static_cast<double>(
                    kernels::runKernel(kernel.program(), kernel.buffers(),
                                       {}, {}, model.options().packOptions)
                        .stats.cycles) /
                2.0;
            const double error =
                std::abs(recipeCycles - simulated) / simulated;
            std::printf("  %3lldx%-3lld k%lldx%lld s%lld: recipe %8.1f "
                        "simulated %8.1f cycles/channel, error %5.1f%%\n",
                        static_cast<long long>(plane.inH),
                        static_cast<long long>(plane.inW),
                        static_cast<long long>(plane.kH),
                        static_cast<long long>(plane.kW),
                        static_cast<long long>(plane.stride), recipeCycles,
                        simulated, 100.0 * error);
            EXPECT_LE(error, kMaxRecipeError)
                << models::modelInfo(id).name << " node " << n;
        }
    }
    EXPECT_GE(seen.size(), 20u);
}

TEST(DepthwiseCostTest, DepthwiseModelsFillHalfTheirLanes)
{
    for (models::ModelId id : kDepthwiseModels) {
        const graph::Graph g = models::buildModel(id);
        runtime::CompileOptions options;
        options.numThreads = 1;
        const runtime::DepthwiseProfile profile =
            runtime::depthwiseProfile(g, runtime::compile(g, options));
        EXPECT_GE(profile.laneFill, 0.5) << models::modelInfo(id).name;
    }
}

} // namespace
} // namespace gcd2::select
