#include "baselines/frameworks.h"

#include "common/logging.h"

namespace gcd2::baselines {

using models::ModelId;

bool
supportsModel(Framework fw, ModelId id)
{
    switch (fw) {
      case Framework::Gcd2:
        return true;
      case Framework::TfLite:
        // No transformer support (Table IV: TinyBERT, Conformer are "-").
        return id != ModelId::TinyBert && id != ModelId::Conformer;
      case Framework::Snpe:
        // Additionally lacks EfficientDet-d0's operator set.
        return id != ModelId::TinyBert && id != ModelId::Conformer &&
               id != ModelId::EfficientDetD0;
    }
    return false;
}

runtime::CompileOptions
frameworkOptions(Framework fw)
{
    runtime::CompileOptions options;
    switch (fw) {
      case Framework::Gcd2:
        options.selection = runtime::SelectionMode::Gcd2;
        options.cost.packOptions.policy = vliw::PackPolicy::Sda;
        options.cost.unroll = kernels::UnrollStrategy::Adaptive;
        options.cost.lutOptimization = true;
        options.perOpOverheadCycles = 0;
        break;
      case Framework::TfLite:
        // Hexagon NN library kernels: one well-chosen implementation per
        // operator type (uniform vmpa), fixed library unroll, row-major
        // boundaries around every call; the TFLite delegate's kernels are
        // list-scheduled without soft-dependency awareness.
        options.selection = runtime::SelectionMode::Uniform;
        options.uniformScheme = kernels::MatMulScheme::Vmpa;
        options.cost.packOptions.policy = vliw::PackPolicy::ListSched;
        options.cost.unroll = kernels::UnrollStrategy::Mid2;
        options.cost.lutOptimization = false;
        options.libraryStyleBoundaries = true;
        // Library runtimes execute Reshape/Transpose operators as
        // written -- no cross-operator transform elimination.
        options.eliminateLayoutTransforms = false;
        // Interpreter dispatch + Hexagon NN call overhead per operator.
        options.perOpOverheadCycles = 12000;
        break;
      case Framework::Snpe:
        // Qualcomm's own stack ships hand-scheduled (SDA-quality) library
        // kernels, still uniform-layout with per-call boundaries and a
        // fixed unroll.
        options.selection = runtime::SelectionMode::Uniform;
        options.uniformScheme = kernels::MatMulScheme::Vmpa;
        options.cost.packOptions.policy = vliw::PackPolicy::Sda;
        options.cost.unroll = kernels::UnrollStrategy::Mid;
        options.cost.lutOptimization = false;
        options.libraryStyleBoundaries = true;
        // Same per-call transform execution as the TFLite delegate.
        options.eliminateLayoutTransforms = false;
        // Leaner ahead-of-time graph runtime.
        options.perOpOverheadCycles = 4000;
        break;
    }
    return options;
}

std::optional<runtime::CompiledModel>
runFramework(Framework fw, ModelId id)
{
    if (!supportsModel(fw, id))
        return std::nullopt;
    const graph::Graph graph = models::buildModel(id);
    return runFrameworkOnGraph(fw, graph);
}

runtime::CompiledModel
runFrameworkOnGraph(Framework fw, const graph::Graph &graph)
{
    return runtime::compile(graph, frameworkOptions(fw));
}

} // namespace gcd2::baselines
