#include "runtime/compiler.h"

#include "runtime/pipeline.h"
#include "select/plan.h"

namespace gcd2::runtime {

CompiledModel
compile(const graph::Graph &graph, const CompileOptions &options)
{
    CompilationSession session(graph, options);
    return session.run();
}

DepthwiseProfile
depthwiseProfile(const graph::Graph &graph, const CompiledModel &model)
{
    double cycles = 0.0;
    double filled = 0.0;
    for (size_t i = 0; i < graph.size() && i < model.nodeCycles.size();
         ++i) {
        const auto id = static_cast<graph::NodeId>(i);
        if (graph.node(id).op != graph::OpType::DepthwiseConv2D)
            continue;
        const auto nodeCycles = static_cast<double>(model.nodeCycles[i]);
        cycles += nodeCycles;
        filled += nodeCycles *
                  select::depthwisePlane(graph, id).rowView().laneFill();
    }
    DepthwiseProfile profile;
    if (cycles > 0.0) {
        profile.cycleShare =
            cycles / static_cast<double>(model.totals.cycles);
        profile.laneFill = filled / cycles;
    }
    return profile;
}

} // namespace gcd2::runtime
