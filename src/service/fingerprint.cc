#include "service/fingerprint.h"

#include <bit>

#include "common/fnv.h"

namespace gcd2::service {

namespace {

using common::FnvPair;

void
hashNode(const graph::Node &node, FnvPair &fnv)
{
    fnv.value(static_cast<uint8_t>(node.op));
    fnv.value(node.dead);
    fnv.sequence(node.inputs);
    fnv.sequence(node.shape.dims());

    const graph::NodeAttrs &a = node.attrs;
    fnv.value(a.outC);
    fnv.value(a.kH);
    fnv.value(a.kW);
    fnv.value(a.strideH);
    fnv.value(a.strideW);
    fnv.value(a.padH);
    fnv.value(a.padW);
    fnv.value(a.transposeB);
    fnv.value(a.poolK);
    fnv.value(a.poolStride);
    fnv.value(a.clampLo);
    fnv.value(a.clampHi);
    fnv.value(a.axis);
    fnv.value(std::bit_cast<uint64_t>(a.exponent));
    fnv.sequence(a.targetShape);
    fnv.sequence(a.perm);
    fnv.value(a.fusedClamp);
    fnv.value(a.fusedLo);
    fnv.value(a.fusedHi);
    fnv.value(a.fusedLut);
    fnv.value(a.fusedAdd);
    fnv.value(a.fusedTransform);
    fnv.sequence(a.fusedOutShape);
    fnv.value(a.fusedTransformPermutes);
}

void
hashRequest(const graph::Graph &graph,
            const runtime::CompileOptions &options, FnvPair &fnv)
{
    fnv.value(static_cast<uint64_t>(graph.size()));
    for (const graph::Node &node : graph.nodes())
        hashNode(node, fnv);

    fnv.value(uint64_t{0x0971'0f75}); // graph | options separator

    const select::CostModelOptions &cost = options.cost;
    fnv.value(static_cast<uint8_t>(cost.packOptions.policy));
    fnv.value(std::bit_cast<uint64_t>(cost.packOptions.w));
    fnv.value(std::bit_cast<uint64_t>(cost.packOptions.penaltyScale));
    fnv.value(static_cast<uint8_t>(cost.unroll));
    fnv.value(cost.lutOptimization);

    fnv.value(static_cast<uint8_t>(options.selection));
    fnv.value(options.maxPartition);
    fnv.value(static_cast<uint8_t>(options.uniformScheme));
    fnv.value(options.perOpOverheadCycles);
    fnv.value(options.libraryStyleBoundaries);
    fnv.value(options.eliminateLayoutTransforms);
    fnv.value(options.deadCodeElimination);
    fnv.value(options.enableExtendedFusion);
}

} // namespace

ModelKey
fingerprintRequest(const graph::Graph &graph,
                   const runtime::CompileOptions &options)
{
    FnvPair fnv;
    hashRequest(graph, options, fnv);
    fnv.secondLaneValue(uint64_t{0x5eed});
    ModelKey key;
    key.h0 = fnv.first();
    key.h1 = fnv.second();
    key.nodes = graph.size();
    return key;
}

std::string
toHex(const ModelKey &key)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (uint64_t lane : {key.h0, key.h1})
        for (int shift = 60; shift >= 0; shift -= 4)
            out.push_back(digits[(lane >> shift) & 0xF]);
    return out;
}

} // namespace gcd2::service
