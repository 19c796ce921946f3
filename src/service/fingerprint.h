/**
 * @file
 * Content fingerprint of one compile request: (graph, CompileOptions).
 *
 * The compile service keys everything on this fingerprint -- request
 * coalescing (concurrent identical submissions share one compile), the
 * in-memory compiled-model LRU, and the on-disk artifact store -- so
 * the key must cover exactly the inputs that determine the served
 * CompiledModel bits:
 *
 *  - every live-relevant node field (op, inputs, attrs including the
 *    fusion/epilogue state, inferred shape, dead flag), and
 *  - every semantic CompileOptions field: cost-model options (pack
 *    policy + exact tunable bit patterns, unroll strategy, LUT opt),
 *    selection mode/partition bound/uniform scheme, overhead and
 *    library-boundary modeling, and the graph-pass toggles.
 *
 * Deliberately excluded: numThreads (bit-identical at any count, by the
 * determinism suite), audit mode (changes diagnostics, never the
 * artifact), the costCache pointer (a memo of pure functions), and the
 * test fault hooks (null in production).
 *
 * Same two-lane FNV-1a construction as dsp::DecodeKey/vliw::PackKey:
 * 128 bits of independent hash plus the node count, making accidental
 * collisions across a model zoo astronomically unlikely.
 */
#ifndef GCD2_SERVICE_FINGERPRINT_H
#define GCD2_SERVICE_FINGERPRINT_H

#include <cstdint>
#include <string>

#include "common/fnv.h"
#include "graph/graph.h"
#include "runtime/compiler.h"

namespace gcd2::service {

/** Content fingerprint of a (graph, options) compile request. */
struct ModelKey
{
    uint64_t h0 = 0;
    uint64_t h1 = 0;
    uint64_t nodes = 0;

    bool operator==(const ModelKey &other) const = default;
};

struct ModelKeyHash
{
    size_t
    operator()(const ModelKey &key) const noexcept
    {
        return static_cast<size_t>(common::mixLanes(key.h0, key.h1));
    }
};

/** Fingerprint covering everything that determines the compiled bits. */
ModelKey fingerprintRequest(const graph::Graph &graph,
                            const runtime::CompileOptions &options);

/** 32-hex-digit rendering (artifact file names, logs). */
std::string toHex(const ModelKey &key);

} // namespace gcd2::service

#endif // GCD2_SERVICE_FINGERPRINT_H
