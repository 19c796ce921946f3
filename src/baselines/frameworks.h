/**
 * @file
 * Behavioral models of the end-to-end baseline frameworks (Table IV).
 *
 * TFLite and SNPE both call Qualcomm's hand-written Hexagon NN library:
 * one uniform per-operator-type implementation (no shape-driven layout /
 * instruction selection) and a packetizer that does not distinguish soft
 * from hard dependencies. They differ in graph-level optimization
 * quality and runtime dispatch overhead. Both are compiled through the
 * *same* simulator and cost model as GCD2, differing exactly along the
 * axes the paper credits for its speedups:
 *
 *  - uniform (vrmpy / 4-column) kernels vs. global selection;
 *  - soft-dependency-blind list-scheduled packing vs. SDA;
 *  - fixed library unroll (no shape adaptation);
 *  - no division-to-LUT optimization;
 *  - interpreter dispatch overhead per operator (higher for TFLite,
 *    lower for SNPE, zero for ahead-of-time GCD2 code).
 *
 * Model support matches the paper: neither framework runs the
 * transformer models, and SNPE also lacks EfficientDet-d0's ops.
 */
#ifndef GCD2_BASELINES_FRAMEWORKS_H
#define GCD2_BASELINES_FRAMEWORKS_H

#include <optional>

#include "models/zoo.h"
#include "runtime/compiler.h"

namespace gcd2::baselines {

/** Which end-to-end stack compiles/executes the model. */
enum class Framework : uint8_t { TfLite, Snpe, Gcd2 };

/** Does the framework support the model (Table IV "-" entries)? */
bool supportsModel(Framework fw, models::ModelId id);

/** Compile options that realize a framework's behavior. */
runtime::CompileOptions frameworkOptions(Framework fw);

/**
 * Compile @p id under @p fw. Returns nullopt when unsupported.
 * The returned CompiledModel carries latency / utilization / bandwidth.
 */
std::optional<runtime::CompiledModel> runFramework(Framework fw,
                                                   models::ModelId id);

/** As above but on an already-built graph (sub-graph studies). */
runtime::CompiledModel runFrameworkOnGraph(Framework fw,
                                           const graph::Graph &graph);

} // namespace gcd2::baselines

#endif // GCD2_BASELINES_FRAMEWORKS_H
