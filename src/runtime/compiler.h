/**
 * @file
 * End-to-end compilation driver (the system workflow of Fig. 6).
 *
 * Pipeline: computational-graph optimizations (constant folding,
 * activation fusion, DCE) -> global SIMD layout/instruction selection ->
 * other optimizations (division-to-LUT) -> kernel generation with the
 * chosen unrolling -> VLIW packing -> cycle accounting on the DSP
 * simulator. The result aggregates per-operator and per-edge (layout
 * transformation) statistics into the model's latency, utilization, and
 * memory-bandwidth figures.
 *
 * The stages run as named, individually timed passes inside a
 * CompilationSession (see runtime/pipeline.h); every CompiledModel
 * carries the session's PipelineReport so callers -- tests, benches,
 * services -- can see where compile time went.
 */
#ifndef GCD2_RUNTIME_COMPILER_H
#define GCD2_RUNTIME_COMPILER_H

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/diag.h"
#include "dsp/packet.h"
#include "select/selector.h"

namespace gcd2::runtime {

/** Timing + telemetry of one named pipeline pass. */
struct PassReport
{
    std::string name;
    double seconds = 0.0;
    /** Pass-specific counters (nodes costed, kernels simulated, ...). */
    std::vector<std::pair<std::string, uint64_t>> counters;

    /** Counter value by name; 0 when the pass never recorded it. */
    uint64_t counter(std::string_view key) const;
};

/** Structured account of one compilation, pass by pass. */
struct PipelineReport
{
    std::vector<PassReport> passes;
    double totalSeconds = 0.0;
    /** Worker threads the session used (1 = fully serial). */
    int threadsUsed = 1;
    /**
     * Everything the pipeline chose to report instead of throwing:
     * fallback decisions, selector cross-checks, audit findings. A compile
     * with Error-severity entries was served but is suspect.
     */
    std::vector<common::Diag> diagnostics;
    /** Selection strategy that produced the served selection ("gcd2"
     *  when it beat a heuristic pbqp solve in the cross-check). */
    std::string servedSelection;
    /** Fallback-ladder rung that served (0 = the requested rung). */
    int selectionRung = 0;

    /** Pass by name; nullptr when no such pass ran. */
    const PassReport *pass(std::string_view name) const;

    /** Diagnostics recorded at the given severity. */
    size_t diagnosticCount(common::DiagSeverity severity) const;

    /** Multi-line human-readable breakdown (bench/debug output). */
    std::string toString() const;
};

/**
 * Simulated-cycle to wall-clock conversion.
 *
 * The simulator models a 1024-bit, two-multiply-pipe HVX subset with
 * non-overlapping packets (the paper's footnote-5 timing abstraction).
 * Real Hexagon 698 adds packet pipelining, pair-register-wide multiply
 * variants, and a 1.4+ GHz clock, which scale absolute throughput by a
 * near-constant factor. The factor below is calibrated once so that the
 * GCD2-compiled ResNet-50 lands at the paper's 7.1 ms (Table IV); it is
 * applied uniformly to every configuration, so all relative results
 * (speedups, ablations, crossovers) are untouched by it.
 */
inline constexpr double kEffectiveCyclesPerMs = 3.26e6;

/** How the per-operator plans are chosen. */
enum class SelectionMode : uint8_t
{
    Gcd2,          ///< partitioned branch-and-bound (the paper's GCD2(13))
    Local,         ///< per-operator local optimum (Fig. 10 baseline)
    GlobalOptimal, ///< exhaustive (small graphs only)
    Uniform,       ///< one fixed scheme everywhere (TFLite/SNPE-style)
    // Appended last so the values above (baked into service compile
    // fingerprints) stay stable.
    Pbqp, ///< polynomial PBQP reduction (R0/R1/R2 + heuristic RN); the
          ///< default. A heuristic (RN) solve is cross-checked against
          ///< gcd2 and the cheaper selection serves.
};

/** Ladder-rung name of a selection mode ("gcd2", "local", ...). */
const char *selectionModeName(SelectionMode mode);

/** How much post-compile auditing the pipeline runs. */
enum class AuditMode : uint8_t
{
    Off,   ///< no audit pass (trusted caller, fastest compile)
    Cheap, ///< structural + cost-honesty checks and the schedule check
           ///< table (packet legality, delay claims), always affordable
    Deep,  ///< Cheap plus exact re-solves and the whole-program dataflow
           ///< lint (use-before-def, dead stores, noalias audit); the
           ///< audit pass reports per-analyzer "lint-*-findings" counters
};

/** Full compile-time configuration. */
struct CompileOptions
{
    select::CostModelOptions cost{};
    SelectionMode selection = SelectionMode::Pbqp;
    int maxPartition = 13;
    /** Scheme used by SelectionMode::Uniform. */
    kernels::MatMulScheme uniformScheme = kernels::MatMulScheme::Vrmpy;
    /** Added per-operator dispatch overhead (framework runtimes). */
    uint64_t perOpOverheadCycles = 0;
    /**
     * Library-style kernel boundaries (Hexagon NN behavior): every
     * matmul-family kernel receives row-major tensors and repacks
     * internally on entry/exit, so no layout survives between operators.
     * This is the per-call cost that GCD2's global layout selection
     * eliminates.
     */
    bool libraryStyleBoundaries = false;
    /**
     * Compile-time worker threads for plan costing, partition solving,
     * and per-node kernel accounting. 0 = hardware concurrency, 1 =
     * fully serial. Results are bit-identical at every thread count;
     * only wall-clock compile time changes.
     */
    int numThreads = 0;
    /**
     * Layout-transform elimination (SmartMem-style rewrite group inside
     * the graph-optimize pass): cancel inverse Reshape/Transpose pairs,
     * sink transforms below layout-agnostic operators, and fuse
     * surviving single-consumer transforms into their producer kernels
     * as epilogue attributes -- the plan table then prices the reduced
     * transform-edge matrix. Runs on the session-private graph copy
     * only. Library-style baselines disable
     * it: their runtimes execute every transform as written.
     */
    bool eliminateLayoutTransforms = true;
    /**
     * DSP-friendly extended operator fusion (the paper's future-work
     * extension): fold single-consumer LUT nonlinearities and residual
     * Adds into the producing matmul-family kernel's epilogue.
     */
    bool enableExtendedFusion = false;
    /**
     * Optional cross-compile kernel-simulation cache. When several
     * models (or repeated compiles of one model) are compiled with the
     * same kernel-level options, sharing a cache skips re-simulating
     * identical canonical kernels. Null = private per-compile cache.
     */
    std::shared_ptr<select::CostCache> costCache;
    /**
     * Post-compile auditing level (see AuditMode). The default (Cheap)
     * escalates to Deep when the GCD2_DEEP_AUDIT environment variable
     * is set non-zero (CI sanitizer jobs); Off and explicit Deep are
     * always respected.
     */
    AuditMode audit = AuditMode::Cheap;
    /**
     * Test-only fault injection: invoked on the *requested* selection
     * rung's result (never on fallback rungs). Throwing FatalError from
     * here exercises the fallback ladder; mutating the result exercises
     * the auditors. Null in production.
     */
    std::function<void(select::SelectorResult &)> testSelectionFault;
    /**
     * Test-only fault injection: invoked on the first schedule retained
     * by kernel generation (on a private copy -- the PackCache is never
     * corrupted). Mutating the program exercises the schedule auditor
     * against the *served* schedules. Null in production.
     */
    std::function<void(dsp::PackedProgram &)> testScheduleFault;
};

/** Peak multiply-accumulates per cycle of the simulated DSP (two
 *  multiply pipes x 128 MACs). */
inline constexpr double kPeakMacsPerCycle = 256.0;

/** A compiled model with its aggregated execution statistics. */
struct CompiledModel
{
    /** A schedule the compile serves for one live operator: the packed
     *  program of the canonical kernel the cost model simulated when
     *  costing the node's chosen plan (shared with the process-wide
     *  vliw::PackCache). Retained so the audit pass audits what was
     *  served, not a re-pack. */
    struct ServedSchedule
    {
        graph::NodeId node = 0;
        std::shared_ptr<const dsp::PackedProgram> program;
    };

    select::Selection selection;
    select::SelectorResult selector;
    select::NodeExecStats totals;       ///< kernels + transforms + overhead
    select::NodeExecStats transformOnly; ///< layout transformations alone
    int64_t liveOperators = 0;
    int64_t totalMacs = 0;
    /** Tensor bytes the graph's operators must consume + produce. */
    int64_t demandBytes = 0;
    /** Per-node kernel cycles (indexed by NodeId; 0 for dead nodes). */
    std::vector<uint64_t> nodeCycles;
    /** Per-pass timing and telemetry of the compilation itself. */
    PipelineReport report;
    /** Schedules served for the live operators (one per node with a
     *  kernel program; analytic operators contribute none). Distinct
     *  nodes often share one program via the PackCache. */
    std::vector<ServedSchedule> schedules;

    /** The k most expensive operators (id, cycles), descending. */
    std::vector<std::pair<graph::NodeId, uint64_t>>
    topOperators(size_t k) const
    {
        std::vector<std::pair<graph::NodeId, uint64_t>> all;
        for (size_t i = 0; i < nodeCycles.size(); ++i)
            if (nodeCycles[i] > 0)
                all.emplace_back(static_cast<graph::NodeId>(i),
                                 nodeCycles[i]);
        std::sort(all.begin(), all.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        if (all.size() > k)
            all.resize(k);
        return all;
    }

    double
    latencyMs() const
    {
        return static_cast<double>(totals.cycles) / kEffectiveCyclesPerMs;
    }

    /**
     * DSP compute utilization: achieved multiply-accumulate throughput
     * as a fraction of the machine's peak (the quantity behind Fig. 8's
     * "DSP utilization" -- how much of the DSP's compute the compiled
     * binary actually exploits).
     */
    double
    utilization() const
    {
        return totals.cycles == 0
                   ? 0.0
                   : static_cast<double>(totalMacs) /
                         (kPeakMacsPerCycle *
                          static_cast<double>(totals.cycles));
    }

    /**
     * Achieved useful memory bandwidth in bytes per cycle: the tensor
     * traffic the graph *demands* (operator inputs + outputs, weights
     * included once) divided by execution time. Redundant re-reads from
     * small tiling and layout repacking do not count as achievement --
     * this is Fig. 8's "memory bandwidth": how fast the compiled binary
     * streams the model's data through the DSP.
     */
    double
    bandwidth() const
    {
        return totals.cycles == 0
                   ? 0.0
                   : static_cast<double>(demandBytes) /
                         static_cast<double>(totals.cycles);
    }
};

/** Where a compiled model's depthwise layers stand. */
struct DepthwiseProfile
{
    /** Depthwise kernel cycles over the model's total cycles. */
    double cycleShare = 0.0;
    /** kernels::DepthwiseConfig::laneFill of each depthwise node,
     *  weighted by its cycles (0 without depthwise layers). */
    double laneFill = 0.0;
};

/** The depthwise profile of @p model, compiled from @p graph. */
DepthwiseProfile depthwiseProfile(const graph::Graph &graph,
                                  const CompiledModel &model);

/** Compile a graph under the given options. */
CompiledModel compile(const graph::Graph &graph,
                      const CompileOptions &options = {});

} // namespace gcd2::runtime

#endif // GCD2_RUNTIME_COMPILER_H
