/**
 * @file
 * VLIW instruction packing algorithms.
 *
 * The centerpiece is the paper's Soft-Dependencies-Aware (SDA) packer
 * (Algorithm 1): bottom-up, critical-path seeded, with the Eq. 4 scoring
 * function and a stall penalty for co-packing across soft dependencies.
 * The ablations from Section V-C (soft_to_hard, soft_to_none) and the
 * baseline packetizers used to model Halide/TVM/RAKE back-ends (in-order
 * and top-down list scheduling, both soft-dependency-blind) share the same
 * entry point.
 *
 * Two implementations share that entry point's semantics. pack() (defined
 * in pack_fast.cc) runs on FastIdg -- chain-built CSR dependency graph,
 * incremental free set and critical-path cache, allocation-free pair
 * classification and slot checks -- and is the production path.
 * packReference() is the original direct transcription kept as the
 * bit-identity oracle: per block it pays O(n^2) classifyDependency calls
 * to build the Idg, a full O(n + e) reverse sweep per packet for
 * criticalPath(), and O(n * |packet|) free-set rescans, so it is
 * cubic-ish in block size. pack() builds its graph in near-linear time,
 * but neither engine is near-linear overall: Algorithm 1 scores every
 * free instruction for every slot it fills (O(n * free)), and the repair
 * pass re-costs the whole block, O(n), for each legal, slot-feasible move
 * it tries -- up to six rounds of O(n * L) moves, where L is the length
 * of a node's legal packet interval. On the zoo's kernel blocks (10-140
 * instructions) the repair pass is most of pack()'s time. Differential
 * tests (tests/vliw/pack_differential_test.cc) pin pack() ==
 * packReference() across all five policies.
 */
#ifndef GCD2_VLIW_PACKER_H
#define GCD2_VLIW_PACKER_H

#include "dsp/packet.h"
#include "vliw/idg.h"

namespace gcd2::vliw {

/** Which packing algorithm to run. */
enum class PackPolicy : uint8_t
{
    Sda,        ///< GCD2: soft-dependency-aware (Algorithm 1)
    SoftToHard, ///< SDA structure, soft deps may never share a packet
    SoftToNone, ///< SDA structure, soft-dep stall penalty ignored
    InOrder,    ///< greedy in-order packetizer (Halide-style back-end)
    ListSched,  ///< top-down critical-path list scheduler (TVM/RAKE-style)
};

/** Tunables of the SDA scoring function (Eq. 4). */
struct PackOptions
{
    PackPolicy policy = PackPolicy::Sda;
    /** Weight `w`: order/pred importance vs. latency similarity. */
    double w = 0.6;
    /** Scale applied to the soft-dependency stall penalty `p`. */
    double penaltyScale = 8.0;
};

/** Pack a program into VLIW packets under the given policy. */
dsp::PackedProgram pack(const dsp::Program &prog,
                        const PackOptions &opts = {});

/**
 * The retained reference packer: bit-identical output to pack(), built on
 * the all-pairs Idg. Slow on large blocks; exists as the differential
 * oracle for tests and the baseline for bench/pack_throughput.
 */
dsp::PackedProgram packReference(const dsp::Program &prog,
                                 const PackOptions &opts = {});

/**
 * Believed pipelined cost of a block schedule (packets of IDG node ids)
 * under @p belief's model of soft dependencies. Exposed so tests and the
 * audit tooling can judge repair passes directly.
 */
uint64_t pipelinedBlockCost(const dsp::Program &prog,
                            const dsp::AliasAnalysis &alias, const Idg &idg,
                            const std::vector<std::vector<size_t>> &packets,
                            SoftDepPolicy belief = SoftDepPolicy::Aware);

/**
 * Post-scheduling repair: greedily move single instructions between
 * packets (or drop emptied packets) while each move is dependence-legal,
 * slot-feasible, and lowers pipelinedBlockCost. Exposed for directed
 * tests; pack() applies it to every candidate schedule internally.
 */
void improveBlockSchedule(const dsp::Program &prog,
                          const dsp::AliasAnalysis &alias, const Idg &idg,
                          std::vector<std::vector<size_t>> &packets,
                          SoftDepPolicy belief = SoftDepPolicy::Aware);

/** Human-readable policy name (bench output). */
const char *packPolicyName(PackPolicy policy);

} // namespace gcd2::vliw

#endif // GCD2_VLIW_PACKER_H
