/**
 * @file
 * Cycle-accounting simulator for packed (VLIW) programs.
 *
 * Timing model (paper Section IV-C and footnote 4, plus pipelining):
 *  - Instructions occupy a short pipeline (typically read / execute /
 *    write, one cycle each); OpcodeInfo::latency is the occupancy.
 *  - All instructions of a packet issue together; packets issue at most
 *    one per cycle and *interlock*: a packet stalls until every source
 *    register written by an earlier packet has completed write-back.
 *  - A *soft* dependency inside a packet delays the consumer's pipeline
 *    by the dependency's penalty. Both rules together reproduce Fig. 4
 *    exactly: two 3-cycle instructions with a load-use soft dependency
 *    cost 4 cycles co-packed and 6 cycles split across packets.
 *
 * The simulator simultaneously executes functional semantics (through
 * FunctionalSimulator::execute) so every timing run is also a correctness
 * run, and gathers the utilization / memory-bandwidth counters used by the
 * Fig. 8 and Fig. 9 experiments.
 */
#ifndef GCD2_DSP_TIMING_SIM_H
#define GCD2_DSP_TIMING_SIM_H

#include <cstdint>

#include "dsp/alias.h"
#include "dsp/functional_sim.h"
#include "dsp/packet.h"
#include "dsp/timing_stats.h"

namespace gcd2::dsp {

/**
 * Executes a PackedProgram against a Memory, producing both the final
 * architectural state (via the embedded functional simulator) and timing
 * statistics.
 */
class TimingSimulator
{
  public:
    explicit TimingSimulator(Memory &mem) : funcSim_(mem) {}

    RegisterFile &regs() { return funcSim_.regs(); }

    /** Cumulative architectural counters (differential tests). */
    const ExecStats &execStats() const { return funcSim_.stats(); }

    /**
     * Run the packed program to completion through the pre-decoded engine
     * (decoded.h): the program is fingerprinted, decoded once via the
     * process-wide DecodeCache, and executed with the register-mask
     * scoreboard and table dispatch. Bit-identical (architectural state
     * and TimingStats) to runReference for every program -- enforced by
     * the differential tests in tests/dsp/decoded_engine_test.cc.
     *
     * @param validate run full invariant validation first (tests).
     * @param maxPackets guard against runaway loops.
     */
    TimingStats run(const PackedProgram &packed, bool validate = false,
                    uint64_t maxPackets = 1ULL << 32);

    /**
     * Reference implementation: the original interpreting loop, which
     * re-derives register sets, intra-packet delays, and label targets
     * per dynamic packet. Kept as the semantic baseline the decoded
     * engine is differentially tested against.
     */
    TimingStats runReference(const PackedProgram &packed,
                             bool validate = false,
                             uint64_t maxPackets = 1ULL << 32);

    /**
     * Standalone cost of one packet (intra-packet soft-dependency stalls
     * only; no cross-packet interlocks), used by the SDA scorer's
     * penalty term p(i, packet). Also reports the stall portion through
     * @p stallOut when non-null.
     */
    static uint64_t packetCost(const Program &prog, const Packet &packet,
                               const AliasAnalysis &alias,
                               uint64_t *stallOut = nullptr);

  private:
    FunctionalSimulator funcSim_;
};

} // namespace gcd2::dsp

#endif // GCD2_DSP_TIMING_SIM_H
