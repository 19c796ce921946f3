/**
 * @file
 * Results of a timed (cycle-accounted) execution, shared by the reference
 * timing interpreter (timing_sim.h) and the pre-decoded engine
 * (decoded.h). Both engines must fill every field identically -- the
 * differential tests compare the structs member for member.
 */
#ifndef GCD2_DSP_TIMING_STATS_H
#define GCD2_DSP_TIMING_STATS_H

#include <cstdint>

#include "dsp/isa.h"

namespace gcd2::dsp {

/** Results of a timed execution. */
struct TimingStats
{
    uint64_t cycles = 0;
    uint64_t packetsExecuted = 0;
    uint64_t instructionsExecuted = 0;
    uint64_t stallCycles = 0;
    uint64_t bytesLoaded = 0;
    uint64_t bytesStored = 0;

    /** Fraction of issue capacity used: insts / (4 slots x packets). */
    double
    slotUtilization() const
    {
        return packetsExecuted == 0
                   ? 0.0
                   : static_cast<double>(instructionsExecuted) /
                         (static_cast<double>(kPacketSlots) *
                          static_cast<double>(packetsExecuted));
    }

    /** Memory traffic per cycle in bytes (relative bandwidth). */
    double
    memoryBandwidth() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(bytesLoaded + bytesStored) /
                                 static_cast<double>(cycles);
    }
};

} // namespace gcd2::dsp

#endif // GCD2_DSP_TIMING_STATS_H
