/**
 * @file
 * VLIW packets, slot-assignment feasibility, and packed programs.
 *
 * A packet holds up to four instructions, each of which must be assignable
 * to a distinct slot allowed by its slot mask (this encodes all the
 * "limited number of slots for each type" constraints from the paper: one
 * store port, one shift unit, one permute unit, two multiply pipelines,
 * two memory slots). At most one branch per packet, and a taken branch
 * transfers control to the packet holding the target label.
 */
#ifndef GCD2_DSP_PACKET_H
#define GCD2_DSP_PACKET_H

#include <span>
#include <string>
#include <vector>

#include "dsp/isa.h"

namespace gcd2::dsp {

/** One VLIW packet: instruction indices into the owning program. */
struct Packet
{
    std::vector<size_t> insts;
};

/** The packet resources one instruction occupies. */
struct SlotNeed
{
    /** Bitmask of VLIW slots the instruction may issue in. */
    uint8_t slotMask = 0;
    /** Multiply pipelines consumed. */
    uint8_t multUnits = 0;
    bool branch = false;
};

/** The slot resources @p inst occupies. */
SlotNeed slotNeed(const Instruction &inst);

/**
 * Can instructions with the given needs legally share one packet,
 * considering only slot/resource constraints (dependence legality is the
 * packer's job)? Order-insensitive and allocation-free; the packer calls
 * this on per-node tables so its hot loops skip the opcode lookups.
 */
bool slotsFeasible(std::span<const SlotNeed> needs);

/** slotsFeasible() on instruction indices of @p prog. */
bool slotsFeasible(const Program &prog, std::span<const size_t> insts);

/** slotsFeasible() for @p insts plus one candidate, without copying. */
bool slotsFeasibleWith(const Program &prog, std::span<const size_t> insts,
                       size_t candidate);

/**
 * A program grouped into VLIW packets.
 *
 * Invariants (checked by validatePackedProgram):
 *  - every instruction index appears in exactly one packet;
 *  - packet membership is slot-feasible and free of intra-packet hard
 *    dependencies;
 *  - instructions within a packet are listed in increasing original
 *    program order (so in-order execution respects soft RAW/WAR);
 *  - each label maps to the packet that begins with its target region, so
 *    branches land on packet boundaries.
 */
struct PackedProgram
{
    Program program;
    std::vector<Packet> packets;
    /** labelPacket[l] = packet index that label l begins. */
    std::vector<size_t> labelPacket;

    std::string toString() const;
};

/**
 * Panics if the packed program violates any invariant listed above.
 * Used by tests and (in debug paths) by the timing simulator.
 */
void validatePackedProgram(const PackedProgram &packed);

} // namespace gcd2::dsp

#endif // GCD2_DSP_PACKET_H
