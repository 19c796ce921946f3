/**
 * @file
 * The single source of truth for packed-program invariants.
 *
 * Three consumers run the one check table below through a sink that
 * decides policy (panic on first violation vs. collect structured
 * diagnostics): dsp::validatePackedProgram (panicking, tests and debug
 * simulator paths), analysis::checkSchedule (collecting, the
 * served-schedule gate), and the decode-time guards in dsp/decoded.cc.
 * A new invariant added to the table reaches all three.
 *
 * Checks are split by depth: Structure checks are linear scans safe (and
 * necessary) before any code indexes packets -- every instruction in
 * exactly one packet, indices in range, packet sizes, label mapping.
 * Full adds the one packet-legality scan, quadratic per packet: slot
 * feasibility, no hard dependency inside a packet, and every co-packed
 * pair's stall claim (dsp::CopackModel, what the packer charges) equal
 * to the soft penalty dsp::classifyDependency derives.
 */
#ifndef GCD2_DSP_SCHEDULE_CHECKS_H
#define GCD2_DSP_SCHEDULE_CHECKS_H

#include <functional>
#include <string>

#include "common/diag.h"
#include "dsp/packet.h"

namespace gcd2::dsp {

/** How much of the invariant table to run. */
enum class CheckDepth : uint8_t
{
    Structure, ///< linear shape checks (safe before decoding/indexing)
    Full,      ///< Structure plus the packet-legality scan
};

/**
 * Violation callback: stable code, anchor instruction index (-1 = whole
 * artifact), human-readable message. A sink that throws stops the run at
 * the first violation; a collecting sink sees every violation.
 */
using CheckSink = std::function<void(
    common::DiagCode code, int64_t node, const std::string &message)>;

/**
 * Run every check at or below @p depth against @p packed, reporting each
 * violation through @p sink. Packet-local Full checks are skipped for
 * packets whose instruction indices are out of range (reported as
 * SchedBadInstIndex instead). Returns the number of violations reported.
 */
size_t runScheduleChecks(const PackedProgram &packed, CheckDepth depth,
                         const CheckSink &sink);

} // namespace gcd2::dsp

#endif // GCD2_DSP_SCHEDULE_CHECKS_H
