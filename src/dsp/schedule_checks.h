/**
 * @file
 * The single source of truth for packed-program invariants.
 *
 * Three consumers used to re-implement the same checks independently --
 * dsp::validatePackedProgram (panicking, tests and debug simulator
 * paths), vliw::auditSchedule (diagnostic-collecting, the pipeline audit
 * pass), and the decode-time guards in dsp/decoded.cc -- so a new
 * invariant could be added to one and silently missed by the others.
 * They now all run the one check table below through a sink that decides
 * policy (panic on first violation vs. collect structured diagnostics).
 *
 * Checks are split by depth: Structure checks are linear scans safe (and
 * necessary) before any code indexes packets -- every instruction in
 * exactly one packet, indices in range, packet sizes, label mapping.
 * Full adds the quadratic-per-packet legality checks: slot/resource
 * feasibility and intra-packet hard-dependency freedom.
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
    Full,      ///< Structure plus slot feasibility and dependence legality
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
