#include "dsp/schedule_checks.h"

#include <sstream>

#include "dsp/alias.h"
#include "dsp/deps.h"

namespace gcd2::dsp {

using common::DiagCode;

namespace {

/** Shared state threaded through the table rows. */
struct CheckCtx
{
    const PackedProgram &packed;
    CheckDepth depth;
    const CheckSink &sink;
    size_t violations = 0;
    /** Per-packet "all instruction indices in range" (gates Full rows). */
    std::vector<bool> packetValid;

    void
    fail(DiagCode code, int64_t node, const std::string &message)
    {
        ++violations;
        sink(code, node, message);
    }
};

void
checkPacketShape(CheckCtx &ctx)
{
    const PackedProgram &packed = ctx.packed;
    const size_t codeSize = packed.program.code.size();
    ctx.packetValid.assign(packed.packets.size(), true);
    for (size_t p = 0; p < packed.packets.size(); ++p) {
        const Packet &packet = packed.packets[p];
        if (packet.insts.empty()) {
            ctx.fail(DiagCode::SchedEmptyPacket, -1,
                     "packet " + std::to_string(p) + " is empty");
            continue;
        }
        if (packet.insts.size() > static_cast<size_t>(kPacketSlots))
            ctx.fail(DiagCode::SchedOversizedPacket, -1,
                     "packet " + std::to_string(p) + " holds " +
                         std::to_string(packet.insts.size()) +
                         " instructions (max " +
                         std::to_string(kPacketSlots) + ")");
        for (size_t idx : packet.insts)
            if (idx >= codeSize) {
                ctx.fail(DiagCode::SchedBadInstIndex,
                         static_cast<int64_t>(idx),
                         "packet " + std::to_string(p) +
                             " references out-of-range instruction");
                ctx.packetValid[p] = false;
            }
    }
}

void
checkCoverage(CheckCtx &ctx)
{
    const PackedProgram &packed = ctx.packed;
    std::vector<int> seen(packed.program.code.size(), 0);
    for (size_t p = 0; p < packed.packets.size(); ++p) {
        if (!ctx.packetValid[p])
            continue;
        for (size_t idx : packed.packets[p].insts)
            ++seen[idx];
    }
    for (size_t i = 0; i < seen.size(); ++i)
        if (seen[i] != 1)
            ctx.fail(DiagCode::SchedInstCoverage, static_cast<int64_t>(i),
                     "instruction appears " + std::to_string(seen[i]) +
                         " times in packets (" +
                         packed.program.code[i].toString() + ")");
}

void
checkPacketOrder(CheckCtx &ctx)
{
    const PackedProgram &packed = ctx.packed;
    for (size_t p = 0; p < packed.packets.size(); ++p) {
        if (!ctx.packetValid[p])
            continue;
        const Packet &packet = packed.packets[p];
        for (size_t k = 1; k < packet.insts.size(); ++k)
            if (packet.insts[k - 1] >= packet.insts[k])
                ctx.fail(DiagCode::SchedPacketOrder,
                         static_cast<int64_t>(packet.insts[k]),
                         "packet " + std::to_string(p) +
                             " members not in program order");
    }
}

void
checkLabels(CheckCtx &ctx)
{
    const PackedProgram &packed = ctx.packed;
    const Program &prog = packed.program;
    if (packed.labelPacket.size() != prog.labels.size()) {
        ctx.fail(DiagCode::SchedLabelMapSize, -1,
                 "labelPacket size " +
                     std::to_string(packed.labelPacket.size()) +
                     " != label count " +
                     std::to_string(prog.labels.size()));
        return; // per-label checks are meaningless on a mismatched map
    }
    for (size_t l = 0; l < prog.labels.size(); ++l) {
        const size_t packetIdx = packed.labelPacket[l];
        // One past the last packet is legal: a branch to program end.
        if (packetIdx > packed.packets.size()) {
            ctx.fail(DiagCode::SchedLabelPastEnd, -1,
                     "label L" + std::to_string(l) +
                         " maps past the last packet");
            continue;
        }
        // Everything belonging to the labelled region must be scheduled
        // no earlier than the label's packet.
        const size_t target = prog.labels[l];
        for (size_t p = 0; p < packetIdx; ++p) {
            if (!ctx.packetValid[p])
                continue;
            for (size_t idx : packed.packets[p].insts)
                if (idx >= target)
                    ctx.fail(DiagCode::SchedLabelBoundary,
                             static_cast<int64_t>(idx),
                             "instruction scheduled before label L" +
                                 std::to_string(l) +
                                 " but belongs after it");
        }
    }
}

void
checkSlots(CheckCtx &ctx)
{
    const PackedProgram &packed = ctx.packed;
    for (size_t p = 0; p < packed.packets.size(); ++p) {
        if (!ctx.packetValid[p] || packed.packets[p].insts.empty())
            continue;
        if (!slotsFeasible(packed.program, packed.packets[p].insts))
            ctx.fail(DiagCode::SchedSlotInfeasible, -1,
                     "packet " + std::to_string(p) +
                         " violates slot constraints");
    }
}

void
checkHardDeps(CheckCtx &ctx)
{
    const PackedProgram &packed = ctx.packed;
    const Program &prog = packed.program;
    const AliasAnalysis alias(prog);
    for (size_t p = 0; p < packed.packets.size(); ++p) {
        if (!ctx.packetValid[p])
            continue;
        const Packet &packet = packed.packets[p];
        for (size_t k = 0; k < packet.insts.size(); ++k) {
            const size_t idx = packet.insts[k];
            for (size_t m = 0; m < k; ++m) {
                const size_t earlier = packet.insts[m];
                const Dependency dep = classifyDependency(
                    prog.code[earlier], prog.code[idx],
                    alias.mayAlias(earlier, idx));
                if (dep.kind == DepKind::Hard) {
                    std::ostringstream msg;
                    msg << "hard dependency inside packet " << p << ": "
                        << prog.code[earlier].toString() << " -> "
                        << prog.code[idx].toString();
                    ctx.fail(DiagCode::SchedHardDepInPacket,
                             static_cast<int64_t>(idx), msg.str());
                }
            }
        }
    }
}

struct CheckRow
{
    CheckDepth depth;
    void (*run)(CheckCtx &);
};

/**
 * The one invariant table. Add new invariants HERE (and only here): all
 * three consumers -- validatePackedProgram, vliw::auditSchedule, and the
 * decode-time guard -- pick the row up automatically. Evaluation order
 * matters: checkPacketShape fills packetValid, which gates every later
 * row's packet access.
 */
const CheckRow kChecks[] = {
    {CheckDepth::Structure, checkPacketShape},
    {CheckDepth::Structure, checkCoverage},
    {CheckDepth::Structure, checkPacketOrder},
    {CheckDepth::Structure, checkLabels},
    {CheckDepth::Full, checkSlots},
    {CheckDepth::Full, checkHardDeps},
};

} // namespace

size_t
runScheduleChecks(const PackedProgram &packed, CheckDepth depth,
                  const CheckSink &sink)
{
    CheckCtx ctx{packed, depth, sink, 0, {}};
    for (const CheckRow &row : kChecks) {
        if (depth == CheckDepth::Structure &&
            row.depth == CheckDepth::Full)
            continue;
        row.run(ctx);
    }
    return ctx.violations;
}

} // namespace gcd2::dsp
