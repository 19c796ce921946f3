#include "dsp/packet.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/logging.h"
#include "dsp/schedule_checks.h"

namespace gcd2::dsp {

namespace {

constexpr size_t kSlots = static_cast<size_t>(kPacketSlots);

/** Backtracking assignment of masks[next..count) to distinct free slots. */
bool
assignSlots(const uint8_t *masks, size_t count, size_t next, uint8_t used)
{
    if (next == count)
        return true;
    for (unsigned open = masks[next] & ~used & 0xffu; open != 0;
         open &= open - 1) {
        const auto bit = static_cast<uint8_t>(open & (0u - open));
        if (assignSlots(masks, count, next + 1, used | bit))
            return true;
    }
    return false;
}

} // namespace

SlotNeed
slotNeed(const Instruction &inst)
{
    const OpcodeInfo &info = inst.info();
    return {info.slotMask, static_cast<uint8_t>(info.multUnits),
            inst.isBranch()};
}

bool
slotsFeasible(std::span<const SlotNeed> needs)
{
    if (needs.size() > kSlots)
        return false;

    std::array<uint8_t, kSlots> masks{};
    int branches = 0;
    int multUnits = 0;
    for (size_t k = 0; k < needs.size(); ++k) {
        masks[k] = needs[k].slotMask;
        branches += needs[k].branch ? 1 : 0;
        multUnits += needs[k].multUnits;
    }
    if (branches > 1)
        return false;
    // Two multiply pipelines per packet; double-wide multiplies (vmpa,
    // vtmpy) consume both.
    if (multUnits > 2)
        return false;
    // At most four instructions, so the search visits at most 4! paths.
    return assignSlots(masks.data(), needs.size(), 0, 0);
}

bool
slotsFeasible(const Program &prog, std::span<const size_t> insts)
{
    if (insts.size() > kSlots)
        return false;

    std::array<SlotNeed, kSlots> needs{};
    for (size_t k = 0; k < insts.size(); ++k) {
        GCD2_ASSERT(insts[k] < prog.code.size(),
                    "instruction index out of range");
        needs[k] = slotNeed(prog.code[insts[k]]);
    }
    return slotsFeasible({needs.data(), insts.size()});
}

bool
slotsFeasibleWith(const Program &prog, std::span<const size_t> insts,
                  size_t candidate)
{
    if (insts.size() >= kSlots)
        return false;
    std::array<size_t, kSlots> with{};
    std::copy(insts.begin(), insts.end(), with.begin());
    with[insts.size()] = candidate;
    return slotsFeasible(prog, {with.data(), insts.size() + 1});
}

std::string
PackedProgram::toString() const
{
    std::ostringstream oss;
    for (size_t p = 0; p < packets.size(); ++p) {
        for (size_t l = 0; l < labelPacket.size(); ++l)
            if (labelPacket[l] == p)
                oss << "L" << l << ":\n";
        oss << "  {";
        for (size_t k = 0; k < packets[p].insts.size(); ++k) {
            if (k)
                oss << " ; ";
            oss << program.code[packets[p].insts[k]].toString();
        }
        oss << "}\n";
    }
    return oss.str();
}

void
validatePackedProgram(const PackedProgram &packed)
{
    // The invariants live in the shared check table (schedule_checks.h);
    // this consumer's policy is panic-on-first-violation.
    runScheduleChecks(
        packed, CheckDepth::Full,
        [](common::DiagCode code, int64_t node, const std::string &msg) {
            GCD2_PANIC("packed program invariant '"
                       << common::diagCodeName(code) << "' violated"
                       << (node >= 0 ? " at instruction " +
                                           std::to_string(node)
                                     : std::string())
                       << ": " << msg);
        });
}

} // namespace gcd2::dsp
