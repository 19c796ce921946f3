/**
 * @file
 * Redundant-load analyzer (see analysis/lint.h).
 *
 * A load whose symbolic address value-numbers equal to an earlier load
 * or store in the same block -- same value-flow address, same access
 * width, no possibly-clobbering store in between, and the earlier
 * access's register (the load's destination, the store's data) not
 * written since -- re-reads bytes whose value the program still holds in
 * that register. That is never a correctness problem, so the finding is
 * a Warning (LintRedundantLoad): a code-quality signal for the kernel
 * generators. A reload after the register was reused (a spill stage
 * cycling through several spilled values) is not one.
 *
 * Availability is deliberately block-local (a prior same-block access
 * dominates in scheduled order; no cross-block dominance machinery
 * needed) and invalidation is conservative: an intervening store kills
 * every available address it cannot be proven disjoint from -- proven
 * means same affine root with statically disjoint constant-distance
 * intervals. Stores with top addresses kill everything.
 */
#include <array>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "dsp/deps.h"

namespace gcd2::analysis {

using common::Diag;
using common::DiagCode;
using common::DiagSeverity;

namespace {

/** One available memory value: the bytes at `addr` were loaded or
 *  stored by instruction `inst` and not clobbered since. */
struct AvailSlot
{
    size_t inst = 0;
    VfValue addr;
    int64_t bytes = 0;
    int holder = -1;       ///< register uid holding the bytes
    uint32_t written = 0;  ///< writes of holder when the bytes arrived
};

/** Constant-distance disjointness: only same-root, same-term-shape
 *  addresses keep a provable distance. */
bool
provablyDisjoint(const VfValue &a, int64_t aBytes, const VfValue &b,
                 int64_t bBytes)
{
    if (!a.sameShape(b))
        return false;
    const __int128 a0 = a.offset;
    const __int128 b0 = b.offset;
    return a0 + aBytes <= b0 || b0 + bBytes <= a0;
}

} // namespace

size_t
analyzeRedundantLoads(const BlockGraph &graph, const ValueFlow &flow,
                      std::vector<Diag> &diags)
{
    const dsp::Program &prog = *graph.program;
    size_t findings = 0;

    for (size_t b = 0; b < graph.numBlocks(); ++b) {
        if (!graph.reachable[b])
            continue;
        VfWalker walker(graph, flow, static_cast<int>(b));
        std::vector<AvailSlot> avail;
        // Writes per register uid so far: a slot still holds its bytes
        // while its holder's count is unchanged.
        std::array<uint32_t, dsp::kNumScalarRegs + dsp::kNumVectorRegs>
            writes{};
        const auto held = [&writes](const AvailSlot &slot) {
            return slot.holder < 0 ||
                   writes[static_cast<size_t>(slot.holder)] == slot.written;
        };

        for (size_t i : graph.scheduled[b]) {
            const dsp::Instruction &inst = prog.code[i];
            const int bytes = dsp::memAccessBytes(inst);
            const bool access =
                bytes > 0 && inst.src[0].cls == dsp::RegClass::Scalar;
            const bool isStore = inst.info().mem == dsp::MemKind::Store;
            VfValue addr;
            if (access) {
                addr = walker.eval(inst.src[0]).plus(inst.imm);
                if (!isStore && addr.isAffine()) {
                    for (const AvailSlot &slot : avail) {
                        if (slot.addr == addr && slot.bytes == bytes &&
                            held(slot)) {
                            ++findings;
                            diags.push_back(Diag{
                                DiagSeverity::Warning, "lint",
                                static_cast<int64_t>(i),
                                "load '" + inst.toString() +
                                    "' re-reads bytes made available "
                                    "by '" +
                                    prog.code[slot.inst].toString() +
                                    "' at address " + addr.toString(),
                                DiagCode::LintRedundantLoad});
                            break;
                        }
                    }
                }
                if (isStore) {
                    // Kill everything the store may touch.
                    if (!addr.isAffine()) {
                        avail.clear();
                    } else {
                        std::vector<AvailSlot> kept;
                        for (AvailSlot &slot : avail)
                            if (provablyDisjoint(slot.addr, slot.bytes,
                                                 addr, bytes))
                                kept.push_back(std::move(slot));
                        avail = std::move(kept);
                    }
                }
            }
            // A register written here no longer holds its bytes.
            const dsp::RegList written = dsp::regWrites(inst);
            for (const int uid : written)
                ++writes[static_cast<size_t>(uid)];
            if (access && addr.isAffine()) {
                const int holder = isStore ? dsp::regUid(inst.src[1])
                                   : written.empty() ? -1
                                                     : written[0];
                avail.push_back(AvailSlot{
                    i, addr, bytes, holder,
                    holder < 0 ? 0 : writes[static_cast<size_t>(holder)]});
            }
            walker.step(i);
        }
    }
    return findings;
}

} // namespace gcd2::analysis
