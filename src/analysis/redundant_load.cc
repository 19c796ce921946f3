/**
 * @file
 * Redundant-load analyzer (see analysis/lint.h).
 *
 * A load whose symbolic address value-numbers equal to an earlier load
 * or store in the same block -- same value-flow address, same access
 * width, and no possibly-clobbering store in between -- re-reads bytes
 * whose value the program already holds in a register. That is never a
 * correctness problem, so the finding is a Warning
 * (LintRedundantLoad): a code-quality signal for the kernel generators.
 *
 * Availability is deliberately block-local (a prior same-block access
 * dominates in scheduled order; no cross-block dominance machinery
 * needed) and invalidation is conservative: an intervening store kills
 * every available address it cannot be proven disjoint from -- proven
 * means same affine root with statically disjoint constant-distance
 * intervals. Stores with top addresses kill everything.
 */
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

        for (size_t i : graph.scheduled[b]) {
            const dsp::Instruction &inst = prog.code[i];
            const int bytes = dsp::memAccessBytes(inst);
            if (bytes > 0 && inst.src[0].cls == dsp::RegClass::Scalar) {
                const VfValue addr =
                    walker.eval(inst.src[0]).plus(inst.imm);
                const bool isStore =
                    inst.info().mem == dsp::MemKind::Store;

                if (!isStore && addr.isAffine()) {
                    for (const AvailSlot &slot : avail) {
                        if (slot.addr == addr && slot.bytes == bytes) {
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
                if (addr.isAffine())
                    avail.push_back(AvailSlot{i, addr, bytes});
            }
            walker.step(i);
        }
    }
    return findings;
}

} // namespace gcd2::analysis
