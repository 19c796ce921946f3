#include "dsp/alias.h"

#include <array>
#include <bit>

#include "common/logging.h"
#include "dsp/deps.h"

namespace gcd2::dsp {

namespace {

constexpr int kSegUnknown = -2;
constexpr int kSegData = -1;

/** Lattice join: Data is neutral (offsets), distinct segments clash. */
int
joinSeg(int a, int b)
{
    if (a == kSegUnknown || b == kSegUnknown)
        return kSegUnknown;
    if (a == kSegData)
        return b;
    if (b == kSegData)
        return a;
    return a == b ? a : kSegUnknown;
}

/**
 * Flow-insensitive per-register buffer segment: which noaliasRegs entry a
 * register's value (as a pointer) derives from. Sound under the
 * Program::noaliasRegs precondition (pointers derive only from the
 * declared registers; every other arithmetic operand is an offset).
 */
std::array<int, kNumScalarRegs>
computeSegments(const Program &prog)
{
    std::array<int, kNumScalarRegs> seg;
    seg.fill(kSegData);
    for (size_t s = 0; s < prog.noaliasRegs.size(); ++s)
        seg[static_cast<size_t>(prog.noaliasRegs[s])] =
            static_cast<int>(s);

    // A declared register that the program overwrites loses its seed: the
    // seed only describes the entry value.
    for (const Instruction &inst : prog.code)
        for (uint64_t w = regMasks(inst).writes & kScalarUidMask; w != 0;
             w &= w - 1) {
            const int uid = std::countr_zero(w);
            if (seg[uid] >= 0)
                seg[uid] = kSegUnknown;
        }

    // Iterate to a fixpoint (the lattice is tiny, two rounds suffice for
    // loop-carried copies; cap generously).
    for (int round = 0; round < 8; ++round) {
        bool changed = false;
        for (const Instruction &inst : prog.code) {
            if (!inst.dst[0].valid() ||
                inst.dst[0].cls != RegClass::Scalar)
                continue;
            const int d = inst.dst[0].idx;
            int value = kSegData;
            switch (inst.op) {
              case Opcode::MOVI:
              case Opcode::LOADB:
              case Opcode::LOADW:
              case Opcode::COMBINE4:
                value = kSegData; // constants and loaded data
                break;
              case Opcode::MOV:
              case Opcode::ADDI:
              case Opcode::SHL:
              case Opcode::SHRA:
                value = seg[inst.src[0].idx];
                break;
              default:
                // Binary arithmetic: join the scalar sources.
                value = kSegData;
                for (const Operand &src : inst.src)
                    if (src.valid() && src.cls == RegClass::Scalar)
                        value = joinSeg(value, seg[src.idx]);
                break;
            }
            const int joined = joinSeg(seg[d], value);
            if (joined != seg[d]) {
                seg[d] = joined;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return seg;
}

} // namespace

AliasAnalysis::AliasAnalysis(const Program &prog)
{
    refs_.resize(prog.code.size());
    std::array<uint32_t, kNumScalarRegs> version{};
    const std::array<int, kNumScalarRegs> segments =
        computeSegments(prog);

    for (size_t i = 0; i < prog.code.size(); ++i) {
        const Instruction &inst = prog.code[i];
        const int bytes = memAccessBytes(inst);
        if (bytes > 0) {
            MemRef &ref = refs_[i];
            ref.isMem = true;
            ref.baseReg = inst.src[0].idx;
            ref.baseVersion = version[ref.baseReg];
            ref.offset = inst.imm;
            ref.size = bytes;
            ref.segment = segments[ref.baseReg];
        }
        for (uint64_t w = regMasks(inst).writes & kScalarUidMask; w != 0;
             w &= w - 1)
            ++version[std::countr_zero(w)];
    }
}

bool
AliasAnalysis::mayAlias(size_t i, size_t j) const
{
    GCD2_ASSERT(i < refs_.size() && j < refs_.size(),
                "alias query out of range");
    const MemRef &a = refs_[i];
    const MemRef &b = refs_[j];
    if (!a.isMem || !b.isMem)
        return false;
    // Distinct declared buffer segments never overlap.
    if (a.segment >= 0 && b.segment >= 0 && a.segment != b.segment)
        return false;
    if (a.baseReg != b.baseReg || a.baseVersion != b.baseVersion)
        return true;
    const bool disjoint = a.offset + a.size <= b.offset ||
                          b.offset + b.size <= a.offset;
    return !disjoint;
}

} // namespace gcd2::dsp
