#include "dsp/isa.h"

#include <algorithm>
#include <sstream>

#include "common/fnv.h"
#include "common/logging.h"

namespace gcd2::dsp {

namespace {

// Slot masks (bit s set => the instruction may occupy VLIW slot s).
constexpr uint8_t kAnySlot = 0b1111;
constexpr uint8_t kMemSlots = 0b0011;   // slots 0-1: load/store units
constexpr uint8_t kStoreSlot = 0b0001;  // slot 0: the single store port
constexpr uint8_t kMultSlots = 0b1100;  // slots 2-3: multiply pipelines
constexpr uint8_t kShiftSlot = 0b0100;  // slot 2: the single shift unit
constexpr uint8_t kPermSlot = 0b1000;   // slot 3: the single permute unit
constexpr uint8_t kBranchSlots = 0b1100;

// Shorthand for building the opcode table rows.
constexpr OpcodeInfo
row(const char *name, UnitKind unit, MemKind mem, int lat, uint8_t slots,
    bool readsDst = false, bool writesPair = false, bool readsPairSrc = false,
    int multUnits = -1)
{
    if (multUnits < 0)
        multUnits = unit == UnitKind::Mult ? 1 : 0;
    return OpcodeInfo{name, unit, mem, lat, slots,
                      readsDst, writesPair, readsPairSrc, multUnits};
}

const std::array<OpcodeInfo, static_cast<size_t>(Opcode::kNumOpcodes)>
opcodeTable = {
    // Scalar ALU.
    row("nop", UnitKind::Alu, MemKind::None, 1, kAnySlot),
    row("movi", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("mov", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("add", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("addi", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("sub", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("mul", UnitKind::Mult, MemKind::None, 4, kMultSlots),
    row("shl", UnitKind::Shift, MemKind::None, 3, kShiftSlot),
    row("shra", UnitKind::Shift, MemKind::None, 3, kShiftSlot),
    row("and", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("or", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("xor", UnitKind::Alu, MemKind::None, 3, kAnySlot),
    row("div", UnitKind::Mult, MemKind::None, 48, kMultSlots),
    row("combine4", UnitKind::Alu, MemKind::None, 3, kAnySlot),

    // Scalar memory.
    row("loadb", UnitKind::Mem, MemKind::Load, 3, kMemSlots),
    row("loadw", UnitKind::Mem, MemKind::Load, 3, kMemSlots),
    row("storeb", UnitKind::Mem, MemKind::Store, 3, kStoreSlot),
    row("storew", UnitKind::Mem, MemKind::Store, 3, kStoreSlot),

    // Control flow.
    row("jump", UnitKind::Branch, MemKind::None, 2, kBranchSlots),
    row("jumpnz", UnitKind::Branch, MemKind::None, 2, kBranchSlots),

    // Vector memory / moves.
    row("vload", UnitKind::Mem, MemKind::Load, 3, kMemSlots),
    row("vstore", UnitKind::Mem, MemKind::Store, 3, kStoreSlot),
    row("vmov", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vsplatw", UnitKind::Permute, MemKind::None, 3, kPermSlot),

    // Vector integer ALU.
    row("vaddb", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vaddh", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vaddw", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vsubh", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vsubw", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vmaxb", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vminb", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vmaxub", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vminub", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),
    row("vavgb", UnitKind::VecAlu, MemKind::None, 3, kAnySlot),

    // SIMD multiplies.
    row("vmpy", UnitKind::Mult, MemKind::None, 4, kMultSlots,
        /*readsDst=*/false, /*writesPair=*/true),
    row("vmpyacc", UnitKind::Mult, MemKind::None, 4, kMultSlots,
        /*readsDst=*/true, /*writesPair=*/true),
    // vmpa retires two vectors' worth of multiplies: it occupies both
    // multiply pipelines, so at most one fits per packet.
    row("vmpa", UnitKind::Mult, MemKind::None, 4, kMultSlots,
        /*readsDst=*/true, /*writesPair=*/true, /*readsPairSrc=*/true,
        /*multUnits=*/2),
    row("vrmpy", UnitKind::Mult, MemKind::None, 4, kMultSlots,
        /*readsDst=*/true),
    row("vtmpy", UnitKind::Mult, MemKind::None, 4, kMultSlots,
        /*readsDst=*/true, /*writesPair=*/true, /*readsPairSrc=*/true,
        /*multUnits=*/2),
    row("vmpye", UnitKind::Mult, MemKind::None, 4, kMultSlots),
    row("vmpyiw", UnitKind::Mult, MemKind::None, 4, kMultSlots),

    // Vector shift / narrowing.
    row("vasrhb", UnitKind::Shift, MemKind::None, 3, kShiftSlot,
        /*readsDst=*/false, /*writesPair=*/false, /*readsPairSrc=*/true),
    row("vasrhub", UnitKind::Shift, MemKind::None, 3, kShiftSlot,
        /*readsDst=*/false, /*writesPair=*/false, /*readsPairSrc=*/true),
    row("vasrwh", UnitKind::Shift, MemKind::None, 3, kShiftSlot,
        /*readsDst=*/false, /*writesPair=*/false, /*readsPairSrc=*/true),

    // Vector permutes.
    row("vshuff", UnitKind::Permute, MemKind::None, 3, kPermSlot,
        /*readsDst=*/false, /*writesPair=*/true),
    row("vdeal", UnitKind::Permute, MemKind::None, 3, kPermSlot,
        /*readsDst=*/false, /*writesPair=*/true),
    row("vshuffe", UnitKind::Permute, MemKind::None, 3, kPermSlot),
    row("vshuffo", UnitKind::Permute, MemKind::None, 3, kPermSlot),
    row("vlut", UnitKind::Permute, MemKind::None, 4, kPermSlot,
        /*readsDst=*/false, /*writesPair=*/false, /*readsPairSrc=*/true),
};

std::string
operandToString(const Operand &op)
{
    if (!op.valid())
        return "?";
    std::ostringstream oss;
    oss << (op.cls == RegClass::Scalar ? 'r' : 'v') << int(op.idx);
    return oss.str();
}

} // namespace

const OpcodeInfo &
opcodeInfo(Opcode op)
{
    const auto idx = static_cast<size_t>(op);
    GCD2_ASSERT(idx < opcodeTable.size(), "bad opcode " << idx);
    return opcodeTable[idx];
}

std::string
Instruction::toString() const
{
    const OpcodeInfo &meta = info();
    std::ostringstream oss;
    oss << meta.mnemonic;
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        oss << (first ? " " : ", ");
        first = false;
        return oss;
    };
    if (dst[0].valid()) {
        if (meta.writesPair) {
            sep() << operandToString(Operand{dst[0].cls,
                                             static_cast<int8_t>(
                                                 dst[0].idx + 1)})
                  << ":" << operandToString(dst[0]);
        } else {
            sep() << operandToString(dst[0]);
        }
    }
    for (const auto &s : src) {
        if (s.valid())
            sep() << operandToString(s);
    }
    switch (info().mem) {
      case MemKind::Load:
      case MemKind::Store:
        sep() << "#" << imm;
        break;
      case MemKind::None:
        if (isBranch()) {
            sep() << "L" << imm;
        } else if (op == Opcode::MOVI || op == Opcode::ADDI ||
                   op == Opcode::SHL || op == Opcode::SHRA ||
                   op == Opcode::VASRHB || op == Opcode::VASRHUB ||
                   op == Opcode::VASRWH) {
            sep() << "#" << imm;
        }
        break;
    }
    return oss.str();
}

void
Program::declareNoalias(int reg, int64_t extentBytes)
{
    GCD2_ASSERT(reg >= 0 && reg < kNumScalarRegs,
                "noalias base must be a scalar register");
    GCD2_ASSERT(extentBytes >= 0, "negative buffer extent");
    noaliasExtents.resize(noaliasRegs.size(), 0);
    for (size_t i = 0; i < noaliasRegs.size(); ++i)
        if (noaliasRegs[i] == reg) {
            noaliasExtents[i] = std::max(noaliasExtents[i], extentBytes);
            return;
        }
    noaliasRegs.push_back(static_cast<int8_t>(reg));
    noaliasExtents.push_back(extentBytes);
}

int
Program::newLabel()
{
    labels.push_back(SIZE_MAX);
    return static_cast<int>(labels.size()) - 1;
}

void
Program::bindLabel(int label)
{
    GCD2_ASSERT(label >= 0 && static_cast<size_t>(label) < labels.size(),
                "unknown label " << label);
    labels[label] = code.size();
}

size_t
Program::push(Instruction inst)
{
    code.push_back(inst);
    return code.size() - 1;
}

std::string
Program::toString() const
{
    std::ostringstream oss;
    for (size_t i = 0; i < code.size(); ++i) {
        for (size_t l = 0; l < labels.size(); ++l)
            if (labels[l] == i)
                oss << "L" << l << ":\n";
        oss << "  " << code[i].toString() << "\n";
    }
    return oss.str();
}

// Factory helpers -------------------------------------------------------

namespace {

void
requireScalar(const Operand &op, const char *what)
{
    GCD2_ASSERT(op.cls == RegClass::Scalar &&
                    op.idx >= 0 && op.idx < kNumScalarRegs,
                what << " must be a scalar register");
}

void
requireVector(const Operand &op, const char *what)
{
    GCD2_ASSERT(op.cls == RegClass::Vector &&
                    op.idx >= 0 && op.idx < kNumVectorRegs,
                what << " must be a vector register");
}

void
requirePairBase(const Operand &op, const char *what)
{
    requireVector(op, what);
    GCD2_ASSERT(op.idx % 2 == 0 && op.idx + 1 < kNumVectorRegs,
                what << " must be an even vector register (pair base)");
}

} // namespace

Instruction
makeNop()
{
    return Instruction{Opcode::NOP, {}, {}, 0};
}

Instruction
makeMovi(Operand rd, int64_t imm)
{
    requireScalar(rd, "movi dst");
    return Instruction{Opcode::MOVI, {rd}, {}, imm};
}

Instruction
makeMov(Operand rd, Operand rs)
{
    requireScalar(rd, "mov dst");
    requireScalar(rs, "mov src");
    return Instruction{Opcode::MOV, {rd}, {rs, Operand{}}, 0};
}

Instruction
makeBinary(Opcode op, Operand rd, Operand rs, Operand rt)
{
    GCD2_ASSERT(op == Opcode::ADD || op == Opcode::SUB || op == Opcode::MUL ||
                    op == Opcode::AND || op == Opcode::OR ||
                    op == Opcode::XOR || op == Opcode::DIV,
                "makeBinary: unsupported opcode");
    requireScalar(rd, "binary dst");
    requireScalar(rs, "binary src0");
    requireScalar(rt, "binary src1");
    return Instruction{op, {rd}, {rs, rt}, 0};
}

Instruction
makeAddi(Operand rd, Operand rs, int64_t imm)
{
    requireScalar(rd, "addi dst");
    requireScalar(rs, "addi src");
    return Instruction{Opcode::ADDI, {rd}, {rs, Operand{}}, imm};
}

Instruction
makeShift(Opcode op, Operand rd, Operand rs, int64_t amount)
{
    GCD2_ASSERT(op == Opcode::SHL || op == Opcode::SHRA,
                "makeShift: unsupported opcode");
    requireScalar(rd, "shift dst");
    requireScalar(rs, "shift src");
    return Instruction{op, {rd}, {rs, Operand{}}, amount};
}

Instruction
makeCombine4(Operand rd, Operand rs)
{
    requireScalar(rd, "combine4 dst");
    requireScalar(rs, "combine4 src");
    return Instruction{Opcode::COMBINE4, {rd}, {rs, Operand{}}, 0};
}

Instruction
makeLoad(Opcode op, Operand rd, Operand base, int64_t offset)
{
    GCD2_ASSERT(op == Opcode::LOADB || op == Opcode::LOADW,
                "makeLoad: unsupported opcode");
    requireScalar(rd, "load dst");
    requireScalar(base, "load base");
    return Instruction{op, {rd}, {base, Operand{}}, offset};
}

Instruction
makeStore(Opcode op, Operand base, Operand data, int64_t offset)
{
    GCD2_ASSERT(op == Opcode::STOREB || op == Opcode::STOREW,
                "makeStore: unsupported opcode");
    requireScalar(base, "store base");
    requireScalar(data, "store data");
    return Instruction{op, {}, {base, data}, offset};
}

Instruction
makeJump(int label)
{
    return Instruction{Opcode::JUMP, {}, {}, label};
}

Instruction
makeJumpNz(Operand cond, int label)
{
    requireScalar(cond, "jumpnz cond");
    return Instruction{Opcode::JUMPNZ, {}, {cond, Operand{}}, label};
}

Instruction
makeVload(Operand vd, Operand base, int64_t offset)
{
    requireVector(vd, "vload dst");
    requireScalar(base, "vload base");
    return Instruction{Opcode::VLOAD, {vd}, {base, Operand{}}, offset};
}

Instruction
makeVstore(Operand base, Operand vu, int64_t offset)
{
    requireScalar(base, "vstore base");
    requireVector(vu, "vstore data");
    return Instruction{Opcode::VSTORE, {}, {base, vu}, offset};
}

Instruction
makeVsplatw(Operand vd, Operand rs)
{
    requireVector(vd, "vsplatw dst");
    requireScalar(rs, "vsplatw src");
    return Instruction{Opcode::VSPLATW, {vd}, {rs, Operand{}}, 0};
}

Instruction
makeVecBinary(Opcode op, Operand vd, Operand vu, Operand vv)
{
    GCD2_ASSERT(op == Opcode::VADDB || op == Opcode::VADDH ||
                    op == Opcode::VADDW || op == Opcode::VSUBH ||
                    op == Opcode::VSUBW || op == Opcode::VMAXB ||
                    op == Opcode::VMINB || op == Opcode::VMAXUB ||
                    op == Opcode::VMINUB || op == Opcode::VAVGB ||
                    op == Opcode::VMOV,
                "makeVecBinary: unsupported opcode");
    requireVector(vd, "vec dst");
    requireVector(vu, "vec src0");
    if (op != Opcode::VMOV)
        requireVector(vv, "vec src1");
    return Instruction{op, {vd}, {vu, vv}, 0};
}

Instruction
makeVmpy(Opcode op, Operand vdLo, Operand vu, Operand rt)
{
    GCD2_ASSERT(op == Opcode::VMPY || op == Opcode::VMPYACC,
                "makeVmpy: unsupported opcode");
    requirePairBase(vdLo, "vmpy dst");
    requireVector(vu, "vmpy src");
    requireScalar(rt, "vmpy scalar");
    return Instruction{op, {vdLo}, {vu, rt}, 0};
}

Instruction
makeVmpa(Opcode op, Operand vdLo, Operand vuLo, Operand rt)
{
    GCD2_ASSERT(op == Opcode::VMPA || op == Opcode::VTMPY,
                "makeVmpa: unsupported opcode");
    requirePairBase(vdLo, "vmpa dst");
    requirePairBase(vuLo, "vmpa src pair");
    requireScalar(rt, "vmpa scalar");
    return Instruction{op, {vdLo}, {vuLo, rt}, 0};
}

Instruction
makeVrmpy(Operand vd, Operand vu, Operand rt)
{
    requireVector(vd, "vrmpy dst");
    requireVector(vu, "vrmpy src");
    requireScalar(rt, "vrmpy scalar");
    return Instruction{Opcode::VRMPY, {vd}, {vu, rt}, 0};
}

Instruction
makeVmpye(Operand vd, Operand vu, Operand rt)
{
    requireVector(vd, "vmpye dst");
    requireVector(vu, "vmpye src");
    requireScalar(rt, "vmpye scalar");
    return Instruction{Opcode::VMPYE, {vd}, {vu, rt}, 0};
}

Instruction
makeVmpyiw(Operand vd, Operand vu, Operand rt)
{
    requireVector(vd, "vmpyiw dst");
    requireVector(vu, "vmpyiw src");
    requireScalar(rt, "vmpyiw scalar");
    return Instruction{Opcode::VMPYIW, {vd}, {vu, rt}, 0};
}

Instruction
makeVasr(Opcode op, Operand vd, Operand vuLo, int64_t shift)
{
    GCD2_ASSERT(op == Opcode::VASRHB || op == Opcode::VASRHUB ||
                    op == Opcode::VASRWH,
                "makeVasr: unsupported opcode");
    requireVector(vd, "vasr dst");
    requirePairBase(vuLo, "vasr src pair");
    return Instruction{op, {vd}, {vuLo, Operand{}}, shift};
}

Instruction
makeVlut(Operand vd, Operand tableLo, Operand idx)
{
    requireVector(vd, "vlut dst");
    requirePairBase(tableLo, "vlut table");
    requireVector(idx, "vlut index");
    return Instruction{Opcode::VLUT, {vd}, {tableLo, idx}, 0};
}

Instruction
makeVshuff(Opcode op, Operand vd, Operand vu, Operand vv, int laneLog2)
{
    GCD2_ASSERT(op == Opcode::VSHUFF || op == Opcode::VDEAL ||
                    op == Opcode::VSHUFFE || op == Opcode::VSHUFFO,
                "makeVshuff: unsupported opcode");
    GCD2_ASSERT(laneLog2 >= 0 && laneLog2 <= 2, "bad shuffle lane size");
    if (op == Opcode::VSHUFF || op == Opcode::VDEAL)
        requirePairBase(vd, "shuffle dst");
    else
        requireVector(vd, "shuffle dst");
    requireVector(vu, "shuffle src0");
    requireVector(vv, "shuffle src1");
    return Instruction{op, {vd}, {vu, vv}, laneLog2};
}

void
hashProgramCode(const Program &prog, common::FnvPair &fnv)
{
    for (const Instruction &inst : prog.code) {
        fnv.value(static_cast<uint8_t>(inst.op));
        fnv.value(static_cast<uint8_t>(inst.dst[0].cls));
        fnv.value(inst.dst[0].idx);
        for (const Operand &src : inst.src) {
            fnv.value(static_cast<uint8_t>(src.cls));
            fnv.value(src.idx);
        }
        fnv.value(inst.imm);
    }
    fnv.value(uint64_t{0xfeed});
    for (size_t label : prog.labels)
        fnv.value(static_cast<uint64_t>(label));
    fnv.value(uint64_t{0xbeef});
    for (int8_t reg : prog.noaliasRegs)
        fnv.value(reg);
}

} // namespace gcd2::dsp
