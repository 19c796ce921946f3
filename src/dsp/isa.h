/**
 * @file
 * Instruction-set definition for the simulated Hexagon-class mobile DSP.
 *
 * The ISA is a faithful subset of what the paper's target (Qualcomm Hexagon
 * 698 with HVX vector extensions) exposes:
 *
 *  - 32 scalar registers (32-bit) and 32 vector registers (1024-bit,
 *    i.e. 128 bytes). Vector instructions that produce double-width results
 *    write a *vector pair* (two adjacent registers, low even).
 *  - The three SIMD multiply instructions the paper builds layouts for
 *    (Fig. 1): @c vmpy (vector x 4 scalar bytes -> 16-bit product pair),
 *    @c vmpa (vector pair x 4 scalar bytes -> accumulated 16-bit pair),
 *    and @c vrmpy (4-way reduce multiply -> accumulated 32-bit lanes);
 *    plus @c vtmpy and @c vmpye which the paper mentions as alternatives.
 *  - Scalar ALU/multiply/shift, loads/stores (byte/word/vector), and the
 *    branch instructions needed to express kernel loops.
 *
 * Each opcode carries static metadata (latency in pipeline cycles, the VLIW
 * slots it may occupy, memory behavior, whether the destination is also
 * read, i.e. accumulated into) consumed by the dependency classifier, the
 * packing algorithms, and the timing simulator.
 */
#ifndef GCD2_DSP_ISA_H
#define GCD2_DSP_ISA_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gcd2::common {
class FnvPair;
} // namespace gcd2::common

namespace gcd2::dsp {

/** Number of scalar registers. */
inline constexpr int kNumScalarRegs = 32;
/** Number of vector registers. */
inline constexpr int kNumVectorRegs = 32;
/** Bytes per vector register (1024-bit HVX). */
inline constexpr int kVectorBytes = 128;
/** Halfword lanes per vector register. */
inline constexpr int kVectorHalves = kVectorBytes / 2;
/** Word lanes per vector register. */
inline constexpr int kVectorWords = kVectorBytes / 4;
/** Maximum instructions per VLIW packet. */
inline constexpr int kPacketSlots = 4;

/** Every opcode of the simulated DSP. */
enum class Opcode : uint8_t
{
    // Scalar ALU.
    NOP,
    MOVI,     ///< Rd = imm
    MOV,      ///< Rd = Rs
    ADD,      ///< Rd = Rs + Rt
    ADDI,     ///< Rd = Rs + imm
    SUB,      ///< Rd = Rs - Rt
    MUL,      ///< Rd = Rs * Rt (32-bit, slot-restricted multiply unit)
    SHL,      ///< Rd = Rs << imm (shift unit)
    SHRA,     ///< Rd = Rs >> imm arithmetic (shift unit)
    AND,      ///< Rd = Rs & Rt
    OR,       ///< Rd = Rs | Rt
    XOR,      ///< Rd = Rs ^ Rt
    DIV,      ///< Rd = Rs / Rt (signed; very slow -- the paper replaces it
              ///< with a table lookup in the "other optimizations" pass)
    COMBINE4, ///< Rd = four packed copies of the low byte of Rs (builds the
              ///< 4-scalar operand of vmpy/vmpa/vrmpy from one weight byte)

    // Scalar memory.
    LOADB,  ///< Rd = sign-extended mem8[Rs + imm]
    LOADW,  ///< Rd = mem32[Rs + imm]
    STOREB, ///< mem8[Rs + imm] = low byte of Rt
    STOREW, ///< mem32[Rs + imm] = Rt

    // Control flow. imm is a label id resolved through Program::labels.
    JUMP,   ///< unconditional branch
    JUMPNZ, ///< branch if Rs != 0

    // Vector memory / moves.
    VLOAD,   ///< Vd = mem[Rs + imm .. +128)
    VSTORE,  ///< mem[Rs + imm .. +128) = Vu
    VMOV,    ///< Vd = Vu
    VSPLATW, ///< Vd.w[i] = Rs for all word lanes

    // Vector integer ALU.
    VADDB, ///< byte-lane add
    VADDH, ///< halfword-lane add
    VADDW, ///< word-lane add
    VSUBH, ///< halfword-lane subtract
    VSUBW, ///< word-lane subtract
    VMAXB, ///< signed byte max (ReLU-style clamps)
    VMINB, ///< signed byte min
    VMAXUB,///< unsigned byte max (uint8 activations / max pooling)
    VMINUB,///< unsigned byte min (uint8 clamp)
    VAVGB, ///< unsigned byte average (pooling, requantized adds)

    // SIMD multiplies (Fig. 1 of the paper).
    VMPY,    ///< (VdHi:VdLo).h = Vu.ub * Rt.b : lane 4k+j multiplies by
             ///< scalar byte j; even products go to VdLo, odd to VdHi.
    VMPYACC, ///< accumulating form of VMPY (Vdd.h += ...)
    VMPA,    ///< Vdd.h += vmpa((VuHi:VuLo).ub, Rt.b): element pairs from the
             ///< two source vectors scaled by scalar byte pairs.
    VRMPY,   ///< Vd.w += vrmpy(Vu.ub, Rt.b): each word lane accumulates the
             ///< dot product of 4 consecutive bytes with the 4 scalar bytes.
    VTMPY,   ///< Vdd.h += 3-tap filter of (VuHi:VuLo).ub with 3 scalar
             ///< coefficient bytes (depthwise convolutions).
    VMPYE,   ///< Vd.w = Vu.h(even lanes) * Rt.h (16-bit pipelines)
    VMPYIW,  ///< Vd.w = Vu.w * Rt (low 32 bits; requantization scaling)

    // Vector shift / narrowing (requantization epilogues; shift unit).
    VASRHB, ///< Vd.b = sat8((VuHi:VuLo).h >> imm with rounding)
    VASRHUB,///< Vd.ub = usat8((VuHi:VuLo).h >> imm with rounding)
    VASRWH, ///< Vd.h = sat16((VuHi:VuLo).w >> imm with rounding)

    // Vector permutes (layout shuffles; permute unit). imm = log2 of the
    // lane size in bytes (0 = bytes, 1 = halfwords, 2 = words).
    VSHUFF, ///< (VdHi:VdLo) = lane-interleave(Vu, Vv)
    VDEAL,  ///< (VdHi:VdLo) = lane-deinterleave(concat(Vu, Vv))
    VSHUFFE,///< Vd.b[i] = even bytes of (Vu, Vv) interleaved by half
    VSHUFFO,///< Vd.b[i] = odd bytes of (Vu, Vv) interleaved by half
    VLUT,   ///< Vd.b[i] = table[Vu.b[i]]: 256-byte table in a vector pair
            ///< (quantized nonlinearities: sigmoid/tanh/gelu/pow)

    kNumOpcodes
};

/** Register operand class. */
enum class RegClass : uint8_t { None, Scalar, Vector };

/** A register reference. */
struct Operand
{
    RegClass cls = RegClass::None;
    int8_t idx = -1;

    bool valid() const { return cls != RegClass::None; }
    bool operator==(const Operand &other) const = default;
};

/** Make a scalar register operand. */
constexpr Operand
sreg(int idx)
{
    return Operand{RegClass::Scalar, static_cast<int8_t>(idx)};
}

/** Make a vector register operand. */
constexpr Operand
vreg(int idx)
{
    return Operand{RegClass::Vector, static_cast<int8_t>(idx)};
}

/** Memory behavior of an opcode. */
enum class MemKind : uint8_t { None, Load, Store };

/** Functional-unit class used for slot/resource constraints. */
enum class UnitKind : uint8_t
{
    Alu,     ///< scalar ALU, any slot
    Mult,    ///< multiply pipelines (slots 2-3, shared scalar/vector)
    Shift,   ///< the single shift unit (slot 2)
    Permute, ///< the single permute unit (slot 3)
    Mem,     ///< load/store units (slots 0-1)
    Branch,  ///< branch unit (slots 2-3, at most one per packet)
    VecAlu,  ///< vector ALU (any slot)
};

/** Static per-opcode metadata. */
struct OpcodeInfo
{
    const char *mnemonic;
    UnitKind unit;
    MemKind mem;
    /** Pipeline occupancy in cycles (read / execute... / write stages). */
    int latency;
    /** Bitmask of VLIW slots (bit s => slot s allowed). */
    uint8_t slotMask;
    /** Destination is read-modify-write (accumulators). */
    bool readsDst;
    /** Writes a vector register pair (dst idx and idx+1). */
    bool writesPair;
    /** Reads a vector register pair as first vector source. */
    bool readsPairSrc;
    /** Multiply pipelines consumed (vmpa/vtmpy are double-wide). */
    int multUnits;
};

/** Look up metadata for an opcode. */
const OpcodeInfo &opcodeInfo(Opcode op);

/** Mnemonic helper. */
inline const char *
mnemonic(Opcode op)
{
    return opcodeInfo(op).mnemonic;
}

/**
 * One decoded instruction.
 *
 * Operand conventions:
 *  - dst[0] is the primary destination; pair-writing opcodes implicitly
 *    also write dst[0].idx + 1.
 *  - Loads: src[0] = base address register; imm = byte offset.
 *  - Stores: src[0] = base address register, src[1] = data; imm = offset.
 *  - Branches: imm = label id (see Program::labels).
 *  - Pair-reading vector ops: src[0] is the low register of the pair.
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    std::array<Operand, 1> dst{};
    std::array<Operand, 2> src{};
    int64_t imm = 0;

    const OpcodeInfo &info() const { return opcodeInfo(op); }

    bool isBranch() const
    {
        return op == Opcode::JUMP || op == Opcode::JUMPNZ;
    }

    /** Render as pseudo-assembly for debugging and examples. */
    std::string toString() const;
};

/**
 * A straight-line-plus-branches instruction sequence.
 *
 * Labels are branch targets: label id i marks the instruction at index
 * labels[i]. The CFG builder splits the program into basic blocks at labels
 * and after branches.
 */
struct Program
{
    std::vector<Instruction> code;
    std::vector<size_t> labels;

    /**
     * Registers that, at program entry, point to pairwise-disjoint memory
     * regions (the kernel buffer ABI). Declared by code generators so the
     * alias analysis may disambiguate accesses whose addresses derive from
     * different entries. Precondition: the program derives pointers only
     * from these registers (other operands of pointer arithmetic are
     * offsets), which holds for all generated kernels.
     */
    std::vector<int8_t> noaliasRegs;

    /**
     * Byte extent of the buffer each noaliasRegs entry points to, parallel
     * to noaliasRegs. 0 = extent unknown (legacy declarations); analyses
     * that reason about bounds must skip those entries.
     */
    std::vector<int64_t> noaliasExtents;

    /**
     * Declare @p reg as a noalias buffer base of @p extentBytes bytes
     * (0 = unknown). The canonical entry point: entries are deduplicated
     * here -- re-declaring a register is idempotent and keeps the larger
     * extent -- so analyzers never see duplicate bases from well-formed
     * generators (a literal duplicate in noaliasRegs remains a lint
     * Error, reachable only by hand-building the vectors).
     */
    void declareNoalias(int reg, int64_t extentBytes = 0);

    /** Reserve a label id whose target will be bound later. */
    int newLabel();

    /** Bind a label to the *next* instruction to be appended. */
    void bindLabel(int label);

    /** Append an instruction and return its index. */
    size_t push(Instruction inst);

    std::string toString() const;
};

/**
 * Feed the content of @p prog that names it to @p fnv: every
 * instruction's opcode, operands and immediate, then the labels, then
 * the noalias registers. The prefix of the pack-cache and decode-cache
 * keys (vliw::fingerprintForPacking, fingerprintProgram).
 */
void hashProgramCode(const Program &prog, common::FnvPair &fnv);

// Instruction factory helpers ------------------------------------------

Instruction makeNop();
Instruction makeMovi(Operand rd, int64_t imm);
Instruction makeMov(Operand rd, Operand rs);
Instruction makeBinary(Opcode op, Operand rd, Operand rs, Operand rt);
Instruction makeAddi(Operand rd, Operand rs, int64_t imm);
Instruction makeShift(Opcode op, Operand rd, Operand rs, int64_t amount);
Instruction makeCombine4(Operand rd, Operand rs);
Instruction makeLoad(Opcode op, Operand rd, Operand base, int64_t offset);
Instruction makeStore(Opcode op, Operand base, Operand data, int64_t offset);
Instruction makeJump(int label);
Instruction makeJumpNz(Operand cond, int label);
Instruction makeVload(Operand vd, Operand base, int64_t offset);
Instruction makeVstore(Operand base, Operand vu, int64_t offset);
Instruction makeVsplatw(Operand vd, Operand rs);
Instruction makeVecBinary(Opcode op, Operand vd, Operand vu, Operand vv);
/** VMPY/VMPYACC: dst pair (vdLo even), vector src, 4-byte scalar src. */
Instruction makeVmpy(Opcode op, Operand vdLo, Operand vu, Operand rt);
/** VMPA/VTMPY: dst pair += f(src pair, scalar). */
Instruction makeVmpa(Opcode op, Operand vdLo, Operand vuLo, Operand rt);
/** VRMPY: dst.w += reduce(vu.ub * rt.b). */
Instruction makeVrmpy(Operand vd, Operand vu, Operand rt);
Instruction makeVmpye(Operand vd, Operand vu, Operand rt);
Instruction makeVmpyiw(Operand vd, Operand vu, Operand rt);
/** Narrowing shifts: dst <- shift-round-saturate(src pair) by imm bits. */
Instruction makeVasr(Opcode op, Operand vd, Operand vuLo, int64_t shift);
/**
 * VSHUFF/VDEAL and the even/odd shuffles. laneLog2 selects the permuted
 * lane size (0 = bytes, 1 = halfwords, 2 = words).
 */
/** Byte-wise table lookup: dst[i] = table[idx[i]]; table pair at
 *  tableLo (even register). */
Instruction makeVlut(Operand vd, Operand tableLo, Operand idx);

Instruction makeVshuff(Opcode op, Operand vd, Operand vu, Operand vv,
                       int laneLog2 = 0);

} // namespace gcd2::dsp

#endif // GCD2_DSP_ISA_H
