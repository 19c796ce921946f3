/**
 * @file
 * Lane-level differential test of the decoded engine's fast handlers.
 *
 * For every opcode the dispatch table runs without the interpreter, at
 * least kMinCasesPerOpcode seeded single-instruction cases execute through
 * runDecoded and through executeInstruction on copies of one state and
 * must leave identical registers, memory and ExecStats. Each case draws
 * random 128-byte vector registers and full-range 32-bit scalars, so
 * every byte of a packed multiplier operand takes every value (the
 * program fuzz in decoded_engine_test.cc seeds scalars in [-128, 127],
 * where weight bytes 1-3 are only 0x00 or 0xff). Operands are enumerated
 * over a window of registers wide enough to hold every overlap of the
 * destination (pair) with the sources (pairs), and every overlap that
 * the decoder keeps on the fast path is run. VMPY and VMPYACC cover a
 * multiply with and without accumulation.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dsp/decoded.h"
#include "dsp/functional_sim.h"

namespace gcd2::dsp {
namespace {

constexpr int kMinCasesPerOpcode = 10000;
constexpr size_t kMemBytes = 1024;
/** Registers 0..kVecWindow-1 hold every (pair) overlap of three
 *  operands; scalars 0..kScalarWindow-1 every scalar overlap. */
constexpr int kVecWindow = 8;
constexpr int kScalarWindow = 4;
/** Load/store base addresses leave room for the largest offset plus a
 *  vector access. */
constexpr int64_t kMaxOffset = 64;

/** One instruction shape to enumerate: @p make builds the instruction
 *  from register indices (d, s0, s1) and an immediate. */
struct Family
{
    std::vector<Opcode> ops;
    std::vector<int> d, s0, s1;
    std::vector<int64_t> imms;
    std::function<Instruction(Opcode, int, int, int, int64_t)> make;
};

std::vector<int>
range(int lo, int hi, int step = 1)
{
    std::vector<int> out;
    for (int i = lo; i < hi; i += step)
        out.push_back(i);
    return out;
}

std::vector<Family>
families()
{
    const std::vector<int> s = range(0, kScalarWindow);
    const std::vector<int> v = range(0, kVecWindow);
    const std::vector<int> pair = range(0, kVecWindow, 2);
    const std::vector<int> none = {0};
    const std::vector<int64_t> noImm = {0};
    const std::vector<int64_t> offsets = {0, 1, 3, kMaxOffset};
    std::vector<int64_t> shifts;
    for (int64_t sh = -2; sh <= 63; ++sh)
        shifts.push_back(sh);

    std::vector<Family> out;
    out.push_back({{Opcode::NOP}, none, none, none, noImm,
                   [](Opcode, int, int, int, int64_t) {
                       return makeNop();
                   }});
    out.push_back({{Opcode::MOVI}, s, none, none,
                   {0, -1, 0x7fffffff, -0x80000000LL, 0x123456789aLL},
                   [](Opcode, int d, int, int, int64_t imm) {
                       return makeMovi(sreg(d), imm);
                   }});
    out.push_back({{Opcode::MOV}, s, s, none, noImm,
                   [](Opcode, int d, int a, int, int64_t) {
                       return makeMov(sreg(d), sreg(a));
                   }});
    out.push_back({{Opcode::ADD, Opcode::SUB, Opcode::MUL, Opcode::AND,
                    Opcode::OR, Opcode::XOR, Opcode::DIV},
                   s, s, s, noImm,
                   [](Opcode op, int d, int a, int b, int64_t) {
                       return makeBinary(op, sreg(d), sreg(a), sreg(b));
                   }});
    out.push_back({{Opcode::ADDI}, s, s, none, {0, -7, 0x7fffffff},
                   [](Opcode, int d, int a, int, int64_t imm) {
                       return makeAddi(sreg(d), sreg(a), imm);
                   }});
    out.push_back({{Opcode::SHL, Opcode::SHRA}, s, s, none,
                   {0, 1, 7, 31, 32, 45},
                   [](Opcode op, int d, int a, int, int64_t imm) {
                       return makeShift(op, sreg(d), sreg(a), imm);
                   }});
    out.push_back({{Opcode::COMBINE4}, s, s, none, noImm,
                   [](Opcode, int d, int a, int, int64_t) {
                       return makeCombine4(sreg(d), sreg(a));
                   }});
    out.push_back({{Opcode::LOADB, Opcode::LOADW}, s, s, none, offsets,
                   [](Opcode op, int d, int base, int, int64_t imm) {
                       return makeLoad(op, sreg(d), sreg(base), imm);
                   }});
    out.push_back({{Opcode::STOREB, Opcode::STOREW}, none, s, s, offsets,
                   [](Opcode op, int, int base, int data, int64_t imm) {
                       return makeStore(op, sreg(base), sreg(data), imm);
                   }});
    // Label 0 is bound one past the instruction: program end.
    out.push_back({{Opcode::JUMP}, none, none, none, noImm,
                   [](Opcode, int, int, int, int64_t) {
                       return makeJump(0);
                   }});
    out.push_back({{Opcode::JUMPNZ}, none, s, none, noImm,
                   [](Opcode, int, int a, int, int64_t) {
                       return makeJumpNz(sreg(a), 0);
                   }});
    out.push_back({{Opcode::VLOAD}, v, s, none, offsets,
                   [](Opcode, int d, int base, int, int64_t imm) {
                       return makeVload(vreg(d), sreg(base), imm);
                   }});
    out.push_back({{Opcode::VSTORE}, none, s, v, offsets,
                   [](Opcode, int, int base, int data, int64_t imm) {
                       return makeVstore(sreg(base), vreg(data), imm);
                   }});
    out.push_back({{Opcode::VMOV}, v, v, none, noImm,
                   [](Opcode, int d, int a, int, int64_t) {
                       return makeVecBinary(Opcode::VMOV, vreg(d), vreg(a),
                                            Operand{});
                   }});
    out.push_back({{Opcode::VSPLATW}, v, s, none, noImm,
                   [](Opcode, int d, int a, int, int64_t) {
                       return makeVsplatw(vreg(d), sreg(a));
                   }});
    out.push_back({{Opcode::VADDB, Opcode::VADDH, Opcode::VADDW,
                    Opcode::VSUBH, Opcode::VSUBW, Opcode::VMAXB,
                    Opcode::VMINB, Opcode::VMAXUB, Opcode::VMINUB,
                    Opcode::VAVGB},
                   v, v, v, noImm,
                   [](Opcode op, int d, int a, int b, int64_t) {
                       return makeVecBinary(op, vreg(d), vreg(a), vreg(b));
                   }});
    out.push_back({{Opcode::VMPY, Opcode::VMPYACC}, pair, v, s, noImm,
                   [](Opcode op, int d, int a, int w, int64_t) {
                       return makeVmpy(op, vreg(d), vreg(a), sreg(w));
                   }});
    out.push_back({{Opcode::VMPA, Opcode::VTMPY}, pair, pair, s, noImm,
                   [](Opcode op, int d, int a, int w, int64_t) {
                       return makeVmpa(op, vreg(d), vreg(a), sreg(w));
                   }});
    out.push_back({{Opcode::VRMPY}, v, v, s, noImm,
                   [](Opcode, int d, int a, int w, int64_t) {
                       return makeVrmpy(vreg(d), vreg(a), sreg(w));
                   }});
    out.push_back({{Opcode::VMPYE}, v, v, s, noImm,
                   [](Opcode, int d, int a, int w, int64_t) {
                       return makeVmpye(vreg(d), vreg(a), sreg(w));
                   }});
    out.push_back({{Opcode::VMPYIW}, v, v, s, noImm,
                   [](Opcode, int d, int a, int w, int64_t) {
                       return makeVmpyiw(vreg(d), vreg(a), sreg(w));
                   }});
    out.push_back({{Opcode::VASRHB, Opcode::VASRHUB, Opcode::VASRWH}, v,
                   pair, none, shifts,
                   [](Opcode op, int d, int a, int, int64_t imm) {
                       return makeVasr(op, vreg(d), vreg(a), imm);
                   }});
    out.push_back({{Opcode::VSHUFF, Opcode::VDEAL}, pair, v, v, {0, 1, 2},
                   [](Opcode op, int d, int a, int b, int64_t imm) {
                       return makeVshuff(op, vreg(d), vreg(a), vreg(b),
                                         static_cast<int>(imm));
                   }});
    out.push_back({{Opcode::VSHUFFE, Opcode::VSHUFFO}, v, v, v, {0, 1, 2},
                   [](Opcode op, int d, int a, int b, int64_t imm) {
                       return makeVshuff(op, vreg(d), vreg(a), vreg(b),
                                         static_cast<int>(imm));
                   }});
    out.push_back({{Opcode::VLUT}, v, pair, v, noImm,
                   [](Opcode, int d, int a, int b, int64_t) {
                       return makeVlut(vreg(d), vreg(a), vreg(b));
                   }});
    return out;
}

/** @p inst alone in one packet, with label 0 bound past it. */
PackedProgram
single(const Instruction &inst)
{
    PackedProgram packed;
    packed.program.newLabel();
    packed.program.push(inst);
    packed.program.bindLabel(0);
    packed.packets.push_back(Packet{{0}});
    packed.labelPacket = {1};
    return packed;
}

/** Random architectural state for one case of @p inst. */
RegisterFile
randomRegs(Rng &rng, const Instruction &inst)
{
    RegisterFile regs;
    for (int r = 0; r <= kVecWindow; ++r)
        for (int i = 0; i < kVectorBytes; i += 8) {
            const uint64_t bits = rng.next();
            std::memcpy(regs.vector[static_cast<size_t>(r)].data() + i,
                        &bits, 8);
        }
    for (int r = 0; r < kScalarWindow; ++r) {
        uint32_t value = static_cast<uint32_t>(rng.next());
        // Zero a quarter of the scalars: untaken JUMPNZ, zero products.
        if (rng.uniformInt(0, 3) == 0)
            value = 0;
        regs.scalar[static_cast<size_t>(r)] = value;
    }
    const OpcodeInfo &info = inst.info();
    if (info.mem != MemKind::None) {
        // A base inside memory; any other operand keeps its full range.
        regs.scalar[static_cast<size_t>(inst.src[0].idx)] =
            static_cast<uint32_t>(rng.uniformInt(
                0, kMemBytes - kMaxOffset - kVectorBytes));
    } else if (inst.op == Opcode::DIV) {
        // Both executors reject a zero divisor, and INT32_MIN / -1
        // overflows; neither is a lane question.
        uint32_t &den = regs.scalar[static_cast<size_t>(inst.src[1].idx)];
        if (den == 0 || den == 0xffffffffu)
            den = 3;
    }
    return regs;
}

TEST(LaneDifferential, EveryFastHandlerMatchesInterpreterLaneForLane)
{
    Rng rng(0x1a4ed1ffULL);
    std::vector<uint8_t> image(kMemBytes);
    for (uint8_t &byte : image)
        byte = static_cast<uint8_t>(rng.next());

    std::vector<bool> covered(static_cast<size_t>(Opcode::kNumOpcodes));
    for (const Family &family : families()) {
        for (const Opcode op : family.ops) {
            // Every operand combination of the window the decoder keeps
            // on the fast path.
            std::vector<Instruction> insts;
            std::vector<std::shared_ptr<const DecodedProgram>> decoded;
            for (int d : family.d)
                for (int a : family.s0)
                    for (int b : family.s1)
                        for (int64_t imm : family.imms) {
                            const Instruction inst =
                                family.make(op, d, a, b, imm);
                            auto dec = DecodedProgram::build(single(inst));
                            if (dec->insts[0].exec !=
                                static_cast<uint8_t>(op))
                                continue; // interpreter fallback
                            insts.push_back(inst);
                            decoded.push_back(std::move(dec));
                        }
            ASSERT_FALSE(insts.empty()) << mnemonic(op);

            const size_t perShape =
                (kMinCasesPerOpcode + insts.size() - 1) / insts.size();
            for (size_t k = 0; k < insts.size(); ++k) {
                for (size_t c = 0; c < perShape; ++c) {
                    const RegisterFile start = randomRegs(rng, insts[k]);

                    RegisterFile refRegs = start;
                    Memory refMem(kMemBytes);
                    refMem.writeBytes(0, image.data(), kMemBytes);
                    ExecStats refStats;
                    executeInstruction(insts[k], refRegs, refMem, refStats);

                    RegisterFile decRegs = start;
                    Memory decMem(kMemBytes);
                    decMem.writeBytes(0, image.data(), kMemBytes);
                    ExecStats decStats;
                    runDecoded(*decoded[k], decRegs, decMem, decStats);

                    std::vector<uint8_t> refBytes(kMemBytes);
                    std::vector<uint8_t> decBytes(kMemBytes);
                    refMem.readBytes(0, refBytes.data(), kMemBytes);
                    decMem.readBytes(0, decBytes.data(), kMemBytes);
                    const bool same =
                        refRegs.scalar == decRegs.scalar &&
                        refRegs.vector == decRegs.vector &&
                        refBytes == decBytes &&
                        refStats.instructions == decStats.instructions &&
                        refStats.bytesLoaded == decStats.bytesLoaded &&
                        refStats.bytesStored == decStats.bytesStored &&
                        refStats.branchesTaken == decStats.branchesTaken;
                    ASSERT_TRUE(same)
                        << insts[k].toString() << " case " << c
                        << ": decoded handler diverges from the "
                           "interpreter";
                }
            }
            covered[static_cast<size_t>(op)] = true;
        }
    }

    // Every opcode has a fast handler, so every one was exercised.
    for (size_t op = 0; op < covered.size(); ++op)
        EXPECT_TRUE(covered[op]) << mnemonic(static_cast<Opcode>(op));
}

} // namespace
} // namespace gcd2::dsp
