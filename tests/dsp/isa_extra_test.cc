/**
 * @file
 * Additional ISA semantic tests: the alternative multiply instructions
 * the paper mentions (vtmpy, vmpye), the half shuffles, disassembly, and
 * program/label plumbing.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsp/functional_sim.h"

namespace gcd2::dsp {
namespace {

class IsaExtraTest : public ::testing::Test
{
  protected:
    IsaExtraTest() : mem(4096), sim(mem) {}

    Memory mem;
    FunctionalSimulator sim;
};

TEST_F(IsaExtraTest, VtmpyComputesStrideTwoTripleTaps)
{
    Rng rng(3);
    const auto lo = rng.uint8Vector(kVectorBytes);
    const auto hi = rng.uint8Vector(kVectorBytes);
    std::copy(lo.begin(), lo.end(), sim.regs().vector[0].begin());
    std::copy(hi.begin(), hi.end(), sim.regs().vector[1].begin());

    const int8_t c0 = 3, c1 = -2, c2 = 5;
    const uint32_t packed = static_cast<uint8_t>(c0) |
                            (static_cast<uint32_t>(
                                 static_cast<uint8_t>(c1))
                             << 8) |
                            (static_cast<uint32_t>(
                                 static_cast<uint8_t>(c2))
                             << 16);
    sim.execute(makeMovi(sreg(1), static_cast<int64_t>(packed)));
    sim.execute(makeVmpa(Opcode::VTMPY, vreg(4), vreg(0), sreg(1)));

    auto tap = [&](const std::vector<uint8_t> &v, int idx,
                   const std::vector<uint8_t> *next) -> int32_t {
        if (idx < kVectorBytes)
            return v[static_cast<size_t>(idx)];
        return next ? (*next)[static_cast<size_t>(idx - kVectorBytes)]
                    : 0;
    };
    for (int r = 0; r < kVectorHalves; ++r) {
        const int32_t expectLo = tap(lo, 2 * r, &hi) * c0 +
                                 tap(lo, 2 * r + 1, &hi) * c1 +
                                 tap(lo, 2 * r + 2, &hi) * c2;
        const int32_t expectHi = tap(hi, 2 * r, nullptr) * c0 +
                                 tap(hi, 2 * r + 1, nullptr) * c1 +
                                 tap(hi, 2 * r + 2, nullptr) * c2;
        EXPECT_EQ(sim.regs().vecHalf(4, r),
                  static_cast<int16_t>(expectLo))
            << "lo lane " << r;
        EXPECT_EQ(sim.regs().vecHalf(5, r),
                  static_cast<int16_t>(expectHi))
            << "hi lane " << r;
    }
}

TEST_F(IsaExtraTest, VmpyeMultipliesEvenHalfwords)
{
    for (int i = 0; i < kVectorHalves; ++i)
        sim.regs().setVecHalf(2, i, static_cast<int16_t>(i * 37 - 500));
    sim.execute(makeMovi(sreg(1), -3));
    sim.execute(makeVmpye(vreg(4), vreg(2), sreg(1)));
    for (int i = 0; i < kVectorWords; ++i)
        EXPECT_EQ(sim.regs().vecWord(4, i),
                  static_cast<int32_t>(2 * i * 37 - 500) * -3)
            << "lane " << i;
}

TEST_F(IsaExtraTest, ShuffleEvenOddPickLanes)
{
    Rng rng(5);
    const auto a = rng.uint8Vector(kVectorBytes);
    const auto b = rng.uint8Vector(kVectorBytes);
    std::copy(a.begin(), a.end(), sim.regs().vector[1].begin());
    std::copy(b.begin(), b.end(), sim.regs().vector[2].begin());

    sim.execute(makeVshuff(Opcode::VSHUFFE, vreg(4), vreg(1), vreg(2), 0));
    sim.execute(makeVshuff(Opcode::VSHUFFO, vreg(5), vreg(1), vreg(2), 0));
    for (int i = 0; i < kVectorBytes / 2; ++i) {
        EXPECT_EQ(sim.regs().vector[4][2 * i], a[2 * i]);
        EXPECT_EQ(sim.regs().vector[4][2 * i + 1], b[2 * i]);
        EXPECT_EQ(sim.regs().vector[5][2 * i], a[2 * i + 1]);
        EXPECT_EQ(sim.regs().vector[5][2 * i + 1], b[2 * i + 1]);
    }
}

TEST_F(IsaExtraTest, DisassemblyIsReadable)
{
    EXPECT_EQ(makeMovi(sreg(5), 42).toString(), "movi r5, #42");
    EXPECT_EQ(makeVload(vreg(3), sreg(1), 128).toString(),
              "vload v3, r1, #128");
    EXPECT_EQ(makeVmpy(Opcode::VMPY, vreg(6), vreg(2), sreg(4)).toString(),
              "vmpy v7:v6, v2, r4");
    EXPECT_EQ(makeJumpNz(sreg(5), 0).toString(), "jumpnz r5, L0");

    Program prog;
    const int label = prog.newLabel();
    prog.bindLabel(label);
    prog.push(makeNop());
    EXPECT_NE(prog.toString().find("L0:"), std::string::npos);
}

TEST_F(IsaExtraTest, OpcodeMetadataInvariants)
{
    for (int op = 0; op < static_cast<int>(Opcode::kNumOpcodes); ++op) {
        const OpcodeInfo &meta = opcodeInfo(static_cast<Opcode>(op));
        EXPECT_NE(meta.mnemonic, nullptr);
        EXPECT_GT(meta.latency, 0);
        EXPECT_NE(meta.slotMask, 0) << meta.mnemonic;
        EXPECT_GE(meta.multUnits, 0);
        EXPECT_LE(meta.multUnits, 2);
        // Only multiply-unit opcodes consume multiply pipes.
        if (meta.multUnits > 0) {
            EXPECT_EQ(static_cast<int>(meta.unit),
                      static_cast<int>(UnitKind::Mult))
                << meta.mnemonic;
        }
    }
}

TEST_F(IsaExtraTest, MemoryBoundsAreEnforced)
{
    Memory small(64);
    EXPECT_THROW(small.load32(62), FatalError);
    EXPECT_THROW(small.store8(64, 1), FatalError);
    EXPECT_NO_THROW(small.store32(60, 7));

    FunctionalSimulator tiny(small);
    tiny.regs().scalar[1] = 0;
    EXPECT_THROW(tiny.execute(makeVload(vreg(0), sreg(1), 0)), FatalError);
}

TEST_F(IsaExtraTest, DivisionByZeroIsFatal)
{
    sim.execute(makeMovi(sreg(1), 5));
    sim.execute(makeMovi(sreg(2), 0));
    EXPECT_THROW(
        sim.execute(makeBinary(Opcode::DIV, sreg(3), sreg(1), sreg(2))),
        FatalError);
}

} // namespace
} // namespace gcd2::dsp
