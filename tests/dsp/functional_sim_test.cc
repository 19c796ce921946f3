/**
 * @file
 * Functional-simulator tests: exact integer semantics of every opcode the
 * kernel generators rely on, including the three paper instructions
 * (vmpy / vmpa / vrmpy) against scalar references.
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "dsp/functional_sim.h"
#include "dsp/timing_sim.h"

namespace gcd2::dsp {
namespace {

class FunctionalSimTest : public ::testing::Test
{
  protected:
    FunctionalSimTest() : mem(1 << 16), sim(mem) {}

    Memory mem;
    FunctionalSimulator sim;
};

TEST_F(FunctionalSimTest, ScalarAluBasics)
{
    sim.execute(makeMovi(sreg(1), 40));
    sim.execute(makeMovi(sreg(2), 2));
    sim.execute(makeBinary(Opcode::ADD, sreg(3), sreg(1), sreg(2)));
    EXPECT_EQ(sim.regs().scalar[3], 42u);

    sim.execute(makeBinary(Opcode::SUB, sreg(4), sreg(1), sreg(2)));
    EXPECT_EQ(sim.regs().scalar[4], 38u);

    sim.execute(makeBinary(Opcode::MUL, sreg(5), sreg(1), sreg(2)));
    EXPECT_EQ(sim.regs().scalar[5], 80u);

    sim.execute(makeAddi(sreg(6), sreg(1), -1));
    EXPECT_EQ(sim.regs().scalar[6], 39u);

    sim.execute(makeShift(Opcode::SHL, sreg(7), sreg(2), 4));
    EXPECT_EQ(sim.regs().scalar[7], 32u);

    sim.execute(makeMovi(sreg(8), -64));
    sim.execute(makeShift(Opcode::SHRA, sreg(9), sreg(8), 3));
    EXPECT_EQ(static_cast<int32_t>(sim.regs().scalar[9]), -8);

    sim.execute(makeBinary(Opcode::DIV, sreg(10), sreg(1), sreg(2)));
    EXPECT_EQ(sim.regs().scalar[10], 20u);
}

TEST_F(FunctionalSimTest, Combine4ReplicatesLowByte)
{
    sim.execute(makeMovi(sreg(1), 0x17f));
    sim.execute(makeCombine4(sreg(2), sreg(1)));
    EXPECT_EQ(sim.regs().scalar[2], 0x7f7f7f7fu);
}

TEST_F(FunctionalSimTest, ScalarLoadStoreRoundTrip)
{
    sim.execute(makeMovi(sreg(1), 0x100));
    sim.execute(makeMovi(sreg(2), 0xdeadbeef));
    sim.execute(makeStore(Opcode::STOREW, sreg(1), sreg(2), 8));
    sim.execute(makeLoad(Opcode::LOADW, sreg(3), sreg(1), 8));
    EXPECT_EQ(sim.regs().scalar[3], 0xdeadbeefu);

    // Byte load sign-extends.
    sim.execute(makeMovi(sreg(4), 0x80));
    sim.execute(makeStore(Opcode::STOREB, sreg(1), sreg(4), 0));
    sim.execute(makeLoad(Opcode::LOADB, sreg(5), sreg(1), 0));
    EXPECT_EQ(static_cast<int32_t>(sim.regs().scalar[5]), -128);
}

TEST_F(FunctionalSimTest, VectorLoadStoreRoundTrip)
{
    Rng rng(7);
    const auto data = rng.uint8Vector(kVectorBytes);
    mem.writeBytes(0x200, data.data(), data.size());

    sim.execute(makeMovi(sreg(1), 0x200));
    sim.execute(makeVload(vreg(2), sreg(1), 0));
    sim.execute(makeVstore(sreg(1), vreg(2), 256));

    std::vector<uint8_t> out(kVectorBytes);
    mem.readBytes(0x200 + 256, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(FunctionalSimTest, VmpyMatchesScalarReference)
{
    Rng rng(11);
    const auto input = rng.uint8Vector(kVectorBytes);
    mem.writeBytes(0x300, input.data(), input.size());
    const auto weights = rng.int8Vector(4);
    uint32_t packed = 0;
    for (int j = 0; j < 4; ++j)
        packed |= static_cast<uint32_t>(static_cast<uint8_t>(weights[j]))
                  << (8 * j);

    sim.execute(makeMovi(sreg(1), 0x300));
    sim.execute(makeVload(vreg(4), sreg(1), 0));
    sim.execute(makeMovi(sreg(2), static_cast<int64_t>(packed)));
    sim.execute(makeVmpy(Opcode::VMPY, vreg(6), vreg(4), sreg(2)));

    // Reference per Fig. 1 (a): lane i * weight[i % 4]; even lanes to the
    // low pair register, odd lanes to the high one.
    for (int i = 0; i < kVectorBytes; ++i) {
        const int16_t expect = static_cast<int16_t>(
            static_cast<int32_t>(input[i]) * weights[i % 4]);
        const int reg = (i % 2 == 0) ? 6 : 7;
        EXPECT_EQ(sim.regs().vecHalf(reg, i / 2), expect) << "lane " << i;
    }

    // Accumulating form adds on top.
    sim.execute(makeVmpy(Opcode::VMPYACC, vreg(6), vreg(4), sreg(2)));
    for (int i = 0; i < kVectorBytes; ++i) {
        const int16_t expect = static_cast<int16_t>(
            2 * (static_cast<int32_t>(input[i]) * weights[i % 4]));
        const int reg = (i % 2 == 0) ? 6 : 7;
        EXPECT_EQ(sim.regs().vecHalf(reg, i / 2), expect) << "lane " << i;
    }
}

TEST_F(FunctionalSimTest, VmpaMatchesScalarReference)
{
    Rng rng(13);
    const auto lo = rng.uint8Vector(kVectorBytes);
    const auto hi = rng.uint8Vector(kVectorBytes);
    mem.writeBytes(0x400, lo.data(), lo.size());
    mem.writeBytes(0x400 + kVectorBytes, hi.data(), hi.size());
    const auto weights = rng.int8Vector(4);
    uint32_t packed = 0;
    for (int j = 0; j < 4; ++j)
        packed |= static_cast<uint32_t>(static_cast<uint8_t>(weights[j]))
                  << (8 * j);

    sim.execute(makeMovi(sreg(1), 0x400));
    sim.execute(makeVload(vreg(4), sreg(1), 0));
    sim.execute(makeVload(vreg(5), sreg(1), kVectorBytes));
    sim.execute(makeMovi(sreg(2), static_cast<int64_t>(packed)));
    sim.execute(makeVmpa(Opcode::VMPA, vreg(8), vreg(4), sreg(2)));

    // Reference per Fig. 1 (b): element pairs from the low source scale by
    // weights 0-1 into the low accumulator; pairs from the high source by
    // weights 2-3 into the high accumulator.
    for (int r = 0; r < kVectorHalves; ++r) {
        const int16_t expectLo = static_cast<int16_t>(
            static_cast<int32_t>(lo[2 * r]) * weights[0] +
            static_cast<int32_t>(lo[2 * r + 1]) * weights[1]);
        const int16_t expectHi = static_cast<int16_t>(
            static_cast<int32_t>(hi[2 * r]) * weights[2] +
            static_cast<int32_t>(hi[2 * r + 1]) * weights[3]);
        EXPECT_EQ(sim.regs().vecHalf(8, r), expectLo) << "lane " << r;
        EXPECT_EQ(sim.regs().vecHalf(9, r), expectHi) << "lane " << r;
    }
}

TEST_F(FunctionalSimTest, VrmpyMatchesScalarReference)
{
    Rng rng(17);
    const auto input = rng.uint8Vector(kVectorBytes);
    mem.writeBytes(0x500, input.data(), input.size());
    const auto weights = rng.int8Vector(4);
    uint32_t packed = 0;
    for (int j = 0; j < 4; ++j)
        packed |= static_cast<uint32_t>(static_cast<uint8_t>(weights[j]))
                  << (8 * j);

    sim.execute(makeMovi(sreg(1), 0x500));
    sim.execute(makeVload(vreg(4), sreg(1), 0));
    sim.execute(makeMovi(sreg(2), static_cast<int64_t>(packed)));
    sim.execute(makeVrmpy(vreg(6), vreg(4), sreg(2)));
    sim.execute(makeVrmpy(vreg(6), vreg(4), sreg(2))); // accumulate twice

    for (int i = 0; i < kVectorWords; ++i) {
        int32_t dot = 0;
        for (int j = 0; j < 4; ++j)
            dot += static_cast<int32_t>(input[4 * i + j]) * weights[j];
        EXPECT_EQ(sim.regs().vecWord(6, i), 2 * dot) << "lane " << i;
    }
}

TEST_F(FunctionalSimTest, NarrowingShiftsRoundAndSaturate)
{
    // VASRHB: halfword pair -> bytes.
    sim.regs().setVecHalf(4, 0, 1000);  // saturates to 127 after >>2
    sim.regs().setVecHalf(4, 1, 10);    // (10 + 2) >> 2 = 3
    sim.regs().setVecHalf(4, 2, -1000); // saturates to -128
    sim.regs().setVecHalf(5, 0, 9);     // (9 + 2) >> 2 = 2 (lands lane 64)
    sim.execute(makeVasr(Opcode::VASRHB, vreg(8), vreg(4), 2));
    EXPECT_EQ(static_cast<int8_t>(sim.regs().vector[8][0]), 127);
    EXPECT_EQ(static_cast<int8_t>(sim.regs().vector[8][1]), 3);
    EXPECT_EQ(static_cast<int8_t>(sim.regs().vector[8][2]), -128);
    EXPECT_EQ(static_cast<int8_t>(sim.regs().vector[8][64]), 2);

    // VASRWH: word pair -> halfwords.
    sim.regs().setVecWord(10, 0, 1 << 20);
    sim.regs().setVecWord(11, 0, -(1 << 20));
    sim.execute(makeVasr(Opcode::VASRWH, vreg(9), vreg(10), 4));
    EXPECT_EQ(sim.regs().vecHalf(9, 0), 32767);  // saturated
    EXPECT_EQ(sim.regs().vecHalf(9, 32), -32768);
}

TEST_F(FunctionalSimTest, ShuffleAndDealAreInverses)
{
    Rng rng(19);
    const auto a = rng.uint8Vector(kVectorBytes);
    const auto b = rng.uint8Vector(kVectorBytes);
    std::copy(a.begin(), a.end(), sim.regs().vector[1].begin());
    std::copy(b.begin(), b.end(), sim.regs().vector[2].begin());

    for (int lane = 0; lane <= 2; ++lane) {
        sim.execute(makeVshuff(Opcode::VSHUFF, vreg(4), vreg(1), vreg(2),
                               lane));
        sim.execute(makeVshuff(Opcode::VDEAL, vreg(6), vreg(4), vreg(5),
                               lane));
        EXPECT_EQ(sim.regs().vector[6], sim.regs().vector[1])
            << "lane size " << lane;
        EXPECT_EQ(sim.regs().vector[7], sim.regs().vector[2])
            << "lane size " << lane;
    }
}

TEST_F(FunctionalSimTest, HalfwordShuffleRestoresVmpyOrder)
{
    // vmpy splits products even/odd; a halfword VSHUFF restores element
    // order (paper: "eventually be shuffled to obtain an output layout
    // matching the input layout").
    Rng rng(23);
    const auto input = rng.uint8Vector(kVectorBytes);
    std::copy(input.begin(), input.end(), sim.regs().vector[1].begin());
    sim.execute(makeMovi(sreg(2), 0x02020202)); // all weights = 2
    sim.execute(makeVmpy(Opcode::VMPY, vreg(4), vreg(1), sreg(2)));
    sim.execute(makeVshuff(Opcode::VSHUFF, vreg(6), vreg(4), vreg(5), 1));

    for (int i = 0; i < kVectorBytes; ++i) {
        const int reg = (i < kVectorHalves) ? 6 : 7;
        const int lane = i % kVectorHalves;
        EXPECT_EQ(sim.regs().vecHalf(reg, lane),
                  static_cast<int16_t>(2 * input[i]))
            << "element " << i;
    }
}

TEST_F(FunctionalSimTest, LoopProgramExecutes)
{
    // Sum 1..10 with a decrement/branch loop.
    Program prog;
    const int loop = prog.newLabel();
    prog.push(makeMovi(sreg(1), 10)); // counter
    prog.push(makeMovi(sreg(2), 0));  // sum
    prog.bindLabel(loop);
    prog.push(makeBinary(Opcode::ADD, sreg(2), sreg(2), sreg(1)));
    prog.push(makeAddi(sreg(1), sreg(1), -1));
    prog.push(makeJumpNz(sreg(1), loop));

    sim.run(prog);
    EXPECT_EQ(sim.regs().scalar[2], 55u);
    EXPECT_EQ(sim.stats().branchesTaken, 9u);
}

TEST_F(FunctionalSimTest, VectorAluLanes)
{
    sim.regs().vector[1][0] = static_cast<uint8_t>(-5);
    sim.regs().vector[2][0] = 3;
    sim.execute(makeVecBinary(Opcode::VMAXB, vreg(3), vreg(1), vreg(2)));
    EXPECT_EQ(static_cast<int8_t>(sim.regs().vector[3][0]), 3);
    sim.execute(makeVecBinary(Opcode::VMINB, vreg(4), vreg(1), vreg(2)));
    EXPECT_EQ(static_cast<int8_t>(sim.regs().vector[4][0]), -5);

    sim.regs().setVecHalf(5, 3, 1200);
    sim.regs().setVecHalf(6, 3, -200);
    sim.execute(makeVecBinary(Opcode::VADDH, vreg(7), vreg(5), vreg(6)));
    EXPECT_EQ(sim.regs().vecHalf(7, 3), 1000);

    sim.regs().setVecWord(8, 7, 1 << 30);
    sim.regs().setVecWord(9, 7, 1 << 30);
    sim.execute(makeVecBinary(Opcode::VADDW, vreg(10), vreg(8), vreg(9)));
    EXPECT_EQ(sim.regs().vecWord(10, 7),
              static_cast<int32_t>(0x80000000u)); // wraps

    // Word lanes that overflow int32 wrap modulo 2^32 (HVX semantics) in
    // both engines: the functional simulator and the pre-decoded engine
    // behind TimingSimulator::run execute one program and must agree
    // with each other and with the wrapped values in every lane.
    Program prog;
    prog.push(makeMovi(sreg(1), INT32_MIN));
    prog.push(makeVsplatw(vreg(1), sreg(1)));
    prog.push(makeMovi(sreg(2), 1));
    prog.push(makeVsplatw(vreg(2), sreg(2)));
    prog.push(makeVecBinary(Opcode::VSUBW, vreg(3), vreg(1), vreg(2)));
    prog.push(makeMovi(sreg(3), -1));
    prog.push(makeVmpyiw(vreg(4), vreg(1), sreg(3)));
    prog.push(makeMovi(sreg(4), 0x40000000));
    prog.push(makeVsplatw(vreg(5), sreg(4)));
    prog.push(makeMovi(sreg(5), 4));
    prog.push(makeVmpyiw(vreg(6), vreg(5), sreg(5)));
    prog.push(makeVecBinary(Opcode::VADDW, vreg(7), vreg(5), vreg(5)));
    const struct
    {
        int reg;
        int32_t wrapped;
    } lanes[] = {
        {3, INT32_MAX}, // INT32_MIN - 1
        {4, INT32_MIN}, // INT32_MIN * -1
        {6, 0},         // 0x40000000 * 4
        {7, INT32_MIN}, // 0x40000000 + 0x40000000
    };

    Memory funcMem(64);
    FunctionalSimulator func(funcMem);
    func.run(prog);

    PackedProgram packed;
    packed.program = prog;
    for (size_t i = 0; i < prog.code.size(); ++i)
        packed.packets.push_back(Packet{{i}});
    Memory decMem(64);
    TimingSimulator decoded(decMem);
    decoded.run(packed, /*validate=*/true);

    EXPECT_EQ(func.regs().scalar, decoded.regs().scalar);
    EXPECT_EQ(func.regs().vector, decoded.regs().vector);
    for (const auto &lane : lanes) {
        for (int i = 0; i < kVectorWords; ++i) {
            EXPECT_EQ(func.regs().vecWord(lane.reg, i), lane.wrapped)
                << "functional v" << lane.reg << " lane " << i;
            EXPECT_EQ(decoded.regs().vecWord(lane.reg, i), lane.wrapped)
                << "decoded v" << lane.reg << " lane " << i;
        }
    }
}

TEST_F(FunctionalSimTest, VmpyiwScalesWordLanes)
{
    sim.regs().setVecWord(1, 5, 123);
    sim.execute(makeMovi(sreg(2), 1000));
    sim.execute(makeVmpyiw(vreg(3), vreg(1), sreg(2)));
    EXPECT_EQ(sim.regs().vecWord(3, 5), 123000);
}

} // namespace
} // namespace gcd2::dsp
