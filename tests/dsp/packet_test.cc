/**
 * @file
 * VLIW slot/resource constraint tests.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <tuple>

#include "dsp/packet.h"

namespace gcd2::dsp {
namespace {

class PacketTest : public ::testing::Test
{
  protected:
    size_t
    add(Instruction inst)
    {
        return prog.push(inst);
    }

    bool
    feasible(std::vector<size_t> insts)
    {
        return slotsFeasible(prog, insts);
    }

    Program prog;
};

TEST_F(PacketTest, UpToFourAluInstructionsFit)
{
    std::vector<size_t> insts;
    for (int i = 0; i < 5; ++i)
        insts.push_back(add(makeMovi(sreg(i), i)));
    EXPECT_TRUE(feasible({insts[0]}));
    EXPECT_TRUE(feasible({insts[0], insts[1], insts[2], insts[3]}));
    EXPECT_FALSE(
        feasible({insts[0], insts[1], insts[2], insts[3], insts[4]}));
}

TEST_F(PacketTest, TwoShiftsCannotShareAPacket)
{
    // Paper: "packing two shift operations together is not allowed".
    const auto s1 = add(makeShift(Opcode::SHL, sreg(1), sreg(2), 1));
    const auto s2 = add(makeShift(Opcode::SHRA, sreg(3), sreg(4), 1));
    EXPECT_FALSE(feasible({s1, s2}));
}

TEST_F(PacketTest, TwoVectorNarrowingShiftsCannotShareAPacket)
{
    const auto s1 = add(makeVasr(Opcode::VASRHB, vreg(1), vreg(2), 4));
    const auto s2 = add(makeVasr(Opcode::VASRHB, vreg(5), vreg(6), 4));
    EXPECT_FALSE(feasible({s1, s2}));
}

TEST_F(PacketTest, AtMostTwoMemoryOpsAndOneStore)
{
    const auto l1 = add(makeVload(vreg(1), sreg(0), 0));
    const auto l2 = add(makeVload(vreg(2), sreg(0), 128));
    const auto l3 = add(makeVload(vreg(3), sreg(0), 256));
    const auto st1 = add(makeVstore(sreg(1), vreg(4), 0));
    const auto st2 = add(makeVstore(sreg(1), vreg(5), 128));

    EXPECT_TRUE(feasible({l1, l2}));
    EXPECT_FALSE(feasible({l1, l2, l3}));
    EXPECT_TRUE(feasible({l1, st1}));
    EXPECT_FALSE(feasible({st1, st2}));
}

TEST_F(PacketTest, AtMostTwoMultiplies)
{
    const auto m1 = add(makeVrmpy(vreg(1), vreg(2), sreg(1)));
    const auto m2 = add(makeVrmpy(vreg(3), vreg(4), sreg(1)));
    const auto m3 = add(makeVrmpy(vreg(5), vreg(6), sreg(1)));
    EXPECT_TRUE(feasible({m1, m2}));
    EXPECT_FALSE(feasible({m1, m2, m3}));
}

TEST_F(PacketTest, MultipliesConflictWithShiftOrPermutePressure)
{
    // Two multiplies occupy slots 2-3; a shift needs slot 2 and a permute
    // needs slot 3, so neither fits alongside both multiplies -- and a
    // single multiply can coexist with a shift or a permute, but not with
    // both at once (slots 2 and 3 both taken).
    const auto m1 = add(makeVrmpy(vreg(1), vreg(2), sreg(1)));
    const auto m2 = add(makeVrmpy(vreg(3), vreg(4), sreg(1)));
    const auto sh = add(makeVasr(Opcode::VASRHB, vreg(6), vreg(8), 4));
    const auto pm =
        add(makeVshuff(Opcode::VSHUFFE, vreg(10), vreg(11), vreg(12), 1));
    const auto ld = add(makeVload(vreg(14), sreg(0), 0));
    EXPECT_FALSE(feasible({m1, m2, sh}));
    EXPECT_FALSE(feasible({m1, m2, pm}));
    EXPECT_FALSE(feasible({m1, sh, pm}));
    EXPECT_TRUE(feasible({m1, sh, ld}));
    EXPECT_TRUE(feasible({m1, pm, ld}));
}

TEST_F(PacketTest, FullMixedPacket)
{
    // load + store + multiply + shift: one instruction per unit class.
    const auto ld = add(makeVload(vreg(1), sreg(0), 0));
    const auto st = add(makeVstore(sreg(1), vreg(2), 0));
    const auto mp = add(makeVrmpy(vreg(3), vreg(4), sreg(2)));
    const auto sh = add(makeVasr(Opcode::VASRHB, vreg(6), vreg(8), 4));
    EXPECT_TRUE(feasible({ld, st, mp, sh}));
}

TEST_F(PacketTest, TwoBranchesForbidden)
{
    prog.newLabel();
    prog.bindLabel(0);
    const auto j1 = add(makeJump(0));
    const auto j2 = add(makeJumpNz(sreg(1), 0));
    EXPECT_FALSE(feasible({j1, j2}));
}

/** Slot feasibility by trying every assignment of distinct slots. */
bool
bruteForceFeasible(const Program &prog, const std::vector<size_t> &insts)
{
    if (insts.size() > static_cast<size_t>(kPacketSlots))
        return false;
    int branches = 0;
    int multUnits = 0;
    for (size_t idx : insts) {
        branches += prog.code[idx].isBranch() ? 1 : 0;
        multUnits += prog.code[idx].info().multUnits;
    }
    if (branches > 1 || multUnits > 2)
        return false;
    std::array<int, kPacketSlots> slots{0, 1, 2, 3};
    do {
        bool fits = true;
        for (size_t k = 0; k < insts.size(); ++k)
            fits = fits && ((prog.code[insts[k]].info().slotMask >>
                             slots[k]) & 1) != 0;
        if (fits)
            return true;
    } while (std::next_permutation(slots.begin(), slots.end()));
    return false;
}

TEST(SlotOracleTest, EveryClassMultisetMatchesBruteForce)
{
    // One representative opcode per (slotMask, multUnits, isBranch)
    // class; slot feasibility reads nothing else of an instruction.
    constexpr int kMaxInsts = 5;
    Program prog;
    std::vector<std::tuple<uint8_t, int, bool>> classes;
    std::vector<size_t> firstCopy;
    for (int op = 0; op < static_cast<int>(Opcode::kNumOpcodes); ++op) {
        Instruction inst;
        inst.op = static_cast<Opcode>(op);
        const auto cls = std::make_tuple(inst.info().slotMask,
                                         inst.info().multUnits,
                                         inst.isBranch());
        if (std::find(classes.begin(), classes.end(), cls) !=
            classes.end())
            continue;
        classes.push_back(cls);
        // Distinct copies, so a multiset never repeats an index.
        firstCopy.push_back(prog.code.size());
        for (int c = 0; c < kMaxInsts; ++c)
            prog.push(inst);
    }
    ASSERT_GE(classes.size(), 4u);

    size_t checked = 0;
    size_t feasibleFull = 0;
    bool sawTwoBranches = false;
    bool sawWideMultiply = false;
    // Multisets as non-decreasing class sequences.
    std::vector<size_t> pick;
    const auto visit = [&](const auto &self) -> void {
        if (!pick.empty()) {
            std::vector<size_t> insts;
            int branches = 0;
            int multUnits = 0;
            for (size_t k = 0; k < pick.size(); ++k) {
                const size_t copy = static_cast<size_t>(
                    std::count(pick.begin(), pick.begin() + k, pick[k]));
                insts.push_back(firstCopy[pick[k]] + copy);
                branches += std::get<2>(classes[pick[k]]) ? 1 : 0;
                multUnits += std::get<1>(classes[pick[k]]);
            }
            sawTwoBranches = sawTwoBranches || branches > 1;
            sawWideMultiply = sawWideMultiply || multUnits > 2;

            const bool expect = bruteForceFeasible(prog, insts);
            EXPECT_EQ(slotsFeasible(prog, insts), expect);
            std::vector<size_t> reversed(insts.rbegin(), insts.rend());
            EXPECT_EQ(slotsFeasible(prog, reversed), expect);
            const std::span<const size_t> members(insts.data(),
                                                  insts.size() - 1);
            EXPECT_EQ(slotsFeasibleWith(prog, members, insts.back()),
                      expect);
            feasibleFull +=
                expect && insts.size() == static_cast<size_t>(kPacketSlots)
                    ? 1
                    : 0;
            ++checked;
        }
        if (pick.size() == static_cast<size_t>(kMaxInsts))
            return;
        for (size_t c = pick.empty() ? 0 : pick.back();
             c < classes.size(); ++c) {
            pick.push_back(c);
            self(self);
            pick.pop_back();
        }
    };
    visit(visit);

    EXPECT_GT(checked, 1000u);
    EXPECT_GT(feasibleFull, 0u);
    EXPECT_TRUE(sawTwoBranches);
    EXPECT_TRUE(sawWideMultiply);
}

} // namespace
} // namespace gcd2::dsp
