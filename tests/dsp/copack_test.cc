/**
 * @file
 * Differential tests for the mask-based register footprints and the
 * CopackModel pair tables (dsp/copack.h).
 *
 * The schedule check table verifies the packer's co-pack delay claims
 * by querying CopackModel, and FastIdg forwards its copackDelay to the
 * same tables -- so these tests pin the two equivalences everything
 * rests on:
 *
 *  - regMasks(inst) is exactly the bit-mask form of the regReads /
 *    regWrites uid lists, for every instruction shape;
 *  - copackDelay(a, b) equals the classifyDependency-derived stall (the
 *    soft penalty, 0 for hard/free/independent pairs) for *all* pairs,
 *    not just the chain-adjacent ones the IDG keeps edges for.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "dsp/alias.h"
#include "dsp/copack.h"
#include "dsp/deps.h"
#include "vliw/cfg.h"
#include "vliw/fast_idg.h"

namespace gcd2::dsp {
namespace {

/** Random straight-line program mixing scalar/vector/memory traffic
 *  over few registers, so RAW/WAW/WAR and may-alias pairs are dense. */
Program
randomProgram(Rng &rng)
{
    Program prog;
    const int len = static_cast<int>(rng.uniformInt(10, 48));
    auto s = [&rng] {
        return sreg(static_cast<int>(rng.uniformInt(1, 5)));
    };
    auto v = [&rng] {
        return vreg(static_cast<int>(rng.uniformInt(0, 3)));
    };
    for (int i = 0; i < len; ++i) {
        switch (rng.uniformInt(0, 8)) {
          case 0:
            prog.push(makeBinary(Opcode::ADD, s(), s(), s()));
            break;
          case 1:
            prog.push(makeBinary(Opcode::MUL, s(), s(), s()));
            break;
          case 2:
            prog.push(makeLoad(Opcode::LOADW, s(),
                               sreg(rng.uniformInt(0, 1) ? 0 : 6),
                               rng.uniformInt(0, 32) * 4));
            break;
          case 3:
            prog.push(makeStore(Opcode::STOREW,
                                sreg(rng.uniformInt(0, 1) ? 0 : 6), s(),
                                rng.uniformInt(0, 32) * 4));
            break;
          case 4:
            prog.push(makeVload(v(), sreg(0), rng.uniformInt(0, 7) * 128));
            break;
          case 5:
            prog.push(makeVstore(sreg(0), v(), rng.uniformInt(0, 7) * 128));
            break;
          case 6:
            prog.push(makeVecBinary(Opcode::VADDW, v(), v(), v()));
            break;
          case 7:
            prog.push(makeMovi(s(), rng.uniformInt(-100, 100)));
            break;
          default:
            prog.push(makeAddi(s(), s(), rng.uniformInt(-8, 8)));
            break;
        }
    }
    if (rng.uniformInt(0, 1) != 0)
        prog.noaliasRegs = {0, 6};
    return prog;
}

uint64_t
maskOfList(const RegList &uids)
{
    uint64_t mask = 0;
    for (int uid : uids)
        mask |= uint64_t{1} << uid;
    return mask;
}

constexpr uint64_t kSeed = 0xc0bacc0ULL;

TEST(CopackTest, RegMasksMatchTheUidLists)
{
    Rng rng(kSeed);
    for (int n = 0; n < 50; ++n) {
        const Program prog = randomProgram(rng);
        for (const Instruction &inst : prog.code) {
            const RegMasks masks = regMasks(inst);
            EXPECT_EQ(masks.reads, maskOfList(regReads(inst)))
                << inst.toString();
            EXPECT_EQ(masks.writes, maskOfList(regWrites(inst)))
                << inst.toString();
        }
    }
}

TEST(CopackTest, CopackDelayMatchesTheDependencyClassifier)
{
    Rng rng(kSeed);
    for (int n = 0; n < 50; ++n) {
        const Program prog = randomProgram(rng);
        const AliasAnalysis alias(prog);
        const CopackModel model(prog, alias);
        ASSERT_EQ(model.size(), prog.code.size());
        for (size_t b = 0; b < prog.code.size(); ++b)
            for (size_t a = 0; a < b; ++a) {
                const Dependency dep = classifyDependency(
                    prog.code[a], prog.code[b], alias.mayAlias(a, b));
                const int expected =
                    dep.kind == DepKind::Soft ? dep.penalty : 0;
                EXPECT_EQ(model.copackDelay(a, b), expected)
                    << prog.code[a].toString() << " -> "
                    << prog.code[b].toString();
            }
    }
}

TEST(CopackTest, FastIdgForwardsToTheSameTables)
{
    Rng rng(kSeed);
    for (int n = 0; n < 20; ++n) {
        const Program prog = randomProgram(rng);
        const AliasAnalysis alias(prog);
        // A block starting mid-program exercises the begin offset: the
        // graph's local indices map to absolute alias-probe indices.
        const size_t begin = prog.code.size() / 3;
        const vliw::BasicBlock block{begin, prog.code.size()};
        const vliw::FastIdg idg(prog, block, alias,
                                vliw::SoftDepPolicy::Aware);
        const CopackModel model(prog, begin, prog.code.size() - begin,
                                alias);
        for (size_t b = 0; b < idg.size(); ++b)
            for (size_t a = 0; a < b; ++a)
                EXPECT_EQ(idg.copackDelay(a, b), model.copackDelay(a, b));
    }
}

} // namespace
} // namespace gcd2::dsp
