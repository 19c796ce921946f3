/**
 * @file
 * Differential tests for the scalable packer (pack_fast.cc) and the
 * process-wide PackCache.
 *
 * The fast packer's contract is *bit identity* with the retained
 * reference implementation (vliw::packReference): the same packets, in
 * the same order, with the same intra-packet instruction order and the
 * same label mapping -- for every program and every packing policy. A
 * seeded random-program fuzzer (same generator family as
 * tests/dsp/decoded_engine_test.cc) pins that contract across all five
 * policies; the kernel programs real zoo compiles serve pin it at their
 * block sizes (up to ~140 instructions) and on their multiply-unit and
 * slot-mask mix; directed cases pin the cache's identity/keying behavior.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "vliw/cfg.h"
#include "vliw/pack_cache.h"
#include "vliw/packer.h"

namespace gcd2::vliw {
namespace {

using namespace gcd2::dsp;

void
expectSamePacking(const PackedProgram &ref, const PackedProgram &fast,
                  const std::string &what)
{
    ASSERT_EQ(ref.packets.size(), fast.packets.size()) << what;
    for (size_t p = 0; p < ref.packets.size(); ++p)
        EXPECT_EQ(ref.packets[p].insts, fast.packets[p].insts)
            << what << " packet " << p;
    EXPECT_EQ(ref.labelPacket, fast.labelPacket) << what;
}

/** Random program: seeded registers, then a bounded countdown loop whose
 *  body mixes scalar ALU, multiplies (forwarding penalty 2), memory at
 *  random offsets, and vector ops -- the full classification surface the
 *  packer schedules around. */
Program
randomProgram(Rng &rng)
{
    Program prog;
    prog.push(makeMovi(sreg(0), 512));
    for (int r = 1; r <= 8; ++r)
        prog.push(makeMovi(sreg(r), rng.uniformInt(-64, 64)));
    const int counter = 10;
    prog.push(makeMovi(sreg(counter), rng.uniformInt(2, 3)));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);

    auto s = [&rng] {
        return sreg(static_cast<int>(rng.uniformInt(1, 8)));
    };
    auto v = [&rng] {
        return vreg(static_cast<int>(rng.uniformInt(0, 7)));
    };
    const int bodyLen = static_cast<int>(rng.uniformInt(10, 36));
    for (int i = 0; i < bodyLen; ++i) {
        switch (rng.uniformInt(0, 9)) {
          case 0:
            prog.push(makeBinary(Opcode::ADD, s(), s(), s()));
            break;
          case 1:
            prog.push(makeBinary(Opcode::MUL, s(), s(), s()));
            break;
          case 2:
            prog.push(makeLoad(Opcode::LOADW, s(), sreg(0),
                               rng.uniformInt(0, 255) * 4));
            break;
          case 3:
            prog.push(makeStore(Opcode::STOREW, sreg(0), s(),
                               rng.uniformInt(0, 255) * 4));
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
            prog.push(makeShift(Opcode::SHL, s(), s(),
                                rng.uniformInt(0, 7)));
            break;
          case 8:
            prog.push(makeVsplatw(v(), s()));
            break;
          default:
            prog.push(makeAddi(s(), s(), rng.uniformInt(-16, 16)));
            break;
        }
    }
    prog.push(makeAddi(sreg(counter), sreg(counter), -1));
    prog.push(makeJumpNz(sreg(counter), loop));
    if (rng.uniformInt(0, 1) != 0)
        prog.noaliasRegs = {0};
    return prog;
}

const PackPolicy kPolicies[] = {
    PackPolicy::Sda,       PackPolicy::SoftToHard,
    PackPolicy::SoftToNone, PackPolicy::InOrder,
    PackPolicy::ListSched,
};

TEST(PackDifferentialTest, FuzzBitIdenticalAcrossAllPolicies)
{
    Rng rng(0x9acfa57ULL);
    constexpr int kPrograms = 50;
    for (int n = 0; n < kPrograms; ++n) {
        const Program prog = randomProgram(rng);
        // Every program runs through *every* policy, not a rotation: the
        // five engines share machinery but diverge in graph policy,
        // belief, and candidate ensemble.
        for (const PackPolicy policy : kPolicies) {
            PackOptions opts;
            opts.policy = policy;
            const PackedProgram ref = packReference(prog, opts);
            const PackedProgram fast = pack(prog, opts);
            expectSamePacking(ref, fast,
                              "fuzz #" + std::to_string(n) + " policy " +
                                  packPolicyName(policy));
            validatePackedProgram(fast);
        }
        if (HasFailure()) {
            ADD_FAILURE() << "first divergence at fuzz program " << n
                          << "; seed 0x9acfa57";
            break;
        }
    }
}

TEST(PackDifferentialTest, ServedZooKernelsBitIdenticalAcrossAllPolicies)
{
    // The distinct kernel programs that compiles of a residual CNN, a
    // depthwise/squeeze-excite CNN and a transformer actually serve.
    std::vector<Program> programs;
    std::vector<PackKey> seen;
    for (const models::ModelId id :
         {models::ModelId::ResNet50, models::ModelId::MobileNetV3,
          models::ModelId::TinyBert}) {
        const runtime::CompiledModel compiled =
            runtime::compile(models::buildModel(id));
        for (const auto &served : compiled.schedules) {
            const Program &prog = served.program->program;
            const PackKey key = fingerprintForPacking(prog, {});
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                continue;
            seen.push_back(key);
            programs.push_back(prog);
        }
    }
    ASSERT_GE(programs.size(), 10u);

    size_t largestBlock = 0;
    for (size_t n = 0; n < programs.size(); ++n) {
        const Program &prog = programs[n];
        for (const BasicBlock &block : buildCfg(prog).blocks)
            largestBlock = std::max(largestBlock, block.size());
        for (const PackPolicy policy : kPolicies) {
            PackOptions opts;
            opts.policy = policy;
            expectSamePacking(packReference(prog, opts), pack(prog, opts),
                              "served kernel #" + std::to_string(n) +
                                  " policy " + packPolicyName(policy));
        }
        if (HasFailure())
            break;
    }
    // The zoo's blocks run well past the fuzzer's 36-instruction bodies.
    EXPECT_GE(largestBlock, 100u);
}

// PackCache ------------------------------------------------------------

TEST(PackCacheTest, HitsOnIdenticalProgramsAndSharesThePointer)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 7));
    prog.push(makeAddi(sreg(2), sreg(1), 1));

    PackCache cache;
    const auto first = cache.lookupOrPack(prog);
    const auto second = cache.lookupOrPack(prog);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.stats().packSeconds, 0.0);

    // The cached artifact is the packer's own output.
    expectSamePacking(packReference(prog), *first, "cached program");
}

TEST(PackCacheTest, FingerprintSeesEveryPackingInput)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 7));
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 0));
    const PackOptions base;
    const PackKey key = fingerprintForPacking(prog, base);

    Program imm = prog;
    imm.code[0].imm = 8;
    EXPECT_FALSE(key == fingerprintForPacking(imm, base));

    Program noalias = prog;
    noalias.noaliasRegs.push_back(1);
    EXPECT_FALSE(key == fingerprintForPacking(noalias, base));

    PackOptions policy = base;
    policy.policy = PackPolicy::InOrder;
    EXPECT_FALSE(key == fingerprintForPacking(prog, policy));

    PackOptions weight = base;
    weight.w += 0.125;
    EXPECT_FALSE(key == fingerprintForPacking(prog, weight));

    PackOptions scale = base;
    scale.penaltyScale += 0.5;
    EXPECT_FALSE(key == fingerprintForPacking(prog, scale));
}

TEST(PackCacheTest, DistinctOptionsPackDistinctEntries)
{
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(1), sreg(0), 0));
    prog.push(makeBinary(Opcode::ADD, sreg(2), sreg(1), sreg(3)));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(2), 128));

    PackCache cache;
    PackOptions sda;
    PackOptions inOrder;
    inOrder.policy = PackPolicy::InOrder;
    const auto a = cache.lookupOrPack(prog, sda);
    const auto b = cache.lookupOrPack(prog, inOrder);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

} // namespace
} // namespace gcd2::vliw
