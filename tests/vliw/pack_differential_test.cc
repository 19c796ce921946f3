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
 * slot-mask mix, and the tile kernels of the unroll grid pin it on the
 * programs a deep audit re-packs; directed cases pin the cache's
 * identity/keying behavior.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "kernels/matmul.h"
#include "kernels/unroll.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "tensor/layout.h"
#include "vliw/cfg.h"
#include "vliw/pack_cache.h"
#include "vliw/packer.h"
#include "random_programs.h"

namespace gcd2::vliw {
namespace {

using namespace gcd2::dsp;
using testing::randomProgram;

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

TEST(PackDifferentialTest, SdaEnsembleFuzzBitIdentical)
{
    // The SDA ensemble runs seven repairs and skips those that must
    // repeat an earlier one. A wrong skip only shows when the skipped
    // candidate would have been the unique best, which takes one program
    // in ~100 of this generator, so this sweep is wider than the
    // all-policy fuzz above.
    Rng rng(0x5da3e5ULL);
    constexpr int kPrograms = 400;
    for (int n = 0; n < kPrograms; ++n) {
        const Program prog = randomProgram(rng);
        expectSamePacking(packReference(prog, {}), pack(prog, {}),
                          "sda fuzz #" + std::to_string(n));
        if (HasFailure()) {
            ADD_FAILURE() << "first divergence at program " << n
                          << "; seed 0x5da3e5";
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

TEST(PackDifferentialTest, DeepAuditTileKernelsBitIdentical)
{
    // The programs a deep audit's exhaustive re-cost packs: the matmul
    // tile kernel of every scheme and every unroll candidate, with the
    // cost model's tile geometry (one layout panel of rows and one output
    // unit of columns per unroll step), at the tiered coster's low anchor
    // depth (8 inner-loop iterations) and at one deep reduction. Column
    // factors past the no-spill accumulator limit (vmpa/vrmpy cols 8,
    // only reachable by exhaustive unroll search) have their own test
    // below: their blocks of up to 780 instructions take the reference
    // packer ~12 s per depth over the whole grid.
    using kernels::MatMulScheme;
    size_t programs = 0;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        const int64_t panelRows =
            tensor::layoutPanelRows(kernels::schemeLayout(scheme));
        const int64_t colsPerUnit = scheme == MatMulScheme::Vmpy   ? 1
                                    : scheme == MatMulScheme::Vmpa ? 2
                                                                   : 4;
        const int noSpillCols = scheme == MatMulScheme::Vmpy ? 8 : 4;
        for (const kernels::UnrollChoice &choice :
             kernels::unrollCandidates()) {
            if (choice.cols > noSpillCols)
                continue;
            for (const int64_t k :
                 {kernels::kQuantum(scheme, choice.k) * 8, int64_t{1024}}) {
                const kernels::MatMulShape tile{panelRows * choice.outer, k,
                                                colsPerUnit * choice.cols};
                const Program prog =
                    kernels::MatMulKernel(
                        tile,
                        kernels::withUnroll({.scheme = scheme}, choice))
                        .program();
                expectSamePacking(
                    packReference(prog, {}), pack(prog, {}),
                    std::string(kernels::schemeName(scheme)) + " unroll " +
                        std::to_string(choice.outer) + "/" +
                        std::to_string(choice.cols) + "/" +
                        std::to_string(choice.k) + " k " +
                        std::to_string(k));
                ++programs;
            }
            if (HasFailure())
                return;
        }
    }
    // 32 vmpy candidates + 24 each for vmpa and vrmpy, at two depths.
    EXPECT_EQ(programs, (32u + 24u + 24u) * 2u);
}

TEST(PackDifferentialTest, DeepAuditSpillingTileKernelsBitIdentical)
{
    // The vmpa/vrmpy column factor 8 the test above leaves out, which the
    // exhaustive unroll search still packs: one outer panel, every K
    // factor, at the anchor depth. Their loop bodies run from 70 to 780
    // instructions; the depth does not change a body, and a second outer
    // panel repeats the same body sizes at twice the reference packer's
    // cost.
    using kernels::MatMulScheme;
    size_t largestBlock = 0;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        const int64_t panelRows =
            tensor::layoutPanelRows(kernels::schemeLayout(scheme));
        const int64_t colsPerUnit = scheme == MatMulScheme::Vmpa ? 2 : 4;
        for (const int k : {1, 2, 4, 8}) {
            const kernels::UnrollChoice choice{.outer = 1, .cols = 8, .k = k};
            const kernels::MatMulShape tile{
                panelRows, kernels::kQuantum(scheme, k) * 8,
                colsPerUnit * choice.cols};
            const Program prog =
                kernels::MatMulKernel(
                    tile, kernels::withUnroll({.scheme = scheme}, choice))
                    .program();
            largestBlock =
                std::max(largestBlock, buildCfg(prog).largestBlock().size());
            expectSamePacking(packReference(prog, {}), pack(prog, {}),
                              std::string(kernels::schemeName(scheme)) +
                                  " unroll 1/8/" + std::to_string(k));
            if (HasFailure())
                return;
        }
    }
    EXPECT_GE(largestBlock, 700u);
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
