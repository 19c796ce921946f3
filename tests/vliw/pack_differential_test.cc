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
 *
 * The PackCache's block-schedule tier is held to the same contract: a
 * packed program it assembles from cached block schedules equals a
 * direct pack() bit for bit, on random programs and immediate/register
 * variants of them under every policy, on every zoo served program, and
 * on every depth variant of every matmul tile class.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>

#include "common/rng.h"
#include "kernels/matmul.h"
#include "kernels/unroll.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "vliw/cfg.h"
#include "vliw/pack_cache.h"
#include "vliw/packer.h"
#include "random_programs.h"

namespace gcd2::vliw {
namespace {

using namespace gcd2::dsp;
using testing::randomBlock;
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
    // depth (8 inner-loop iterations) and at one deep reduction. Tiles
    // past the no-spill accumulator limit (only reachable by exhaustive
    // unroll search) have their own test below: their blocks of up to
    // 780 instructions take the reference packer ~12 s per depth over
    // the whole grid.
    using kernels::MatMulScheme;
    size_t programs = 0;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        for (const kernels::UnrollChoice &choice :
             kernels::unrollCandidates()) {
            if (choice.cols >
                kernels::schemeInfo(scheme).noSpillUnits(choice.outer))
                continue;
            for (const int64_t k :
                 {kernels::kQuantum(scheme, choice.k) * 8, int64_t{1024}}) {
                const kernels::MatMulShape tile =
                    kernels::unrollTile(scheme, choice, k);
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
    // One outer panel: 16 vmpy candidates + 12 each for vmpa and vrmpy;
    // two register-blocked panels halve the column budget: 12 + 8 + 8.
    EXPECT_EQ(programs, (16u + 12u + 12u + 12u + 8u + 8u) * 2u);
}

TEST(PackDifferentialTest, DeepAuditSpillingTileKernelsBitIdentical)
{
    // The tiles the test above leaves out whose accumulators fill the
    // bank twice over, which the exhaustive unroll search still packs:
    // vmpa/vrmpy at one outer panel and column factor 8, and every scheme
    // blocked over two panels at twice its two-panel column budget, every
    // K factor, at the anchor depth. Their loop bodies run from 70 to 780
    // instructions; the depth does not change a body. The wider tiles of
    // two panels (vmpa/vrmpy cols 8) spill three quarters of their bank
    // and would double the reference packer's cost.
    using kernels::MatMulScheme;
    size_t largestBlock = 0;
    size_t programs = 0;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        for (const kernels::UnrollChoice &choice :
             kernels::unrollCandidates()) {
            if (choice.cols !=
                2 * kernels::schemeInfo(scheme).noSpillUnits(choice.outer))
                continue;
            const kernels::MatMulShape tile = kernels::unrollTile(
                scheme, choice, kernels::kQuantum(scheme, choice.k) * 8);
            const Program prog =
                kernels::MatMulKernel(
                    tile, kernels::withUnroll({.scheme = scheme}, choice))
                    .program();
            largestBlock =
                std::max(largestBlock, buildCfg(prog).largestBlock().size());
            expectSamePacking(packReference(prog, {}), pack(prog, {}),
                              std::string(kernels::schemeName(scheme)) +
                                  " unroll " + std::to_string(choice.outer) +
                                  "/" + std::to_string(choice.cols) + "/" +
                                  std::to_string(choice.k));
            ++programs;
            if (HasFailure())
                return;
        }
    }
    // vmpy 2/8; vmpa and vrmpy 1/8 and 2/4; four K factors each.
    EXPECT_EQ(programs, (1u + 2u + 2u) * 4u);
    EXPECT_GE(largestBlock, 700u);
}

// Block-schedule tier ----------------------------------------------------

/** @p prog with fresh memory offsets and MOVI constants: the same blocks
 *  to the packer except where the mayAlias relation moved. */
Program
withRedrawnImmediates(Program prog, Rng &rng)
{
    for (Instruction &inst : prog.code) {
        if (inst.info().mem != MemKind::None)
            inst.imm = rng.uniformInt(0, 7) * 128;
        else if (inst.op == Opcode::MOVI)
            inst.imm = rng.uniformInt(-64, 64);
    }
    return prog;
}

/** @p prog with the scalar sources of one ALU instruction renamed. */
Program
withRenamedSources(Program prog, Rng &rng)
{
    std::vector<size_t> alu;
    for (size_t i = 0; i < prog.code.size(); ++i)
        if (prog.code[i].info().mem == MemKind::None &&
            !prog.code[i].isBranch() &&
            prog.code[i].src[0].cls == RegClass::Scalar)
            alu.push_back(i);
    if (alu.empty())
        return prog;
    Instruction &inst = prog.code[alu[static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(alu.size()) - 1))]];
    for (Operand &src : inst.src)
        if (src.cls == RegClass::Scalar)
            src = sreg(static_cast<int>(rng.uniformInt(1, 8)));
    return prog;
}

/** lookupOrPack through @p cache equals a direct pack(), bit for bit. */
void
expectTierExact(PackCache &cache, const Program &prog,
                const PackOptions &opts, const std::string &what)
{
    expectSamePacking(pack(prog, opts), *cache.lookupOrPack(prog, opts),
                      what);
}

TEST(PackDifferentialTest, BlockTierBitIdenticalOnRandomVariants)
{
    // Each random program comes with variants the program tier misses
    // but the block tier may answer: redrawn immediates (the mayAlias
    // relation stays or moves) and renamed sources (the dependence graph
    // moves). Every packed program must still be a direct pack.
    Rng rng(0xb10cULL);
    PackCache cache;
    constexpr int kPrograms = 40;
    for (int n = 0; n < kPrograms; ++n) {
        const Program prog = n % 2 == 0 ? randomProgram(rng)
                                        : randomBlock(rng, true);
        std::vector<Program> variants{prog};
        for (int v = 0; v < 3; ++v)
            variants.push_back(withRedrawnImmediates(prog, rng));
        for (int v = 0; v < 2; ++v)
            variants.push_back(withRenamedSources(prog, rng));
        for (const PackPolicy policy : kPolicies) {
            PackOptions opts;
            opts.policy = policy;
            for (size_t v = 0; v < variants.size(); ++v)
                expectTierExact(cache, variants[v], opts,
                                "random #" + std::to_string(n) +
                                    " variant " + std::to_string(v) +
                                    " policy " + packPolicyName(policy));
        }
        if (HasFailure()) {
            ADD_FAILURE() << "first divergence at program " << n
                          << "; seed 0xb10c";
            break;
        }
    }
    EXPECT_GT(cache.stats().blockHits, 0u);
    EXPECT_GT(cache.stats().blockMisses, 0u);
}

TEST(PackDifferentialTest, BlockTierBitIdenticalOnZooServedPrograms)
{
    // Every distinct program the ten zoo models serve, through one cache
    // that starts empty, so later programs reuse earlier ones' blocks.
    std::vector<Program> programs;
    std::vector<PackKey> seen;
    for (const models::ModelInfo &info : models::allModels()) {
        const runtime::CompiledModel compiled =
            runtime::compile(models::buildModel(info.id));
        for (const auto &served : compiled.schedules) {
            const Program &prog = served.program->program;
            const PackKey key = fingerprintForPacking(prog, {});
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                continue;
            seen.push_back(key);
            programs.push_back(prog);
        }
    }
    ASSERT_GE(programs.size(), 50u);

    PackCache cache;
    for (const PackPolicy policy : kPolicies) {
        PackOptions opts;
        opts.policy = policy;
        for (size_t n = 0; n < programs.size(); ++n)
            expectTierExact(cache, programs[n], opts,
                            "served #" + std::to_string(n) + " policy " +
                                packPolicyName(policy));
        if (HasFailure())
            return;
    }
    EXPECT_GT(cache.stats().blockHits, 0u);
}

TEST(PackDifferentialTest, BlockTierBitIdenticalOnTileDepthVariants)
{
    // Every tile class of the unroll grid (spilling column factors
    // included) at every inner-loop trip count from 1 to 16 and at a
    // deep reduction: the programs an exhaustive re-cost packs, which
    // differ within a class only in trip counts and strides.
    using kernels::MatMulScheme;
    PackCache cache;
    size_t programs = 0;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        for (const kernels::UnrollChoice &choice :
             kernels::unrollCandidates()) {
            const int64_t quantum = kernels::kQuantum(scheme, choice.k);
            std::vector<int64_t> depths;
            for (int64_t iters = 1; iters <= 16; ++iters)
                depths.push_back(quantum * iters);
            depths.push_back(1024);
            for (const int64_t k : depths) {
                const kernels::MatMulShape tile =
                    kernels::unrollTile(scheme, choice, k);
                const Program prog =
                    kernels::MatMulKernel(
                        tile,
                        kernels::withUnroll({.scheme = scheme}, choice))
                        .program();
                expectTierExact(
                    cache, prog, {},
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
    EXPECT_EQ(programs, 3u * 32u * 17u);
    // Most depth variants reuse their class's loop body.
    EXPECT_GT(cache.stats().blockHits, cache.stats().blockMisses);
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

TEST(PackCacheTest, ProgramTierUsesItsWholeCapacity)
{
    // Every shard takes its share: 2,000 distinct programs fit in a
    // 4,096-entry cache without an eviction.
    PackCache cache(4096);
    constexpr int kPrograms = 2000;
    for (int n = 0; n < kPrograms; ++n) {
        Program prog;
        prog.push(makeMovi(sreg(1), n));
        (void)cache.lookupOrPack(prog);
    }
    EXPECT_EQ(cache.size(), static_cast<size_t>(kPrograms));
    EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(kPrograms));
    EXPECT_EQ(cache.stats().evictions, 0u);
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

TEST(PackCacheTest, BlockTierAnswersProgramsThatDifferOnlyInImmediates)
{
    // Two trip counts of one loop: distinct programs, identical blocks.
    auto loop = [](int64_t trips) {
        Program prog;
        prog.push(makeMovi(sreg(1), trips));
        const int top = prog.newLabel();
        prog.bindLabel(top);
        prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(0), 0));
        prog.push(makeBinary(Opcode::ADD, sreg(3), sreg(2), sreg(3)));
        prog.push(makeAddi(sreg(1), sreg(1), -1));
        prog.push(makeJumpNz(sreg(1), top));
        return prog;
    };
    const Program a = loop(4);
    const Program b = loop(9);
    const size_t blocks = buildCfg(a).blocks.size();

    PackCache cache;
    (void)cache.lookupOrPack(a);
    EXPECT_EQ(cache.stats().blockMisses, blocks);
    EXPECT_EQ(cache.stats().blockHits, 0u);
    const auto packedB = cache.lookupOrPack(b);
    EXPECT_EQ(cache.stats().misses, 2u); // the program tier missed twice
    EXPECT_EQ(cache.stats().blockMisses, blocks);
    EXPECT_EQ(cache.stats().blockHits, blocks);
    expectSamePacking(pack(b), *packedB, "block-tier program");
    EXPECT_EQ(packedB->program.code[0].imm, 9);

    cache.clear();
    EXPECT_EQ(cache.stats().blockHits, 0u);
    EXPECT_EQ(cache.stats().blockMisses, 0u);
    (void)cache.lookupOrPack(b);
    EXPECT_EQ(cache.stats().blockMisses, blocks); // cleared: packs again
}

TEST(PackCacheTest, DirectPackersBypassBothTiers)
{
    // pack() and packReference() time real packing (the pack benches and
    // the perfbench replay rely on it): they read and fill no cache.
    Rng rng(0xd1ecULL);
    const Program prog = randomProgram(rng);
    (void)PackCache::global().lookupOrPack(prog);
    const PackCache::Stats before = PackCache::global().stats();
    for (const PackPolicy policy : kPolicies) {
        PackOptions opts;
        opts.policy = policy;
        (void)pack(prog, opts);
        (void)packReference(prog, opts);
    }
    const PackCache::Stats after = PackCache::global().stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.blockHits, before.blockHits);
    EXPECT_EQ(after.blockMisses, before.blockMisses);
}

TEST(PackCacheTest, ConcurrentBlockTierPacksEachBlockOnce)
{
    // Four threads pack the same immediate variants at once. Block
    // lookups are single-flight, so every distinct block is packed once
    // -- as many block misses as a one-thread pass -- and every result is
    // a direct pack.
    Rng rng(0xc0c0ULL);
    std::vector<Program> programs;
    for (int n = 0; n < 6; ++n) {
        const Program prog = randomProgram(rng);
        programs.push_back(prog);
        for (int v = 0; v < 3; ++v)
            programs.push_back(withRedrawnImmediates(prog, rng));
    }
    std::vector<PackedProgram> direct;
    PackCache serial;
    for (const Program &prog : programs) {
        direct.push_back(pack(prog));
        (void)serial.lookupOrPack(prog);
    }

    PackCache shared;
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<std::vector<std::shared_ptr<const PackedProgram>>> got(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (const Program &prog : programs)
                got[static_cast<size_t>(t)].push_back(
                    shared.lookupOrPack(prog));
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const auto &results : got)
        for (size_t n = 0; n < programs.size(); ++n)
            expectSamePacking(direct[n], *results[n],
                              "program " + std::to_string(n));
    EXPECT_EQ(shared.stats().blockMisses, serial.stats().blockMisses);
    EXPECT_GT(serial.stats().blockHits, 0u);
}

} // namespace
} // namespace gcd2::vliw
