/**
 * @file
 * Tiered plan costing tests: the analytic model's bounds really bracket
 * simulation, transplanted schedules are bit-identical to direct packs,
 * affine-derived stats equal direct simulation (also when four threads
 * cost one class), and transplantCompatible compares exactly what packing
 * reads. The zoo-wide
 * differential and deep-audit tests live in
 * tests/runtime/tiered_differential_test.cc.
 */
#include <gtest/gtest.h>

#include <thread>

#include "kernels/matmul.h"
#include "kernels/runner.h"
#include "select/analytic.h"
#include "select/tiered_cost.h"
#include "vliw/packer.h"

namespace gcd2::select {
namespace {

using kernels::MatMulConfig;
using kernels::MatMulKernel;
using kernels::MatMulScheme;
using kernels::MatMulShape;

MatMulConfig
configFor(MatMulScheme scheme, int uo, int un, int uk)
{
    MatMulConfig config;
    config.scheme = scheme;
    config.unrollOut = uo;
    config.unrollCols = un;
    config.unrollK = uk;
    return config;
}

// -- Tier 1: analytic bounds -------------------------------------------

TEST(AnalyticModelTest, BoundsBracketSimulatedCyclesAcrossSchemes)
{
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        for (const int unroll : {1, 2}) {
            const MatMulConfig config =
                configFor(scheme, unroll, unroll, unroll);
            const MatMulKernel kernel(MatMulShape{32, 96, 16}, config);
            const AnalyticBounds bounds =
                analyzeProgram(kernel.program());
            SCOPED_TRACE(testing::Message()
                         << "scheme " << static_cast<int>(scheme)
                         << " unroll " << unroll);
            ASSERT_TRUE(bounds.certified);
            ASSERT_GT(bounds.lower, 0u);
            const kernels::KernelRunResult run = kernels::runKernel(
                kernel.program(), kernel.buffers(), {}, {});
            EXPECT_LE(bounds.lower, run.stats.cycles);
            EXPECT_GE(bounds.upper, run.stats.cycles);
            EXPECT_EQ(bounds.dynamicInstructions,
                      run.stats.instructionsExecuted);
        }
    }
}

TEST(AnalyticModelTest, EmptyProgramIsCertifiedZero)
{
    const AnalyticBounds bounds = analyzeProgram(dsp::Program{});
    EXPECT_TRUE(bounds.certified);
    EXPECT_EQ(bounds.lower, 0u);
    EXPECT_EQ(bounds.upper, 0u);
}

TEST(AnalyticModelTest, RefusesForwardBranch)
{
    // JUMPNZ to a label *ahead* of the branch: the skipped-path count is
    // data-dependent, so the program must stay uncertified.
    dsp::Program prog;
    prog.labels.push_back(3); // label 0 -> instruction 3 (forward)
    prog.push(dsp::makeMovi(dsp::sreg(0), 1));
    prog.push(dsp::makeJumpNz(dsp::sreg(0), 0));
    prog.push(dsp::makeMovi(dsp::sreg(1), 7));
    prog.push(dsp::makeMovi(dsp::sreg(2), 9));
    EXPECT_FALSE(analyzeProgram(prog).certified);
}

TEST(AnalyticModelTest, RefusesUnconditionalJump)
{
    dsp::Program prog;
    prog.labels.push_back(0);
    prog.push(dsp::makeMovi(dsp::sreg(0), 1));
    prog.push(dsp::makeJump(0));
    EXPECT_FALSE(analyzeProgram(prog).certified);
}

TEST(AnalyticModelTest, CertifiesRegisterTripCount)
{
    // Counter initialized by a register move, not a MOVI immediate. The
    // old syntactic idiom matcher refused this; the value-flow analysis
    // proves r0 holds the constant 4 at loop entry and certifies the
    // trip count (4 iterations of 2 instructions after a 2-instruction
    // preamble).
    dsp::Program prog;
    prog.labels.push_back(2);
    prog.push(dsp::makeMovi(dsp::sreg(1), 4));
    prog.push(dsp::makeMov(dsp::sreg(0), dsp::sreg(1)));
    prog.push(dsp::makeAddi(dsp::sreg(0), dsp::sreg(0), -1));
    prog.push(dsp::makeJumpNz(dsp::sreg(0), 0));
    const AnalyticBounds bounds = analyzeProgram(prog);
    EXPECT_TRUE(bounds.certified);
    EXPECT_EQ(bounds.dynamicInstructions, 10u);
    EXPECT_GT(bounds.lower, 0u);
    EXPECT_GE(bounds.upper, bounds.lower);
}

TEST(AnalyticModelTest, RefusesDataDependentTripCount)
{
    // Counter seeded from an entry register the analysis knows nothing
    // about: the trip count is genuinely data-dependent and must refuse.
    dsp::Program prog;
    prog.labels.push_back(1);
    prog.push(dsp::makeMov(dsp::sreg(0), dsp::sreg(5)));
    prog.push(dsp::makeAddi(dsp::sreg(0), dsp::sreg(0), -1));
    prog.push(dsp::makeJumpNz(dsp::sreg(0), 0));
    EXPECT_FALSE(analyzeProgram(prog).certified);
}

// -- Tier 2: transplants and affine derivation -------------------------

TEST(TieredCosterTest, TransplantedScheduleBitIdenticalToDirectPack)
{
    // k chosen away from every anchor (and odd) so tileSchedule must
    // rewrite the anchor pack onto a program it has never simulated.
    const vliw::PackOptions packOptions;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        TieredCoster coster(packOptions);
        const MatMulConfig config = configFor(scheme, 2, 2, 2);
        const MatMulShape tile{16, 357, 8};
        const std::shared_ptr<const dsp::PackedProgram> served =
            coster.tileSchedule(tile, config);
        ASSERT_NE(served, nullptr);
        SCOPED_TRACE(testing::Message()
                     << "scheme " << static_cast<int>(scheme));
        ASSERT_EQ(coster.counters().certifiedClasses, 1u);
        ASSERT_GE(coster.counters().transplantedPacks, 1u);

        const MatMulKernel kernel(tile, config);
        const dsp::PackedProgram direct =
            vliw::pack(kernel.program(), packOptions);
        ASSERT_EQ(served->program.code.size(),
                  kernel.program().code.size());
        for (size_t j = 0; j < direct.program.code.size(); ++j)
            EXPECT_EQ(served->program.code[j].toString(),
                      kernel.program().code[j].toString());
        EXPECT_EQ(served->packets.size(), direct.packets.size());
        for (size_t p = 0; p < direct.packets.size(); ++p)
            EXPECT_EQ(served->packets[p].insts, direct.packets[p].insts);
        EXPECT_EQ(served->labelPacket, direct.labelPacket);
    }
}

TEST(TieredCosterTest, DerivedStatsEqualDirectSimulation)
{
    // iters >= 8: stats come from the affine fit, no simulation at k.
    const vliw::PackOptions packOptions;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        TieredCoster coster(packOptions);
        const MatMulConfig config = configFor(scheme, 1, 2, 1);
        for (const int64_t k : {147, 200, 513}) {
            const MatMulShape tile{8, k, 8};
            const NodeExecStats derived = coster.tileStats(tile, config);
            const MatMulKernel kernel(tile, config);
            const kernels::KernelRunResult run = kernels::runKernel(
                kernel.program(), kernel.buffers(), {}, {},
                packOptions);
            SCOPED_TRACE(testing::Message()
                         << "scheme " << static_cast<int>(scheme)
                         << " k=" << k);
            EXPECT_EQ(derived.cycles, run.stats.cycles);
            EXPECT_EQ(derived.instructions,
                      run.stats.instructionsExecuted);
            EXPECT_EQ(derived.packets, run.stats.packetsExecuted);
            EXPECT_EQ(derived.bytesLoaded, run.stats.bytesLoaded);
            EXPECT_EQ(derived.bytesStored, run.stats.bytesStored);
        }
        EXPECT_GE(coster.counters().plansDerived, 3u);
        EXPECT_EQ(coster.counters().plansSimulated, 0u);
        EXPECT_TRUE(coster.audit().empty());
    }
}

TEST(TieredCosterTest, ConcurrentCostingOfOneClassIsExact)
{
    // Four threads cost every depth of one class, each starting at a
    // different depth, so certification, derivation, shallow simulation
    // and transplant memoization all race on the one class.
    const vliw::PackOptions packOptions;
    const MatMulConfig config = configFor(MatMulScheme::Vrmpy, 1, 1, 1);
    std::vector<MatMulShape> tiles;
    for (int64_t k = 4; k <= 96; k += 4) // quantum 4: 1..24 iterations
        tiles.push_back(MatMulShape{8, k, 8});

    TieredCoster serial(packOptions);
    std::vector<NodeExecStats> expectStats;
    std::vector<std::shared_ptr<const dsp::PackedProgram>> expectPacks;
    for (const MatMulShape &tile : tiles) {
        expectStats.push_back(serial.tileStats(tile, config));
        expectPacks.push_back(serial.tileSchedule(tile, config));
    }

    constexpr size_t kThreads = 4;
    TieredCoster shared(packOptions);
    std::vector<std::vector<NodeExecStats>> stats(
        kThreads, std::vector<NodeExecStats>(tiles.size()));
    std::vector<std::vector<std::shared_ptr<const dsp::PackedProgram>>>
        packs(kThreads, std::vector<std::shared_ptr<const dsp::PackedProgram>>(
                            tiles.size()));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t j = 0; j < tiles.size(); ++j) {
                const size_t i = (j + t * tiles.size() / kThreads) %
                                 tiles.size();
                stats[t][i] = shared.tileStats(tiles[i], config);
                packs[t][i] = shared.tileSchedule(tiles[i], config);
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    const TieredCounters counters = shared.counters();
    EXPECT_EQ(counters.certifiedClasses, 1u);
    EXPECT_EQ(counters.uncertifiedClasses, 0u);
    EXPECT_EQ(counters.anchorSims, 3u);
    EXPECT_EQ(counters.structuralFallbacks, 0u);
    for (size_t t = 0; t < kThreads; ++t)
        for (size_t i = 0; i < tiles.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << "thread " << t << " k=" << tiles[i].k);
            const NodeExecStats &got = stats[t][i];
            EXPECT_EQ(got.cycles, expectStats[i].cycles);
            EXPECT_EQ(got.instructions, expectStats[i].instructions);
            EXPECT_EQ(got.packets, expectStats[i].packets);
            EXPECT_EQ(got.bytesLoaded, expectStats[i].bytesLoaded);
            EXPECT_EQ(got.bytesStored, expectStats[i].bytesStored);
            ASSERT_NE(packs[t][i], nullptr);
            // Every thread is served the class's one memoized schedule.
            EXPECT_EQ(packs[t][i], packs[0][i]);
            EXPECT_EQ(packs[t][i]->packets.size(),
                      expectPacks[i]->packets.size());
            for (size_t p = 0; p < expectPacks[i]->packets.size(); ++p)
                EXPECT_EQ(packs[t][i]->packets[p].insts,
                          expectPacks[i]->packets[p].insts);
            EXPECT_EQ(packs[t][i]->labelPacket,
                      expectPacks[i]->labelPacket);
        }
    EXPECT_TRUE(shared.audit().empty());
}

TEST(TieredCosterTest, ShallowReductionSimulatesOnTransplant)
{
    // iters < 8 sits below the certified anchor range: the coster must
    // simulate, but on the transplanted (single-pack) schedule, and the
    // numbers must equal a from-scratch pack + sim.
    const vliw::PackOptions packOptions;
    TieredCoster coster(packOptions);
    const MatMulConfig config =
        configFor(MatMulScheme::Vrmpy, 1, 1, 1);
    const MatMulShape tile{8, 8, 8}; // quantum 4 -> 2 iters
    const NodeExecStats stats = coster.tileStats(tile, config);
    EXPECT_EQ(coster.counters().plansSimulated, 1u);
    EXPECT_EQ(coster.counters().plansDerived, 0u);

    const MatMulKernel kernel(tile, config);
    const kernels::KernelRunResult run = kernels::runKernel(
        kernel.program(), kernel.buffers(), {}, {}, packOptions);
    EXPECT_EQ(stats.cycles, run.stats.cycles);
    EXPECT_EQ(stats.instructions, run.stats.instructionsExecuted);
}

// -- transplantCompatible ----------------------------------------------

TEST(TransplantCompatibleTest, AcceptsScaledStridesRejectsStructure)
{
    const MatMulConfig config = configFor(MatMulScheme::Vrmpy, 2, 2, 2);
    const dsp::Program a =
        MatMulKernel(MatMulShape{16, 64, 8}, config).program();
    const dsp::Program bigger =
        MatMulKernel(MatMulShape{16, 192, 8}, config).program();
    // Same structure, strides scaled by the deeper reduction: compatible.
    EXPECT_TRUE(transplantCompatible(a, bigger));

    // A different unroll changes the instruction sequence: incompatible.
    const dsp::Program other =
        MatMulKernel(MatMulShape{16, 64, 8},
                     configFor(MatMulScheme::Vrmpy, 2, 4, 2))
            .program();
    EXPECT_FALSE(transplantCompatible(a, other));

    // Branch immediates may never drift.
    dsp::Program branchTweak = a;
    for (dsp::Instruction &inst : branchTweak.code)
        if (inst.isBranch())
            inst.imm += 1;
    EXPECT_FALSE(transplantCompatible(a, branchTweak));
}

/**
 * A store in one block and a load of the same base in a loop block after
 * it; @p loadOffset decides whether the two accesses may alias. The
 * loop block also holds a store that the in-block @p innerOffset load may
 * or may not overlap.
 */
dsp::Program
crossBlockProgram(int64_t loadOffset, int64_t innerOffset)
{
    dsp::Program prog;
    prog.push(dsp::makeMovi(dsp::sreg(0), 4));
    prog.push(dsp::makeVstore(dsp::sreg(1), dsp::vreg(2), 0));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(dsp::makeVload(dsp::vreg(3), dsp::sreg(1), loadOffset));
    prog.push(dsp::makeVstore(dsp::sreg(1), dsp::vreg(4),
                              4 * dsp::kVectorBytes));
    prog.push(dsp::makeVload(dsp::vreg(5), dsp::sreg(1), innerOffset));
    prog.push(dsp::makeAddi(dsp::sreg(0), dsp::sreg(0), -1));
    prog.push(dsp::makeJumpNz(dsp::sreg(0), loop));
    return prog;
}

TEST(TransplantCompatibleTest, AcceptsAliasDifferenceAcrossBlocks)
{
    // The load aliases the earlier block's store in one program and not
    // in the other. No block holds both accesses, so packing never reads
    // that pair: both programs get the same packets and label map.
    const dsp::Program disjoint = crossBlockProgram(dsp::kVectorBytes, 0);
    const dsp::Program overlapping = crossBlockProgram(0, 0);
    EXPECT_TRUE(transplantCompatible(disjoint, overlapping));

    const dsp::PackedProgram a = vliw::pack(disjoint);
    const dsp::PackedProgram b = vliw::pack(overlapping);
    ASSERT_EQ(a.packets.size(), b.packets.size());
    for (size_t p = 0; p < a.packets.size(); ++p)
        EXPECT_EQ(a.packets[p].insts, b.packets[p].insts);
    EXPECT_EQ(a.labelPacket, b.labelPacket);
}

TEST(TransplantCompatibleTest, RejectsAliasDifferenceWithinABlock)
{
    // The loop block's second load overlaps its store in one program only.
    const dsp::Program disjoint = crossBlockProgram(0, 0);
    const dsp::Program overlapping =
        crossBlockProgram(0, 4 * dsp::kVectorBytes);
    EXPECT_FALSE(transplantCompatible(disjoint, overlapping));
}

} // namespace
} // namespace gcd2::select
