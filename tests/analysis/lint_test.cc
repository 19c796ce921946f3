/**
 * @file
 * Golden-diagnostic and fuzz tests for the dataflow lint layer.
 *
 * The golden cases hand-craft broken packed programs -- an
 * uninitialized read, a maybe-uninitialized read, a dead store, a dead
 * packet, a lying noalias claim, a duplicated noalias base -- and assert
 * the exact DiagCode and node/packet anchor each analyzer reports. Two
 * more -- an overcommitted packet, a same-packet write conflict -- are
 * packet-legality faults: the served-schedule gate must report each as
 * exactly one schedule check Error, with its code and anchor. The fuzz
 * case packs seeded random (def-before-use) kernels under all five
 * packing policies and requires the Deep served-schedule gate to find
 * no Error: every policy must produce legal, claim-honest schedules.
 * Seeded-mutation cases corrupt a real compile's served schedule
 * through CompileOptions::testScheduleFault and assert the deep audit
 * pass surfaces the expected code.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "analysis/schedule_check.h"
#include "common/rng.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "vliw/packer.h"

namespace gcd2::analysis {
namespace {

using namespace gcd2::dsp;
using common::Diag;
using common::DiagCode;
using common::DiagSeverity;
using gcd2::Rng;

/** Findings with the given code. */
std::vector<const Diag *>
withCode(const std::vector<Diag> &diags, DiagCode code)
{
    std::vector<const Diag *> out;
    for (const Diag &diag : diags)
        if (diag.code == code)
            out.push_back(&diag);
    return out;
}

/** Pack a single-block program by listing each instruction alone in its
 *  own packet -- trivially legal, keeps golden cases layout-free. */
PackedProgram
packSerial(Program prog)
{
    PackedProgram packed;
    for (size_t i = 0; i < prog.code.size(); ++i)
        packed.packets.push_back(Packet{{i}});
    packed.labelPacket.assign(prog.labels.size(), 0);
    for (size_t l = 0; l < prog.labels.size(); ++l)
        packed.labelPacket[l] = prog.labels[l];
    packed.program = std::move(prog);
    return packed;
}

// ---- dataflow engine ------------------------------------------------

TEST(DataflowTest, BlockGraphFollowsScheduledOrder)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 3));
    prog.push(makeMovi(sreg(2), 4));
    prog.push(makeBinary(Opcode::ADD, sreg(3), sreg(1), sreg(2)));
    prog.noaliasRegs = {0};
    const PackedProgram packed = vliw::pack(prog);

    const BlockGraph graph = buildBlockGraph(packed);
    ASSERT_EQ(graph.numBlocks(), 1u);
    EXPECT_TRUE(graph.reachable[0]);
    EXPECT_TRUE(graph.exitEdge[0]);
    // Every instruction appears exactly once, ordered by packet.
    ASSERT_EQ(graph.scheduled[0].size(), prog.code.size());
    for (size_t k = 1; k < graph.scheduled[0].size(); ++k)
        EXPECT_LE(graph.packetOf[graph.scheduled[0][k - 1]],
                  graph.packetOf[graph.scheduled[0][k]]);
    EXPECT_EQ(graph.blockOf(0), 0);
    EXPECT_EQ(graph.blockOf(prog.code.size() - 1), 0);
}

TEST(DataflowTest, LoopReachesFixpointWithBackedgeFacts)
{
    // r5 is written only inside the loop body; the maybe-assigned set at
    // the loop head must include it via the backedge, and the
    // definitely-assigned set must not (the first iteration hasn't run
    // it yet).
    Program prog;
    prog.push(makeMovi(sreg(1), 8));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(makeMovi(sreg(5), 7));
    prog.push(makeAddi(sreg(1), sreg(1), -1));
    prog.push(makeJumpNz(sreg(1), loop));
    const PackedProgram packed = vliw::pack(prog);
    const BlockGraph graph = buildBlockGraph(packed);
    ASSERT_EQ(graph.numBlocks(), 2u);

    DataflowProblem problem;
    problem.direction = DataflowProblem::Direction::Forward;
    problem.boundary = 0;
    problem.gen = {RegSet{1} << 1,
                   (RegSet{1} << 1) | (RegSet{1} << 5)};
    problem.kill = {0, 0};

    problem.meet = DataflowProblem::Meet::Union;
    const DataflowResult maybe = solveDataflow(graph, problem);
    EXPECT_NE(maybe.in[1] & (RegSet{1} << 5), 0u);

    problem.meet = DataflowProblem::Meet::Intersect;
    const DataflowResult definite = solveDataflow(graph, problem);
    EXPECT_EQ(definite.in[1] & (RegSet{1} << 5), 0u);
    EXPECT_NE(definite.in[1] & (RegSet{1} << 1), 0u);
}

// ---- golden diagnostics ---------------------------------------------

TEST(LintGoldenTest, UseBeforeDefIsAnError)
{
    Program prog;
    prog.push(makeBinary(Opcode::ADD, sreg(2), sreg(5), sreg(5)));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(2), 0));
    prog.noaliasRegs = {0};
    const LintResult result = lintPackedProgram(packSerial(prog));

    const auto hits = withCode(result.diags, DiagCode::LintUseBeforeDef);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
    EXPECT_EQ(hits[0]->node, 0);
    EXPECT_GE(result.counts.errors, 1u);
}

TEST(LintGoldenTest, MaybeUninitIsAWarning)
{
    // The jump can skip the write of r2; reading it afterwards is
    // uninitialized on that path but fine on the fallthrough path.
    Program prog;
    const int skip = prog.newLabel();
    prog.push(makeMovi(sreg(1), 1));
    prog.push(makeJumpNz(sreg(1), skip));
    prog.push(makeMovi(sreg(2), 7));
    prog.bindLabel(skip);
    prog.push(makeBinary(Opcode::ADD, sreg(3), sreg(2), sreg(2)));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(3), 0));
    prog.noaliasRegs = {0};
    const LintResult result = lintPackedProgram(packSerial(prog));

    const auto hits = withCode(result.diags, DiagCode::LintMaybeUninit);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Warning);
    EXPECT_EQ(hits[0]->node, 3);
    EXPECT_TRUE(withCode(result.diags, DiagCode::LintUseBeforeDef).empty());
}

TEST(LintGoldenTest, DeadStoreIsAWarning)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 5)); // overwritten before any read
    prog.push(makeMovi(sreg(1), 6));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(1), 0));
    prog.noaliasRegs = {0};
    const LintResult result = lintPackedProgram(packSerial(prog));

    const auto hits = withCode(result.diags, DiagCode::LintDeadStore);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Warning);
    EXPECT_EQ(hits[0]->node, 0);
    EXPECT_EQ(result.counts.errors, 0u);
}

TEST(LintGoldenTest, DeadPacketIsFlagged)
{
    // Both members of packet 0 compute results nothing ever reads.
    Program prog;
    prog.push(makeMovi(sreg(1), 5));
    prog.push(makeMovi(sreg(2), 6));
    PackedProgram packed;
    packed.packets.push_back(Packet{{0, 1}});
    packed.program = std::move(prog);
    const LintResult result = lintPackedProgram(packed);

    const auto hits = withCode(result.diags, DiagCode::LintDeadPacket);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->node, 0); // anchored at the packet's first member
    EXPECT_EQ(withCode(result.diags, DiagCode::LintDeadStore).size(), 2u);
}

TEST(LintGoldenTest, OvercommittedPacketIsAnError)
{
    // Three multiplies in one packet: the DSP has two multiply pipes.
    Program prog;
    prog.push(makeMovi(sreg(1), 2));
    prog.push(makeMovi(sreg(2), 3));
    prog.push(makeBinary(Opcode::MUL, sreg(3), sreg(1), sreg(2)));
    prog.push(makeBinary(Opcode::MUL, sreg(4), sreg(1), sreg(2)));
    prog.push(makeBinary(Opcode::MUL, sreg(5), sreg(1), sreg(2)));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(3), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(4), 4));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(5), 8));
    prog.noaliasRegs = {0};
    PackedProgram packed;
    packed.packets.push_back(Packet{{0, 1}});
    packed.packets.push_back(Packet{{2, 3, 4}});
    packed.packets.push_back(Packet{{5}});
    packed.packets.push_back(Packet{{6}});
    packed.packets.push_back(Packet{{7}});
    packed.program = std::move(prog);

    for (LintDepth depth : {LintDepth::Cheap, LintDepth::Full}) {
        const ScheduleCheck check = checkSchedule(packed, depth);
        ASSERT_EQ(check.errors(), 1u);
        const auto hits =
            withCode(check.diags, DiagCode::SchedSlotInfeasible);
        ASSERT_EQ(hits.size(), 1u);
        EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
        EXPECT_EQ(hits[0]->node, 2); // packet 1's first member
        EXPECT_NE(hits[0]->message.find("packet 1"), std::string::npos);
        EXPECT_NE(hits[0]->message.find("3 multiply pipelines"),
                  std::string::npos);
    }
}

TEST(LintGoldenTest, SamePacketWriteConflictIsAnError)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 5));
    prog.push(makeMovi(sreg(1), 6));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(1), 0));
    prog.noaliasRegs = {0};
    PackedProgram packed;
    packed.packets.push_back(Packet{{0, 1}});
    packed.packets.push_back(Packet{{2}});
    packed.program = std::move(prog);

    for (LintDepth depth : {LintDepth::Cheap, LintDepth::Full}) {
        const ScheduleCheck check = checkSchedule(packed, depth);
        ASSERT_EQ(check.errors(), 1u);
        const auto hits =
            withCode(check.diags, DiagCode::SchedHardDepInPacket);
        ASSERT_EQ(hits.size(), 1u);
        EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
        EXPECT_EQ(hits[0]->node, 1); // the second writer
        EXPECT_NE(hits[0]->message.find("r1"), std::string::npos);
    }
}

TEST(LintGoldenTest, LyingNoaliasClaimIsAnError)
{
    // Both accesses go through r0 with overlapping byte ranges; an
    // oracle claiming them disjoint is provably lying. The production
    // AliasAnalysis (mayAliasClaim unset) is honest here -- asserted as
    // the control below.
    Program prog;
    prog.push(makeMovi(sreg(1), 42));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(1), 100));
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(0), 100));
    prog.push(makeStore(Opcode::STOREW, sreg(0), sreg(2), 200));
    prog.noaliasRegs = {0};
    const PackedProgram packed = packSerial(std::move(prog));

    LintOptions lying;
    lying.mayAliasClaim = [](size_t, size_t) { return false; };
    const LintResult result = lintPackedProgram(packed, lying);
    const auto hits = withCode(result.diags, DiagCode::LintNoaliasOverlap);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
    EXPECT_EQ(hits[0]->node, 2); // the later access of the pair

    const LintResult honest = lintPackedProgram(packed);
    EXPECT_TRUE(
        withCode(honest.diags, DiagCode::LintNoaliasOverlap).empty());
}

TEST(LintGoldenTest, DuplicateNoaliasBaseIsAnError)
{
    Program prog;
    prog.push(makeMovi(sreg(3), 1));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(3), 0));
    prog.noaliasRegs = {1, 2, 1};
    const LintResult result = lintPackedProgram(packSerial(prog));

    const auto hits = withCode(result.diags, DiagCode::LintNoaliasDupBase);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
    EXPECT_NE(hits[0]->message.find("r1"), std::string::npos);
}

// ---- fuzz: all policies lint-clean ----------------------------------

/** Random def-before-use kernel: every scalar and vector register is
 *  seeded before the loop, so the only legitimate findings on a correct
 *  packing are Warnings (random code has dead results by construction --
 *  never Errors). */
Program
randomCleanProgram(Rng &rng)
{
    Program prog;
    for (int r = 1; r <= 8; ++r)
        prog.push(makeMovi(sreg(r), rng.uniformInt(-64, 64)));
    for (int v = 0; v <= 7; ++v)
        prog.push(makeVsplatw(vreg(v), sreg(1 + (v % 8))));
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
            prog.push(makeVload(v(), sreg(0),
                                rng.uniformInt(0, 7) * 128));
            break;
          case 5:
            prog.push(makeVstore(sreg(0), v(),
                                 rng.uniformInt(0, 7) * 128));
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
    prog.noaliasRegs = {0};
    return prog;
}

TEST(LintFuzzTest, AllPackPoliciesProduceErrorFreeSchedules)
{
    static const vliw::PackPolicy kPolicies[] = {
        vliw::PackPolicy::Sda,        vliw::PackPolicy::SoftToHard,
        vliw::PackPolicy::SoftToNone, vliw::PackPolicy::InOrder,
        vliw::PackPolicy::ListSched,
    };
    Rng rng(0x11A70FEEDULL ^ 0x1234);
    for (int round = 0; round < 40; ++round) {
        const Program prog = randomCleanProgram(rng);
        for (vliw::PackPolicy policy : kPolicies) {
            vliw::PackOptions opts;
            opts.policy = policy;
            const PackedProgram packed = vliw::pack(prog, opts);
            const ScheduleCheck result =
                checkSchedule(packed, LintDepth::Full);
            EXPECT_EQ(result.errors(), 0u)
                << "round " << round << " policy "
                << vliw::packPolicyName(policy) << ": "
                << (result.diags.empty()
                        ? std::string("??")
                        : result.diags.front().toString());
            // Use-before-def can never fire: the generator seeds every
            // register it reads.
            EXPECT_TRUE(
                withCode(result.diags, DiagCode::LintUseBeforeDef)
                    .empty());
            EXPECT_TRUE(
                withCode(result.diags, DiagCode::LintMaybeUninit)
                    .empty());
        }
    }
}

// ---- seeded mutations through the compile pipeline ------------------

/** Deep-audit compile of WDSR-b with a served-schedule corruption. */
runtime::CompiledModel
compileWithFault(std::function<void(PackedProgram &)> fault)
{
    const graph::Graph g = models::buildModel(models::ModelId::WdsrB);
    runtime::CompileOptions opts;
    opts.audit = runtime::AuditMode::Deep;
    opts.testScheduleFault = std::move(fault);
    return runtime::compile(g, opts);
}

bool
hasCode(const runtime::CompiledModel &model, DiagCode code)
{
    for (const Diag &diag : model.report.diagnostics)
        if (diag.code == code)
            return true;
    return false;
}

TEST(LintMutationTest, DuplicatedWriterIsCaughtAsWriteConflict)
{
    // Re-listing a register-writing instruction inside its packet makes
    // that packet write the register twice: a hard dependency (WAW)
    // inside one packet.
    const runtime::CompiledModel model =
        compileWithFault([](PackedProgram &packed) {
            for (auto &packet : packed.packets)
                for (size_t idx : packet.insts)
                    if (!dsp::regWrites(packed.program.code[idx])
                             .empty()) {
                        packet.insts.push_back(idx);
                        std::sort(packet.insts.begin(),
                                  packet.insts.end());
                        return;
                    }
        });
    EXPECT_TRUE(hasCode(model, DiagCode::SchedHardDepInPacket));
    const runtime::PassReport *audit = model.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_GE(audit->counter("schedule-findings"), 1u);
}

TEST(LintMutationTest, RetargetedReadIsCaughtAsUseBeforeDef)
{
    // Redirect one scalar read to a register no instruction (and no ABI
    // declaration) ever defines.
    const runtime::CompiledModel model =
        compileWithFault([](PackedProgram &packed) {
            RegSet written = 0;
            for (const Instruction &inst : packed.program.code)
                for (int uid : dsp::regWrites(inst))
                    written |= RegSet{1} << uid;
            for (int8_t reg : packed.program.noaliasRegs)
                written |= RegSet{1} << reg;
            int victim = -1;
            for (int r = dsp::kNumScalarRegs - 1; r >= 0; --r)
                if (!(written & (RegSet{1} << r))) {
                    victim = r;
                    break;
                }
            ASSERT_GE(victim, 0) << "no unwritten scalar register";
            for (Instruction &inst : packed.program.code)
                if (inst.src[0].cls == RegClass::Scalar &&
                    inst.info().mem == MemKind::None &&
                    !inst.isBranch()) {
                    inst.src[0] = sreg(victim);
                    return;
                }
        });
    EXPECT_TRUE(hasCode(model, DiagCode::LintUseBeforeDef));
    const runtime::PassReport *audit = model.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_GE(audit->counter("lint-use-def-findings"), 1u);
}

TEST(LintMutationTest, DuplicatedNoaliasBaseIsCaughtByTheClaimAudit)
{
    const runtime::CompiledModel model =
        compileWithFault([](PackedProgram &packed) {
            ASSERT_FALSE(packed.program.noaliasRegs.empty());
            packed.program.noaliasRegs.push_back(
                packed.program.noaliasRegs.front());
        });
    EXPECT_TRUE(hasCode(model, DiagCode::LintNoaliasDupBase));
    const runtime::PassReport *audit = model.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_GE(audit->counter("lint-noalias-findings"), 1u);
}

TEST(LintMutationTest, CleanDeepCompileHasZeroLintErrors)
{
    const graph::Graph g = models::buildModel(models::ModelId::WdsrB);
    runtime::CompileOptions opts;
    opts.audit = runtime::AuditMode::Deep;
    const runtime::CompiledModel model = runtime::compile(g, opts);
    const runtime::PassReport *audit = model.report.pass("audit");
    ASSERT_NE(audit, nullptr);
    EXPECT_EQ(audit->counter("lint-errors"), 0u);
    EXPECT_EQ(audit->counter("schedule-findings"), 0u);
    EXPECT_EQ(audit->counter("lint-use-def-findings"), 0u);
    EXPECT_EQ(audit->counter("lint-noalias-findings"), 0u);
    EXPECT_EQ(
        model.report.diagnosticCount(common::DiagSeverity::Error), 0u);
}

} // namespace
} // namespace gcd2::analysis
