/**
 * @file
 * Global value-flow analysis tests (analysis/valueflow.h).
 *
 * Property tests pin the vfJoin lattice algebra (idempotent,
 * commutative, associative, bottom identity, top absorbing, monotone)
 * and termination + determinism of the fixpoint on seeded random CFGs
 * with back edges. Directed cases certify every supported trip-count
 * idiom (MOVI init, register-hoisted init, nested loops, non-unit
 * strides, zero counters) and the sound refusals (forward branches,
 * data-dependent counters). Golden-diagnostic cases pin the exact
 * DiagCode and instruction anchor of the two value-flow lint codes
 * (lint-redundant-load, lint-out-of-bounds) and the cross-block
 * noalias findings the old per-block audit provably could not see.
 */
#include <gtest/gtest.h>

#include <vector>

#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "analysis/valueflow.h"
#include "common/rng.h"

namespace gcd2::analysis {
namespace {

using namespace gcd2::dsp;
using common::Diag;
using common::DiagCode;
using common::DiagSeverity;
using gcd2::Rng;

std::vector<const Diag *>
withCode(const std::vector<Diag> &diags, DiagCode code)
{
    std::vector<const Diag *> out;
    for (const Diag &diag : diags)
        if (diag.code == code)
            out.push_back(&diag);
    return out;
}

/** Serial one-instruction-per-packet packing (layout-free goldens). */
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

// ---- vfJoin lattice algebra -----------------------------------------

VfValue
randomValue(Rng &rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return VfValue::bottom();
      case 1:
        return VfValue::top();
      default: {
        VfValue v = VfValue::base(
            static_cast<int32_t>(rng.uniformInt(0, 40)),
            rng.uniformInt(-100, 100));
        const int terms = static_cast<int>(rng.uniformInt(0, 2));
        for (int t = 0; t < terms; ++t)
            v = v.withTerm(t, rng.uniformInt(-4, 4));
        return v;
      }
    }
}

TEST(VfJoinTest, LatticeAlgebraHoldsOnRandomValues)
{
    Rng rng(12345);
    for (int iter = 0; iter < 2000; ++iter) {
        const VfValue a = randomValue(rng);
        const VfValue b = randomValue(rng);
        const VfValue c = randomValue(rng);

        EXPECT_TRUE(vfJoin(a, a) == a);                        // idempotent
        EXPECT_TRUE(vfJoin(a, b) == vfJoin(b, a));             // commutative
        EXPECT_TRUE(vfJoin(a, vfJoin(b, c)) ==
                    vfJoin(vfJoin(a, b), c));                  // associative
        EXPECT_TRUE(vfJoin(VfValue::bottom(), a) == a);        // identity
        EXPECT_TRUE(vfJoin(VfValue::top(), a) == VfValue::top()); // absorbing
    }
}

TEST(VfJoinTest, JoinIsMonotone)
{
    // a <= join(a, x) for any x; monotonicity means joining a larger
    // input never yields a smaller output: join(a,c) <= join(b,c)
    // whenever a <= b (with u <= v defined as join(u, v) == v).
    Rng rng(99);
    for (int iter = 0; iter < 2000; ++iter) {
        const VfValue a = randomValue(rng);
        const VfValue c = randomValue(rng);
        const VfValue b = vfJoin(a, randomValue(rng)); // a <= b
        const VfValue ja = vfJoin(a, c);
        const VfValue jb = vfJoin(b, c);
        EXPECT_TRUE(vfJoin(ja, jb) == jb); // ja <= jb
    }
}

// ---- trip certification ---------------------------------------------

TEST(ValueFlowTest, StraightLineValuesAreExact)
{
    Program prog;
    prog.push(makeMovi(sreg(2), 40));
    prog.push(makeAddi(sreg(3), sreg(1), 8));
    prog.push(makeBinary(Opcode::ADD, sreg(4), sreg(3), sreg(2)));
    prog.push(makeBinary(Opcode::SUB, sreg(5), sreg(4), sreg(2)));
    prog.push(makeBinary(Opcode::MUL, sreg(6), sreg(2), sreg(2)));
    const BlockGraph graph = buildBlockGraph(prog);
    const ValueFlow flow = computeValueFlow(graph);

    ASSERT_TRUE(flow.converged);
    EXPECT_TRUE(flow.controlResolved);
    EXPECT_TRUE(flow.tripsResolved); // vacuous: no loops
    ASSERT_EQ(flow.out.size(), 1u);
    EXPECT_TRUE(flow.out[0][3] == VfValue::base(1, 8));
    EXPECT_TRUE(flow.out[0][4] == VfValue::base(1, 48));
    EXPECT_TRUE(flow.out[0][5] == VfValue::base(1, 8));
    // The multiply is opaque: a def-site root, not top.
    EXPECT_TRUE(flow.out[0][6] == VfValue::base(kVfFirstDefRoot + 4));
}

TEST(ValueFlowTest, CertifiesMoviIdiom)
{
    Program prog;
    prog.push(makeMovi(sreg(0), 8));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(0), sreg(0), -1));
    prog.push(makeJumpNz(sreg(0), loop));
    const ValueFlow flow = computeValueFlow(buildBlockGraph(prog));

    ASSERT_TRUE(flow.tripsResolved);
    ASSERT_EQ(flow.loops.size(), 1u);
    EXPECT_TRUE(flow.loops[0].tripKnown);
    EXPECT_EQ(flow.loops[0].trips, 8u);
}

TEST(ValueFlowTest, CertifiesRegisterHoistedTrip)
{
    // The trip count lives in r9 and the counter is re-seeded from it
    // by a MOV -- the register-trip idiom the generated kernels use.
    Program prog;
    prog.push(makeMovi(sreg(9), 5));
    prog.push(makeMov(sreg(0), sreg(9)));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(0), sreg(0), -1));
    prog.push(makeJumpNz(sreg(0), loop));
    const ValueFlow flow = computeValueFlow(buildBlockGraph(prog));

    ASSERT_TRUE(flow.tripsResolved);
    ASSERT_EQ(flow.loops.size(), 1u);
    EXPECT_EQ(flow.loops[0].trips, 5u);
}

TEST(ValueFlowTest, CertifiesNestedLoops)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 3)); // outer counter
    const int outer = prog.newLabel();
    prog.bindLabel(outer);
    prog.push(makeMovi(sreg(0), 4)); // inner counter, reset per outer trip
    const int inner = prog.newLabel();
    prog.bindLabel(inner);
    prog.push(makeAddi(sreg(0), sreg(0), -1));
    prog.push(makeJumpNz(sreg(0), inner));
    prog.push(makeAddi(sreg(1), sreg(1), -1));
    prog.push(makeJumpNz(sreg(1), outer));
    const ValueFlow flow = computeValueFlow(buildBlockGraph(prog));

    ASSERT_TRUE(flow.tripsResolved);
    ASSERT_EQ(flow.loops.size(), 2u);
    // Outermost-first ordering; the inner loop's parent is the outer.
    EXPECT_EQ(flow.loops[0].trips, 3u);
    EXPECT_EQ(flow.loops[1].trips, 4u);
    EXPECT_EQ(flow.loops[0].parent, -1);
    EXPECT_EQ(flow.loops[1].parent, 0);
}

TEST(ValueFlowTest, CertifiesNonUnitStride)
{
    Program prog;
    prog.push(makeMovi(sreg(0), 6));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(0), sreg(0), -2));
    prog.push(makeJumpNz(sreg(0), loop));
    const ValueFlow flow = computeValueFlow(buildBlockGraph(prog));

    ASSERT_TRUE(flow.tripsResolved);
    ASSERT_EQ(flow.loops.size(), 1u);
    EXPECT_EQ(flow.loops[0].trips, 3u); // 6 -> 4 -> 2 -> 0
}

TEST(ValueFlowTest, UnitCounterRunsOnce)
{
    Program prog;
    prog.push(makeMovi(sreg(0), 1));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(0), sreg(0), -1));
    prog.push(makeJumpNz(sreg(0), loop));
    const ValueFlow flow = computeValueFlow(buildBlockGraph(prog));

    ASSERT_TRUE(flow.tripsResolved);
    ASSERT_EQ(flow.loops.size(), 1u);
    EXPECT_EQ(flow.loops[0].trips, 1u); // do-while body always runs once
}

TEST(ValueFlowTest, RefusesDataDependentCounter)
{
    // The counter comes from entry register r5 -- genuinely unknown.
    Program prog;
    prog.push(makeMov(sreg(0), sreg(5)));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(0), sreg(0), -1));
    prog.push(makeJumpNz(sreg(0), loop));
    const ValueFlow flow = computeValueFlow(buildBlockGraph(prog));

    EXPECT_TRUE(flow.controlResolved); // the loop shape is recognized
    EXPECT_FALSE(flow.tripsResolved);  // the trip count is not
    ASSERT_EQ(flow.loops.size(), 1u);
    EXPECT_FALSE(flow.loops[0].tripKnown);
}

TEST(ValueFlowTest, ForwardBranchFallsBackToPlainJoins)
{
    Program prog;
    const int skip = prog.newLabel();
    prog.push(makeMovi(sreg(2), 4));
    prog.push(makeMovi(sreg(1), 1));
    prog.push(makeJumpNz(sreg(1), skip));
    prog.push(makeMovi(sreg(3), 9)); // only on the fallthrough path
    prog.bindLabel(skip);
    prog.push(makeAddi(sreg(4), sreg(2), 1));
    const BlockGraph graph = buildBlockGraph(prog);
    const ValueFlow flow = computeValueFlow(graph);

    ASSERT_TRUE(flow.converged);
    EXPECT_FALSE(flow.controlResolved);
    EXPECT_FALSE(flow.tripsResolved);
    EXPECT_TRUE(flow.loops.empty());
    // Facts both paths agree on survive the join; diverging ones don't.
    const int join = graph.blockOf(4);
    ASSERT_GE(join, 0);
    EXPECT_TRUE(flow.in[static_cast<size_t>(join)][2] ==
                VfValue::base(kVfConstRoot, 4));
    EXPECT_TRUE(flow.in[static_cast<size_t>(join)][3] == VfValue::top());
}

// ---- termination + determinism on random CFGs -----------------------

Program
randomBranchyProgram(Rng &rng)
{
    Program prog;
    for (int r = 5; r <= 12; ++r)
        prog.push(makeMovi(sreg(r), rng.uniformInt(-8, 8)));
    std::vector<int> bound;
    const int steps = static_cast<int>(rng.uniformInt(10, 28));
    const auto reg = [&] {
        return sreg(static_cast<int>(rng.uniformInt(5, 12)));
    };
    for (int i = 0; i < steps; ++i) {
        switch (rng.uniformInt(0, 5)) {
          case 0: {
            const int label = prog.newLabel();
            prog.bindLabel(label);
            bound.push_back(label);
            break;
          }
          case 1:
            prog.push(makeMovi(reg(), rng.uniformInt(-4, 16)));
            break;
          case 2:
            prog.push(makeMov(reg(), reg()));
            break;
          case 3:
            prog.push(makeAddi(reg(), reg(), rng.uniformInt(-4, 4)));
            break;
          case 4:
            prog.push(makeBinary(rng.uniformInt(0, 1) != 0
                                     ? Opcode::ADD
                                     : Opcode::MUL,
                                 reg(), reg(), reg()));
            break;
          case 5:
            if (!bound.empty()) {
                const size_t pick = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(bound.size()) - 1));
                prog.push(makeJumpNz(reg(), bound[pick]));
            } else {
                prog.push(makeAddi(reg(), reg(), 1));
            }
            break;
        }
    }
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(5), 0));
    prog.noaliasRegs = {1};
    return prog;
}

bool
sameFlow(const ValueFlow &a, const ValueFlow &b)
{
    if (a.converged != b.converged ||
        a.controlResolved != b.controlResolved ||
        a.tripsResolved != b.tripsResolved || a.rounds != b.rounds ||
        a.loops.size() != b.loops.size() || a.in != b.in ||
        a.out != b.out)
        return false;
    for (size_t i = 0; i < a.loops.size(); ++i)
        if (a.loops[i].tripKnown != b.loops[i].tripKnown ||
            a.loops[i].trips != b.loops[i].trips)
            return false;
    return true;
}

TEST(ValueFlowTest, TerminatesAndIsDeterministicOnRandomCfgs)
{
    // Arbitrary backward-branch soups: straddling loops, shared heads,
    // self loops. The solve must reach a fixpoint (or degrade cleanly)
    // and produce bit-identical results on a second run.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        const Program prog = randomBranchyProgram(rng);
        const BlockGraph graph = buildBlockGraph(prog);
        const ValueFlow first = computeValueFlow(graph);
        const ValueFlow second = computeValueFlow(graph);
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        EXPECT_TRUE(sameFlow(first, second));
        ASSERT_EQ(first.in.size(), graph.numBlocks());
        if (!first.converged) {
            // Clean degradation: no facts, no loops, no certification.
            EXPECT_TRUE(first.loops.empty());
            EXPECT_FALSE(first.tripsResolved);
        }
    }
}

// ---- golden diagnostics: redundant loads ----------------------------

TEST(ValueFlowLintTest, RedundantLoadIsAWarning)
{
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 64));
    prog.push(makeLoad(Opcode::LOADW, sreg(3), sreg(1), 0));
    prog.push(makeLoad(Opcode::LOADB, sreg(4), sreg(1), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(3), 128));
    prog.declareNoalias(1);
    const LintResult result = lintPackedProgram(packSerial(prog));

    // The store at +64 is provably disjoint from [0,4), so the load at
    // instruction 2 re-reads available bytes; the byte-wide load at 3
    // has a different width and is not redundant.
    const auto hits = withCode(result.diags, DiagCode::LintRedundantLoad);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Warning);
    EXPECT_EQ(hits[0]->node, 2);
    EXPECT_EQ(result.counts.redundantLoad, 1u);
    EXPECT_EQ(result.counts.errors, 0u);
}

TEST(ValueFlowLintTest, ReloadAfterRegisterReuseIsNotRedundant)
{
    // A spill stage: r2 is stored to +0, reused for the value at +64,
    // then reloaded from +0. No register holds the bytes at +0 any more,
    // so the reload is needed.
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 256));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 0));
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 64));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 128));
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 192));
    prog.declareNoalias(1);
    const LintResult result = lintPackedProgram(packSerial(prog));
    EXPECT_TRUE(
        withCode(result.diags, DiagCode::LintRedundantLoad).empty());
    EXPECT_EQ(result.counts.redundantLoad, 0u);
    EXPECT_EQ(result.counts.errors, 0u);
}

TEST(ValueFlowLintTest, OverlappingStoreKillsAvailability)
{
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 2));
    prog.push(makeLoad(Opcode::LOADW, sreg(3), sreg(1), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(3), 256));
    prog.declareNoalias(1);
    const LintResult result = lintPackedProgram(packSerial(prog));

    // [2,6) overlaps [0,4): the second load may see different bytes.
    EXPECT_TRUE(
        withCode(result.diags, DiagCode::LintRedundantLoad).empty());
    EXPECT_EQ(result.counts.redundantLoad, 0u);
}

// ---- golden diagnostics: out-of-bounds ------------------------------

TEST(ValueFlowLintTest, OutOfBoundsAccessIsAnError)
{
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 126));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 0));
    prog.declareNoalias(1, 128);
    const LintResult result = lintPackedProgram(packSerial(prog));

    // [126, 130) escapes the declared 128-byte extent.
    const auto hits = withCode(result.diags, DiagCode::LintOutOfBounds);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
    EXPECT_EQ(hits[0]->node, 0);
    EXPECT_NE(hits[0]->message.find("[126, 130)"), std::string::npos);
    EXPECT_NE(hits[0]->message.find("extent 128"), std::string::npos);
    EXPECT_EQ(result.counts.bounds, 1u);
}

TEST(ValueFlowLintTest, InBoundsAccessIsClean)
{
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 124));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 0));
    prog.declareNoalias(1, 128);
    const LintResult result = lintPackedProgram(packSerial(prog));
    EXPECT_TRUE(withCode(result.diags, DiagCode::LintOutOfBounds).empty());
    EXPECT_EQ(result.counts.bounds, 0u);
}

TEST(ValueFlowLintTest, InductionRangeOutOfBoundsIsAnError)
{
    // A pointer walking 4 x 128 bytes provably reaches byte 384; with a
    // 256-byte extent the last iteration is certainly out of bounds.
    // The identical program with a 512-byte extent is clean -- the
    // range is exact, not an envelope.
    for (const int64_t extent : {int64_t{256}, int64_t{512}}) {
        Program prog;
        prog.push(makeMovi(sreg(0), 4));
        prog.push(makeMov(sreg(5), sreg(1)));
        const int loop = prog.newLabel();
        prog.bindLabel(loop);
        prog.push(makeLoad(Opcode::LOADW, sreg(6), sreg(5), 0));
        prog.push(makeAddi(sreg(5), sreg(5), 128));
        prog.push(makeAddi(sreg(0), sreg(0), -1));
        prog.push(makeJumpNz(sreg(0), loop));
        prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(6), 0));
        prog.declareNoalias(1, extent);
        const LintResult result = lintPackedProgram(packSerial(prog));

        SCOPED_TRACE(testing::Message() << "extent " << extent);
        const auto hits =
            withCode(result.diags, DiagCode::LintOutOfBounds);
        if (extent == 256) {
            ASSERT_EQ(hits.size(), 1u);
            EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
            EXPECT_EQ(hits[0]->node, 2); // the load inside the loop
            EXPECT_NE(hits[0]->message.find("[0, 388)"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(hits.empty());
        }
    }
}

// ---- golden diagnostics: cross-block noalias ------------------------

TEST(ValueFlowLintTest, CrossBranchNoaliasOverlapIsCaught)
{
    // The store sits in a branch-skippable block, the load after the
    // join: the accesses live in *different* basic blocks, so the old
    // per-block audit (symbolic state and pair grouping both reset at
    // block entry) provably could not pair them. The value-flow audit
    // groups them globally under root r1 and proves the overlap.
    Program prog;
    const int skip = prog.newLabel();
    prog.push(makeMovi(sreg(2), 42));
    prog.push(makeMovi(sreg(3), 1));
    prog.push(makeJumpNz(sreg(3), skip));
    prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), 100));
    prog.bindLabel(skip);
    prog.push(makeLoad(Opcode::LOADW, sreg(4), sreg(1), 100));
    prog.declareNoalias(1);
    const PackedProgram packed = packSerial(std::move(prog));

    const BlockGraph graph = buildBlockGraph(packed);
    ASSERT_NE(graph.blockOf(3), graph.blockOf(4));

    LintOptions lying;
    lying.mayAliasClaim = [](size_t, size_t) { return false; };
    const LintResult result = lintPackedProgram(packed, lying);
    const auto hits = withCode(result.diags, DiagCode::LintNoaliasOverlap);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->severity, DiagSeverity::Error);
    EXPECT_EQ(hits[0]->node, 4); // the later access of the pair

    // The honest oracle reports the pair as may-alias: clean.
    const LintResult honest = lintPackedProgram(packed);
    EXPECT_TRUE(
        withCode(honest.diags, DiagCode::LintNoaliasOverlap).empty());
}

TEST(ValueFlowLintTest, StridedLoopNoaliasOverlapIsCaught)
{
    // A singleton store before the loop against a strided access inside
    // it: overlap holds iff an integer iteration lands in the window.
    // Offset 256 is hit at iteration 2 of {0,128,256,384}; offset 300
    // falls between iterations and must stay clean.
    for (const int64_t offset : {int64_t{256}, int64_t{300}}) {
        Program prog;
        prog.push(makeMovi(sreg(2), 7));
        prog.push(makeStore(Opcode::STOREW, sreg(1), sreg(2), offset));
        prog.push(makeMovi(sreg(0), 4));
        prog.push(makeMov(sreg(5), sreg(1)));
        const int loop = prog.newLabel();
        prog.bindLabel(loop);
        prog.push(makeLoad(Opcode::LOADW, sreg(6), sreg(5), 0));
        prog.push(makeAddi(sreg(5), sreg(5), 128));
        prog.push(makeAddi(sreg(0), sreg(0), -1));
        prog.push(makeJumpNz(sreg(0), loop));
        prog.declareNoalias(1);
        const PackedProgram packed = packSerial(std::move(prog));

        LintOptions lying;
        lying.mayAliasClaim = [](size_t, size_t) { return false; };
        const LintResult result = lintPackedProgram(packed, lying);
        const auto hits =
            withCode(result.diags, DiagCode::LintNoaliasOverlap);
        SCOPED_TRACE(testing::Message() << "offset " << offset);
        if (offset == 256) {
            ASSERT_EQ(hits.size(), 1u);
            EXPECT_EQ(hits[0]->node, 4); // the strided load
        } else {
            EXPECT_TRUE(hits.empty());
        }
    }
}

// ---- Program::declareNoalias ----------------------------------------

TEST(DeclareNoaliasTest, DeduplicatesAndKeepsMaxExtent)
{
    Program prog;
    prog.declareNoalias(1, 100);
    prog.declareNoalias(2);
    prog.declareNoalias(1, 50); // duplicate, smaller: ignored
    ASSERT_EQ(prog.noaliasRegs.size(), 2u);
    EXPECT_EQ(prog.noaliasRegs[0], 1);
    EXPECT_EQ(prog.noaliasRegs[1], 2);
    ASSERT_EQ(prog.noaliasExtents.size(), 2u);
    EXPECT_EQ(prog.noaliasExtents[0], 100);
    EXPECT_EQ(prog.noaliasExtents[1], 0); // unknown

    prog.declareNoalias(1, 200); // duplicate, larger: widens
    prog.declareNoalias(2, 64);
    ASSERT_EQ(prog.noaliasRegs.size(), 2u);
    EXPECT_EQ(prog.noaliasExtents[0], 200);
    EXPECT_EQ(prog.noaliasExtents[1], 64);
}

// ---- generic lattice engine -----------------------------------------

/** Toy may-reach problem: which blocks (and the boundary) can flow
 *  into each block. Exercises solveLattice with a non-RegSet state. */
struct ReachProblem
{
    using State = uint32_t;
    static constexpr uint32_t kBoundaryBit = uint32_t{1} << 31;

    bool forward() const { return true; }
    State init() const { return 0; }
    State boundary() const { return kBoundaryBit; }
    void joinEdge(State &acc, const State &src, int, int) { acc |= src; }
    State transfer(int block, const State &in)
    {
        return in | (uint32_t{1} << block);
    }
    bool equal(State a, State b) const { return a == b; }
    int resetEnd(int block) const { return block; }
};

TEST(SolveLatticeTest, GenericProblemSolvesDiamond)
{
    Program prog;
    const int skip = prog.newLabel();
    prog.push(makeMovi(sreg(1), 1));
    prog.push(makeJumpNz(sreg(1), skip));
    prog.push(makeMovi(sreg(2), 7));
    prog.bindLabel(skip);
    prog.push(makeMovi(sreg(3), 9));
    const BlockGraph graph = buildBlockGraph(prog);
    ASSERT_EQ(graph.numBlocks(), 3u);

    ReachProblem problem;
    const LatticeResult<uint32_t> result = solveLattice(graph, problem);
    ASSERT_TRUE(result.converged);
    EXPECT_LE(result.rounds, 2);
    EXPECT_EQ(result.in[0], ReachProblem::kBoundaryBit);
    EXPECT_EQ(result.out[0], ReachProblem::kBoundaryBit | 0b001u);
    EXPECT_EQ(result.out[1], ReachProblem::kBoundaryBit | 0b011u);
    // The join block sees both the branch and fallthrough paths.
    EXPECT_EQ(result.in[2], ReachProblem::kBoundaryBit | 0b011u);
    EXPECT_EQ(result.out[2], ReachProblem::kBoundaryBit | 0b111u);
}

} // namespace
} // namespace gcd2::analysis
