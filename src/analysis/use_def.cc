/**
 * @file
 * Use-before-def and dead-store analyzers (see analysis/lint.h).
 */
#include <string>

#include "analysis/lint.h"
#include "dsp/deps.h"

namespace gcd2::analysis {

using common::Diag;
using common::DiagCode;
using common::DiagSeverity;

namespace {

std::string
regName(int uid)
{
    const bool scalar = uid < dsp::kNumScalarRegs;
    std::string name(1, scalar ? 'r' : 'v');
    name += std::to_string(scalar ? uid : uid - dsp::kNumScalarRegs);
    return name;
}

RegSet
readMask(const dsp::Instruction &inst)
{
    return dsp::regMasks(inst).reads;
}

RegSet
writeMask(const dsp::Instruction &inst)
{
    return dsp::regMasks(inst).writes;
}

/** Per-block register write masks, in scheduled order (order does not
 *  matter for the block-level transfer, but reuse keeps it obvious). */
std::vector<RegSet>
blockWriteMasks(const BlockGraph &graph)
{
    std::vector<RegSet> writes(graph.numBlocks(), 0);
    for (size_t b = 0; b < graph.numBlocks(); ++b)
        for (size_t i : graph.scheduled[b])
            writes[b] |= writeMask(graph.program->code[i]);
    return writes;
}

} // namespace

size_t
analyzeUseBeforeDef(const BlockGraph &graph, const LintOptions &options,
                    std::vector<Diag> &diags)
{
    const dsp::Program &prog = *graph.program;
    if (prog.code.empty())
        return 0;

    RegSet entry = 0;
    const std::vector<int8_t> &entryRegs = options.entryDefinedRegs
                                               ? *options.entryDefinedRegs
                                               : prog.noaliasRegs;
    for (int8_t reg : entryRegs)
        if (reg >= 0 && reg < dsp::kNumScalarRegs)
            entry |= RegSet{1} << reg;

    // Both problems share the transfer "out = in | writes" (a block is
    // straight-line, so every write in it is unconditional); they differ
    // only in the meet. Union answers "written on SOME path", intersection
    // "written on EVERY path".
    DataflowProblem problem;
    problem.direction = DataflowProblem::Direction::Forward;
    problem.boundary = entry;
    problem.gen = blockWriteMasks(graph);
    problem.kill.assign(graph.numBlocks(), 0);

    problem.meet = DataflowProblem::Meet::Union;
    const DataflowResult maybe = solveDataflow(graph, problem);
    problem.meet = DataflowProblem::Meet::Intersect;
    const DataflowResult definite = solveDataflow(graph, problem);

    size_t findings = 0;
    for (size_t b = 0; b < graph.numBlocks(); ++b) {
        if (!graph.reachable[b])
            continue; // no execution reaches it; structural lint's job
        RegSet maybeSet = maybe.in[b];
        RegSet definiteSet = definite.in[b];
        for (size_t i : graph.scheduled[b]) {
            const dsp::Instruction &inst = prog.code[i];
            for (int uid : dsp::regReads(inst)) {
                const RegSet bit = RegSet{1} << uid;
                if (!(maybeSet & bit)) {
                    ++findings;
                    diags.push_back(Diag{
                        DiagSeverity::Error, "lint",
                        static_cast<int64_t>(i),
                        "read of " + regName(uid) +
                            " which no path ever writes, in '" +
                            inst.toString() + "'",
                        DiagCode::LintUseBeforeDef});
                } else if (!(definiteSet & bit)) {
                    ++findings;
                    diags.push_back(Diag{
                        DiagSeverity::Warning, "lint",
                        static_cast<int64_t>(i),
                        "read of " + regName(uid) +
                            " which some path never writes, in '" +
                            inst.toString() + "'",
                        DiagCode::LintMaybeUninit});
                }
                // Report each register once: treat the flagged read as a
                // def so later reads of the same garbage stay quiet.
                maybeSet |= bit;
                definiteSet |= bit;
            }
            const RegSet writes = writeMask(inst);
            maybeSet |= writes;
            definiteSet |= writes;
        }
    }
    return findings;
}

std::vector<uint8_t>
deadInstructionMask(const BlockGraph &graph)
{
    const dsp::Program &prog = *graph.program;
    std::vector<uint8_t> dead(prog.code.size(), 0);
    if (prog.code.empty())
        return dead;

    // Backward liveness. Per block (walking the scheduled order
    // backwards): gen = upward-exposed reads, kill = writes. Nothing is
    // live at program exit -- kernel results leave through stores, not
    // registers (the buffer ABI).
    DataflowProblem problem;
    problem.direction = DataflowProblem::Direction::Backward;
    problem.meet = DataflowProblem::Meet::Union;
    problem.boundary = 0;
    problem.gen.assign(graph.numBlocks(), 0);
    problem.kill.assign(graph.numBlocks(), 0);
    for (size_t b = 0; b < graph.numBlocks(); ++b) {
        RegSet &gen = problem.gen[b];
        RegSet &kill = problem.kill[b];
        const std::vector<size_t> &order = graph.scheduled[b];
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const dsp::Instruction &inst = prog.code[*it];
            const RegSet writes = writeMask(inst);
            gen &= ~writes;
            kill |= writes;
            gen |= readMask(inst);
        }
    }
    const DataflowResult live = solveDataflow(graph, problem);

    for (size_t b = 0; b < graph.numBlocks(); ++b) {
        RegSet liveSet = live.out[b];
        const std::vector<size_t> &order = graph.scheduled[b];
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const size_t i = *it;
            const dsp::Instruction &inst = prog.code[i];
            const RegSet writes = writeMask(inst);
            // A register-writing instruction with no other architectural
            // effect whose every result is dead does nothing. Stores and
            // branches have effects beyond registers; NOPs write nothing.
            if (writes != 0 && (writes & liveSet) == 0 &&
                inst.info().mem != dsp::MemKind::Store &&
                !inst.isBranch())
                dead[i] = 1;
            liveSet &= ~writes;
            liveSet |= readMask(inst);
        }
    }
    return dead;
}

size_t
analyzeDeadStores(const BlockGraph &graph, std::vector<Diag> &diags)
{
    const dsp::Program &prog = *graph.program;
    if (prog.code.empty())
        return 0;

    const std::vector<uint8_t> dead = deadInstructionMask(graph);

    size_t findings = 0;
    for (size_t b = 0; b < graph.numBlocks(); ++b) {
        const std::vector<size_t> &order = graph.scheduled[b];
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const size_t i = *it;
            if (!dead[i])
                continue;
            ++findings;
            diags.push_back(
                Diag{DiagSeverity::Warning, "lint",
                     static_cast<int64_t>(i),
                     "result of '" + prog.code[i].toString() +
                         "' is never used on any path",
                     DiagCode::LintDeadStore});
        }
    }

    // A packet whose every member is dead stalls the machine for nothing:
    // the packer should never have emitted it. (Bare-program graphs have
    // no packets to flag.)
    const size_t numPackets =
        graph.packed ? graph.packed->packets.size() : 0;
    for (size_t p = 0; p < numPackets; ++p) {
        const std::vector<size_t> &insts = graph.packed->packets[p].insts;
        if (insts.empty())
            continue;
        bool allDead = true;
        for (size_t idx : insts)
            if (idx >= dead.size() || !dead[idx])
                allDead = false;
        if (allDead) {
            ++findings;
            diags.push_back(Diag{DiagSeverity::Warning, "lint",
                                 static_cast<int64_t>(insts.front()),
                                 "packet " + std::to_string(p) +
                                     " computes only dead results",
                                 DiagCode::LintDeadPacket});
        }
    }
    return findings;
}

} // namespace gcd2::analysis
