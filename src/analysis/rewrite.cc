#include "analysis/rewrite.h"

#include <numeric>
#include <string>

#include "analysis/dataflow.h"
#include "analysis/schedule_check.h"
#include "vliw/pack_cache.h"

namespace gcd2::analysis {

using common::Diag;
using common::DiagCode;
using common::DiagSeverity;

DceResult
rewriteDeadCode(std::shared_ptr<const dsp::PackedProgram> packed,
                const vliw::PackOptions &packOptions)
{
    DceResult result;
    result.program = packed;
    if (!packed || packed->program.code.empty())
        return result;

    const dsp::Program &prog = packed->program;
    const BlockGraph graph = buildBlockGraph(*packed);

    // Liveness fixpoint: deleting a dead instruction removes its reads,
    // which can strand the instructions that fed it. Re-run the mask
    // with the accumulated removals until nothing new dies. Branches
    // and stores are never dead, so the CFG shape is stable across
    // rounds and the one BlockGraph stays valid.
    std::vector<uint8_t> removed(prog.code.size(), 0);
    size_t removedCount = 0;
    for (;;) {
        ++result.stats.rounds;
        const std::vector<uint8_t> dead =
            deadInstructionMask(graph, &removed);
        bool grew = false;
        for (size_t i = 0; i < dead.size(); ++i) {
            if (dead[i] && !removed[i]) {
                removed[i] = 1;
                ++removedCount;
                grew = true;
            }
        }
        if (!grew)
            break;
    }
    if (removedCount == 0)
        return result; // nothing to do: serve the original

    // Materialize the compacted program: live instructions in original
    // program order; every label re-targets the count of live
    // instructions before it (a label one past the end stays legal, and
    // a label on a removed instruction slides to the next live one --
    // sound, because a dead instruction has no effect on any path).
    std::vector<size_t> liveBefore(prog.code.size() + 1, 0);
    for (size_t i = 0; i < prog.code.size(); ++i)
        liveBefore[i + 1] = liveBefore[i] + (removed[i] ? 0 : 1);

    dsp::Program compact;
    compact.code.reserve(prog.code.size() - removedCount);
    for (size_t i = 0; i < prog.code.size(); ++i)
        if (!removed[i])
            compact.code.push_back(prog.code[i]);
    compact.labels.reserve(prog.labels.size());
    for (size_t target : prog.labels)
        compact.labels.push_back(
            liveBefore[std::min(target, prog.code.size())]);
    compact.noaliasRegs = prog.noaliasRegs;

    // Re-pack through the content-addressed cache: distinct nodes that
    // shared the original program keep sharing the rewritten one.
    std::shared_ptr<const dsp::PackedProgram> repacked =
        vliw::PackCache::global().lookupOrPack(compact, packOptions);

    // Serve the rewrite only if it is provably clean: it passes the
    // served-schedule gate with every analyzer on and has no dead
    // stores left.
    const ScheduleCheck check = checkSchedule(*repacked, LintDepth::Full);
    if (check.errors() > 0 || check.lint.deadStore > 0) {
        result.diags.push_back(
            Diag{DiagSeverity::Warning, "dce", -1,
                 "dead-code rewrite rejected (" +
                     std::to_string(check.auditFindings) +
                     " audit findings, " +
                     std::to_string(check.lint.deadStore) +
                     " residual dead stores, " +
                     std::to_string(check.lint.errors) +
                     " lint errors); serving the original schedule",
                 DiagCode::LintDeadStore});
        // The audit findings lead check.diags.
        result.diags.insert(result.diags.end(), check.diags.begin(),
                            check.diags.begin() +
                                static_cast<ptrdiff_t>(
                                    check.auditFindings));
        return result;
    }

    result.stats.removedInstructions = removedCount;
    if (repacked->packets.size() < packed->packets.size())
        result.stats.removedPackets =
            packed->packets.size() - repacked->packets.size();
    result.stats.rewritten = true;
    result.program = std::move(repacked);
    return result;
}

} // namespace gcd2::analysis
