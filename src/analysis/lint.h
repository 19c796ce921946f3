/**
 * @file
 * Dataflow lint layer over packed DSP programs.
 *
 * Four analyzers, all reporting through common::Diag with stable
 * DiagCodes (pass name "lint"):
 *
 *  - Use-before-def (use_def.cc): two forward dataflow problems over the
 *    scheduled instruction order. A read outside the *maybe*-assigned set
 *    (union meet) can never have been written on any path: Error
 *    LintUseBeforeDef. A read inside maybe- but outside the
 *    *definitely*-assigned set (intersection meet) is uninitialized on at
 *    least one path: Warning LintMaybeUninit. Registers declared in
 *    Program::noaliasRegs are entry-defined (the kernel buffer ABI)
 *    unless LintOptions::entryDefinedRegs names others. This is the
 *    one use-before-def check: kernel validation (kernels::runKernel)
 *    runs it too, beside dsp::verifyProgram's structural checks.
 *
 *  - Dead-store (use_def.cc): backward liveness. A side-effect-free
 *    instruction none of whose written registers are live afterwards is a
 *    dead store (Warning LintDeadStore); a packet made up entirely of
 *    dead instructions is a dead packet (Warning LintDeadPacket).
 *
 *  - Intra-packet hazards (hazards.cc): per-packet pair scan. Write-write
 *    register conflicts (Error LintWriteConflict), resource overcommit
 *    beyond the slot/unit model (Error LintSlotOvercommit), and a
 *    differential check of the packer's mask-based co-pack delay claims
 *    (dsp::CopackModel::copackDelay, the tables FastIdg embeds) against
 *    the ground-truth dsp::deps classification (Error LintDelayClaim) --
 *    deliberately *not* checked against the pruned FastIdg edge set,
 *    which would be circular.
 *
 *  - Noalias audit (noalias_audit.cc): whole-program symbolic address
 *    comparison over the value-flow lattice (analysis/valueflow.h).
 *    A store-involving access pair -- same block, across branches, or
 *    across loop iterations via induction terms -- whose addresses
 *    provably overlap while the alias oracle claims disjointness is a
 *    lying claim: Error LintNoaliasOverlap. Duplicate
 *    Program::noaliasRegs entries (two "disjoint" buffers with the same
 *    base) are Error LintNoaliasDupBase.
 *
 *  - Redundant load (redundant_load.cc): a load whose symbolic address
 *    value-numbers equal to a prior same-block load or store with no
 *    possibly-clobbering store in between re-reads a value the program
 *    already holds: Warning LintRedundantLoad (fodder for the rewrite /
 *    DCE machinery, never a correctness claim).
 *
 *  - Induction-range bounds (bounds_lint.cc): when control and trip
 *    counts are fully resolved, every access range off a declared
 *    noalias base with a known byte extent (Program::noaliasExtents) is
 *    exact; a range escaping the buffer is a provable out-of-bounds
 *    access on a realized iteration: Error LintOutOfBounds.
 *
 * Severity policy: only findings that prove a miscompile, a lying
 * oracle, or a certain out-of-bounds access are Errors;
 * maybe-uninitialized, dead and redundant code are Warnings so
 * conservatively generated kernels cannot fail CI on them.
 */
#ifndef GCD2_ANALYSIS_LINT_H
#define GCD2_ANALYSIS_LINT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/valueflow.h"
#include "common/diag.h"
#include "dsp/packet.h"

namespace gcd2::analysis {

/**
 * How much of the lint runs. Cheap is the per-packet hazard scan alone
 * (linear in packet members): what every served schedule and every
 * loaded artifact must pass. Full adds the whole-program analyzers
 * (use-before-def, dead stores) and the value-flow family (noalias
 * claim audit, redundant loads, induction-range bounds).
 */
enum class LintDepth : uint8_t
{
    Cheap,
    Full,
};

/** Which analyzers to run and with what environment assumptions. */
struct LintOptions
{
    LintDepth depth = LintDepth::Full;

    /**
     * Scalar registers holding valid values at program entry. When unset,
     * defaults to Program::noaliasRegs -- the kernel buffer ABI. Kernel
     * validation (kernels::runKernel) passes r1..r4 here.
     */
    const std::vector<int8_t> *entryDefinedRegs = nullptr;

    /**
     * The may-alias oracle whose claims the noalias audit cross-checks
     * (what the packer was told). When unset, a dsp::AliasAnalysis of the
     * program is built -- the production configuration. Tests inject
     * lying oracles here.
     */
    std::function<bool(size_t, size_t)> mayAliasClaim;
};

/** Finding counts, by analyzer and by severity. */
struct LintCounts
{
    size_t useBeforeDef = 0;
    size_t deadStore = 0;
    size_t hazards = 0;
    size_t noalias = 0;
    size_t redundantLoad = 0;
    size_t bounds = 0;
    size_t errors = 0;
    size_t warnings = 0;

    size_t total() const
    {
        return useBeforeDef + deadStore + hazards + noalias +
               redundantLoad + bounds;
    }

    LintCounts &operator+=(const LintCounts &other);
};

/** All findings of one lint run. */
struct LintResult
{
    std::vector<common::Diag> diags;
    LintCounts counts;
};

/** Run the analyzers @p options.depth selects over @p packed. */
LintResult lintPackedProgram(const dsp::PackedProgram &packed,
                             const LintOptions &options = {});

// Individual analyzers (append to @p diags, return finding count) -----

size_t analyzeUseBeforeDef(const BlockGraph &graph,
                           const LintOptions &options,
                           std::vector<common::Diag> &diags);
size_t analyzeDeadStores(const BlockGraph &graph,
                         std::vector<common::Diag> &diags);

/**
 * Backward-liveness dead mask: dead[i] = 1 iff instruction i writes only
 * registers no path ever reads afterwards (and has no memory/control
 * effect). Instructions flagged in @p removed (optional) are treated as
 * already deleted -- their reads keep nothing alive -- which is what
 * lets rewriteDeadCode iterate the mask to a fixpoint. The single source
 * of truth behind both analyzeDeadStores and the DCE rewrite.
 */
std::vector<uint8_t>
deadInstructionMask(const BlockGraph &graph,
                    const std::vector<uint8_t> *removed = nullptr);
size_t analyzeHazards(const BlockGraph &graph,
                      std::vector<common::Diag> &diags);
size_t analyzeNoalias(const BlockGraph &graph, const ValueFlow &flow,
                      const LintOptions &options,
                      std::vector<common::Diag> &diags);
size_t analyzeRedundantLoads(const BlockGraph &graph,
                             const ValueFlow &flow,
                             std::vector<common::Diag> &diags);
size_t analyzeBounds(const BlockGraph &graph, const ValueFlow &flow,
                     std::vector<common::Diag> &diags);

} // namespace gcd2::analysis

#endif // GCD2_ANALYSIS_LINT_H
