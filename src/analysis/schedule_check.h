/**
 * @file
 * The served-schedule gate: the one check a packed program passes
 * before it is served, whether it comes from a fresh compile (the audit
 * pass), from disk (ArtifactStore::load) or from the dead-code rewrite.
 *
 * A program passes when vliw::auditSchedule finds no structural
 * violation and lintPackedProgram, at the caller's LintDepth, finds no
 * Error. Lint Warnings never fail the gate.
 */
#ifndef GCD2_ANALYSIS_SCHEDULE_CHECK_H
#define GCD2_ANALYSIS_SCHEDULE_CHECK_H

#include <vector>

#include "analysis/lint.h"
#include "common/diag.h"
#include "dsp/packet.h"

namespace gcd2 {
class ThreadPool;
}

namespace gcd2::analysis {

/** Findings of the gate over one or more programs. */
struct ScheduleCheck
{
    /** Per program, in first-occurrence order: its structural audit
     *  findings, then its lint findings. */
    std::vector<common::Diag> diags;
    /** vliw::auditSchedule findings (each one an Error). */
    size_t auditFindings = 0;
    LintCounts lint;
    /** Distinct programs checked. */
    size_t programs = 0;

    /** Findings that fail the gate. */
    size_t errors() const { return auditFindings + lint.errors; }
};

/** Audit and lint one program. */
ScheduleCheck checkSchedule(const dsp::PackedProgram &program,
                            LintDepth depth);

/**
 * Audit and lint each distinct program of @p programs (a schedule
 * list's programs; repeats are checked once). With a @p pool the
 * programs are checked in parallel, one result slot each; the merge
 * runs in first-occurrence order, so the result does not depend on the
 * thread count.
 */
ScheduleCheck
checkSchedules(const std::vector<const dsp::PackedProgram *> &programs,
               LintDepth depth, ThreadPool *pool = nullptr);

} // namespace gcd2::analysis

#endif // GCD2_ANALYSIS_SCHEDULE_CHECK_H
