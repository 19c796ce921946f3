/**
 * @file
 * The served-schedule gate: the one check a packed program passes
 * before it is served, whether it comes from a fresh compile (the audit
 * pass) or from disk (ArtifactStore::load).
 *
 * A program passes when the schedule check table (dsp/schedule_checks.h,
 * at CheckDepth::Full) finds no violation and, at LintDepth::Full,
 * lintPackedProgram finds no Error. Lint Warnings never fail the gate.
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

/**
 * How much of the gate runs. Cheap is the schedule check table alone
 * (structure, slots, hard dependencies, delay claims): what every
 * served schedule and every loaded artifact must pass. Full adds every
 * lint analyzer.
 */
enum class LintDepth : uint8_t
{
    Cheap,
    Full,
};

/** Findings of the gate over one or more programs. */
struct ScheduleCheck
{
    /** Per program, in first-occurrence order: its schedule check
     *  findings, then its lint findings. */
    std::vector<common::Diag> diags;
    /** Schedule check table findings (each one an Error). */
    size_t scheduleFindings = 0;
    LintCounts lint;
    /** Distinct programs checked. */
    size_t programs = 0;

    /** Findings that fail the gate. */
    size_t errors() const { return scheduleFindings + lint.errors; }
};

/** Check one program. */
ScheduleCheck checkSchedule(const dsp::PackedProgram &program,
                            LintDepth depth);

/**
 * Check each distinct program of @p programs (a schedule list's
 * programs; repeats are checked once). With a @p pool the programs are
 * checked in parallel, one result slot each; the merge runs in
 * first-occurrence order, so the result does not depend on the thread
 * count.
 */
ScheduleCheck
checkSchedules(const std::vector<const dsp::PackedProgram *> &programs,
               LintDepth depth, ThreadPool *pool = nullptr);

} // namespace gcd2::analysis

#endif // GCD2_ANALYSIS_SCHEDULE_CHECK_H
