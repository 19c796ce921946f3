#include "analysis/schedule_check.h"

#include <iterator>
#include <set>

#include "common/thread_pool.h"
#include "vliw/audit.h"

namespace gcd2::analysis {

namespace {

void
appendDiags(std::vector<common::Diag> &to, std::vector<common::Diag> &from)
{
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

} // namespace

ScheduleCheck
checkSchedule(const dsp::PackedProgram &program, LintDepth depth)
{
    ScheduleCheck check;
    check.diags = vliw::auditSchedule(program);
    check.auditFindings = check.diags.size();
    LintOptions options;
    options.depth = depth;
    LintResult linted = lintPackedProgram(program, options);
    check.lint = linted.counts;
    appendDiags(check.diags, linted.diags);
    check.programs = 1;
    return check;
}

ScheduleCheck
checkSchedules(const std::vector<const dsp::PackedProgram *> &programs,
               LintDepth depth, ThreadPool *pool)
{
    std::vector<const dsp::PackedProgram *> distinct;
    std::set<const dsp::PackedProgram *> seen;
    for (const dsp::PackedProgram *program : programs)
        if (seen.insert(program).second)
            distinct.push_back(program);

    std::vector<ScheduleCheck> slots(distinct.size());
    const auto checkOne = [&](int64_t i) {
        const auto index = static_cast<size_t>(i);
        slots[index] = checkSchedule(*distinct[index], depth);
    };
    const auto count = static_cast<int64_t>(distinct.size());
    if (pool != nullptr)
        pool->parallelFor(count, checkOne);
    else
        for (int64_t i = 0; i < count; ++i)
            checkOne(i);

    ScheduleCheck merged;
    for (ScheduleCheck &slot : slots) {
        appendDiags(merged.diags, slot.diags);
        merged.auditFindings += slot.auditFindings;
        merged.lint += slot.lint;
        merged.programs += slot.programs;
    }
    return merged;
}

} // namespace gcd2::analysis
