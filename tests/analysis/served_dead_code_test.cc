/**
 * @file
 * Zoo-level dead-code invariant: kernel generators emit no dead code, so
 * a dead-code rewrite of any served program would be the identity and
 * the bytes served are the bytes plan costing simulated. Every distinct
 * program served by every zoo model, with and without layout-transform
 * elimination, has an all-zero dead-instruction mask and passes the
 * Deep served-schedule gate with no dead stores and no Errors;
 * elimination never raises the transform bill.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/lint.h"
#include "analysis/schedule_check.h"
#include "models/zoo.h"
#include "runtime/compiler.h"

namespace gcd2::analysis {
namespace {

void
expectNoDeadCode(const runtime::CompiledModel &model, const char *modelName,
                 std::set<const dsp::PackedProgram *> &seen)
{
    for (const auto &sched : model.schedules) {
        if (!sched.program || !seen.insert(sched.program.get()).second)
            continue;
        const std::vector<uint8_t> dead =
            deadInstructionMask(buildBlockGraph(sched.program->program));
        EXPECT_EQ(std::count(dead.begin(), dead.end(), 1), 0)
            << modelName << " node " << sched.node;
        const ScheduleCheck check =
            checkSchedule(*sched.program, LintDepth::Full);
        EXPECT_EQ(check.lint.deadStore, 0u)
            << modelName << " node " << sched.node;
        EXPECT_EQ(check.errors(), 0u)
            << modelName << " node " << sched.node;
    }
}

TEST(RewriteZooTest, DceIsBitIdenticalAndTransformCyclesNeverRegress)
{
    runtime::CompileOptions unoptimized;
    unoptimized.eliminateLayoutTransforms = false;

    for (const models::ModelInfo &info : models::allModels()) {
        const graph::Graph g = models::buildModel(info.id);
        const runtime::CompiledModel off = runtime::compile(g, unoptimized);
        const runtime::CompiledModel on = runtime::compile(g);

        // Acceptance: elimination never raises the transform bill.
        EXPECT_LE(on.transformOnly.cycles, off.transformOnly.cycles)
            << info.name;

        // Both compiles are alive here, so program addresses are unique.
        std::set<const dsp::PackedProgram *> seen;
        expectNoDeadCode(on, info.name, seen);
        expectNoDeadCode(off, info.name, seen);
    }
}

} // namespace
} // namespace gcd2::analysis
