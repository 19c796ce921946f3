/**
 * @file
 * Layout-transform / dead-code telemetry CLI (CI: driven by
 * scripts/check_transforms.py).
 *
 * Compiles evaluation models with the default pipeline (layout-transform
 * elimination on) and prints, per model, the transform-cycle bill before
 * and after elimination, the elimination counter, and the dead-store
 * count a fresh lint of every distinct served schedule reports. Served
 * schedules are the generated kernels as plan costing simulated them,
 * so CI's "zero dead stores" gate checks the kernel generators directly;
 * it also gates the transform-cycles geomean against a committed
 * baseline.
 *
 * Exit code: 0 when every served schedule is dead-store-free, 1 when any
 * dead store survives, 2 on bad usage.
 *
 * Usage: gcd2_transform_report [model-name ...]   (default: whole zoo)
 */
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "models/zoo.h"
#include "runtime/compiler.h"

namespace {

using namespace gcd2;

size_t
reportModel(const models::ModelInfo &info)
{
    const graph::Graph g = models::buildModel(info.id);
    runtime::CompileOptions opts;
    opts.audit = runtime::AuditMode::Off; // lint below covers the gate
    const runtime::CompiledModel model = runtime::compile(g, opts);

    const runtime::PassReport *graphPass =
        model.report.pass("graph-optimize");
    const runtime::PassReport *cyclePass =
        model.report.pass("cycle-accounting");

    size_t deadStores = 0;
    std::set<const dsp::PackedProgram *> distinct;
    for (const runtime::CompiledModel::ServedSchedule &sched :
         model.schedules) {
        if (!sched.program || !distinct.insert(sched.program.get()).second)
            continue;
        deadStores +=
            analysis::lintPackedProgram(*sched.program).counts.deadStore;
    }

    std::printf(
        "transform model=%s transform-cycles=%llu "
        "transform-cycles-pre=%llu eliminated=%llu programs=%zu "
        "dead-store=%zu\n",
        info.name,
        static_cast<unsigned long long>(
            cyclePass->counter("transform-cycles")),
        static_cast<unsigned long long>(
            cyclePass->counter("transform-cycles-pre")),
        static_cast<unsigned long long>(
            graphPass->counter("transform-eliminated")),
        distinct.size(), deadStores);
    return deadStores;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> wanted(argv + 1, argv + argc);
    for (const std::string &name : wanted) {
        bool known = false;
        for (const models::ModelInfo &info : models::allModels())
            known = known || name == info.name;
        if (!known) {
            std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
            return 2;
        }
    }

    size_t modelCount = 0;
    size_t deadStores = 0;
    for (const models::ModelInfo &info : models::allModels()) {
        if (!wanted.empty() &&
            std::find(wanted.begin(), wanted.end(), info.name) ==
                wanted.end())
            continue;
        deadStores += reportModel(info);
        ++modelCount;
    }

    std::printf("transform summary models=%zu dead-store=%zu\n",
                modelCount, deadStores);
    return deadStores > 0 ? 1 : 0;
}
