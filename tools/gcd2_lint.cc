/**
 * @file
 * Dataflow lint CLI (CI: driven by scripts/check_lint.py).
 *
 * Compiles evaluation models (audit off -- this tool IS the audit) and
 * runs the Deep served-schedule gate (analysis/schedule_check.h: the
 * schedule check table plus every analysis/lint.h analyzer) over each
 * distinct packed program the compile serves. Prints machine-parseable
 * per-program counts, every finding verbatim, and a summary line; the
 * exit code is the maximum severity seen (0 = clean/info, 1 = warnings
 * only, 2 = errors), so CI can gate on "no Error-severity diagnostics
 * on any served kernel".
 *
 * With --json the tool instead emits one JSON document keyed on the
 * *stable* fields of each finding -- diagnostic code, severity, node
 * (the instruction index the diag anchors on), block, instruction --
 * never on message text, so CI baselines survive message rewording.
 *
 * Usage: gcd2_lint [--json] [model-name ...]   (default: the whole zoo)
 */
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/schedule_check.h"
#include "common/diag.h"
#include "models/zoo.h"
#include "runtime/compiler.h"

namespace {

using namespace gcd2;

/** One finding plus the block its anchor instruction lives in. */
struct Finding
{
    common::Diag diag;
    int block = -1;
};

struct ModelReport
{
    std::string name;
    size_t programs = 0;
    analysis::LintCounts counts;
    /** Findings that fail the gate: schedule check and lint Errors. */
    size_t errors = 0;
    std::vector<Finding> findings;
};

ModelReport
lintModel(const models::ModelInfo &info)
{
    ModelReport report;
    report.name = info.name;

    const graph::Graph g = models::buildModel(info.id);
    runtime::CompileOptions opts;
    opts.audit = runtime::AuditMode::Off; // the lint below replaces it
    const runtime::CompiledModel model = runtime::compile(g, opts);

    std::set<const dsp::PackedProgram *> distinct;
    for (const runtime::CompiledModel::ServedSchedule &sched :
         model.schedules) {
        if (!sched.program || !distinct.insert(sched.program.get()).second)
            continue;
        const analysis::ScheduleCheck check = analysis::checkSchedule(
            *sched.program, analysis::LintDepth::Full);
        report.counts += check.lint;
        report.errors += check.errors();

        // Resolve each finding's anchor instruction to its basic block
        // so JSON consumers get a position that is stable under message
        // rewording (codes + positions are the golden-baseline key).
        const analysis::BlockGraph graph =
            analysis::buildBlockGraph(*sched.program);
        for (const common::Diag &diag : check.diags) {
            Finding finding;
            finding.diag = diag;
            if (diag.node >= 0 && graph.program &&
                static_cast<size_t>(diag.node) <
                    graph.program->code.size())
                finding.block =
                    graph.blockOf(static_cast<size_t>(diag.node));
            report.findings.push_back(std::move(finding));
        }
    }
    report.programs = distinct.size();
    return report;
}

void
printText(const ModelReport &report)
{
    std::printf("lint model=%s programs=%zu use-def=%zu dead-store=%zu "
                "noalias=%zu redundant-load=%zu bounds=%zu errors=%zu "
                "warnings=%zu\n",
                report.name.c_str(), report.programs,
                report.counts.useBeforeDef, report.counts.deadStore,
                report.counts.noalias, report.counts.redundantLoad,
                report.counts.bounds, report.errors,
                report.counts.warnings);
    for (const Finding &finding : report.findings)
        std::printf("diag model=%s %s\n", report.name.c_str(),
                    finding.diag.toString().c_str());
}

void
printJson(const std::vector<ModelReport> &reports, size_t programs,
          size_t errors, size_t warnings)
{
    std::printf("{\n  \"models\": [\n");
    for (size_t m = 0; m < reports.size(); ++m) {
        const ModelReport &report = reports[m];
        std::printf("    {\n      \"model\": \"%s\",\n"
                    "      \"programs\": %zu,\n"
                    "      \"findings\": [",
                    report.name.c_str(), report.programs);
        for (size_t f = 0; f < report.findings.size(); ++f) {
            const Finding &finding = report.findings[f];
            const common::Diag &diag = finding.diag;
            // node == instruction (findings anchor on instruction
            // indexes, or -1 for the whole program); both are emitted
            // so consumers need not know that convention.
            std::printf("%s\n        {\"code\": \"%s\", "
                        "\"severity\": \"%s\", \"node\": %lld, "
                        "\"block\": %d, \"instruction\": %lld}",
                        f == 0 ? "" : ",",
                        common::diagCodeName(diag.code),
                        common::diagSeverityName(diag.severity),
                        static_cast<long long>(diag.node), finding.block,
                        static_cast<long long>(diag.node));
        }
        std::printf("%s]\n    }%s\n",
                    report.findings.empty() ? "" : "\n      ",
                    m + 1 == reports.size() ? "" : ",");
    }
    std::printf("  ],\n  \"summary\": {\"models\": %zu, "
                "\"programs\": %zu, \"errors\": %zu, "
                "\"warnings\": %zu}\n}\n",
                reports.size(), programs, errors, warnings);
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::vector<std::string> wanted;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else
            wanted.push_back(argv[i]);
    }

    bool matchedAll = true;
    for (const std::string &name : wanted) {
        bool known = false;
        for (const models::ModelInfo &info : models::allModels())
            known = known || name == info.name;
        if (!known) {
            std::fprintf(stderr, "unknown model '%s' (see `lint model=` "
                                 "lines for valid names)\n",
                         name.c_str());
            matchedAll = false;
        }
    }
    if (!matchedAll)
        return 2;

    std::vector<ModelReport> reports;
    size_t programs = 0;
    size_t errors = 0;
    size_t warnings = 0;
    for (const models::ModelInfo &info : models::allModels()) {
        if (!wanted.empty() &&
            std::find(wanted.begin(), wanted.end(), info.name) ==
                wanted.end())
            continue;
        reports.push_back(lintModel(info));
        programs += reports.back().programs;
        errors += reports.back().errors;
        warnings += reports.back().counts.warnings;
    }

    if (json) {
        printJson(reports, programs, errors, warnings);
    } else {
        for (const ModelReport &report : reports)
            printText(report);
        const char *severity =
            errors > 0 ? "error" : (warnings > 0 ? "warning" : "clean");
        std::printf("lint summary models=%zu programs=%zu errors=%zu "
                    "warnings=%zu max-severity=%s\n",
                    reports.size(), programs, errors, warnings, severity);
    }
    return errors > 0 ? 2 : (warnings > 0 ? 1 : 0);
}
