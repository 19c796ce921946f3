#include "analysis/lint.h"

#include <algorithm>

namespace gcd2::analysis {

using common::DiagSeverity;

LintCounts &
LintCounts::operator+=(const LintCounts &other)
{
    useBeforeDef += other.useBeforeDef;
    deadStore += other.deadStore;
    noalias += other.noalias;
    redundantLoad += other.redundantLoad;
    bounds += other.bounds;
    errors += other.errors;
    warnings += other.warnings;
    return *this;
}

LintResult
lintPackedProgram(const dsp::PackedProgram &packed,
                  const LintOptions &options)
{
    LintResult result;
    const BlockGraph graph = buildBlockGraph(packed);

    result.counts.useBeforeDef =
        analyzeUseBeforeDef(graph, options, result.diags);
    result.counts.deadStore = analyzeDeadStores(graph, result.diags);

    // The address-based analyzers share one value-flow solve.
    const ValueFlow flow = computeValueFlow(graph);
    result.counts.noalias =
        analyzeNoalias(graph, flow, options, result.diags);
    result.counts.redundantLoad =
        analyzeRedundantLoads(graph, flow, result.diags);
    result.counts.bounds = analyzeBounds(graph, flow, result.diags);

    for (const common::Diag &diag : result.diags) {
        if (diag.severity == DiagSeverity::Error)
            ++result.counts.errors;
        else if (diag.severity == DiagSeverity::Warning)
            ++result.counts.warnings;
    }
    return result;
}

} // namespace gcd2::analysis
