/**
 * @file
 * Selector-rung comparison over the model zoo (Fig. 10 axes: solution
 * quality and search time per solver).
 *
 * For every zoo model this bench runs the whole selector ladder --
 * local baseline, PBQP, and the paper's GCD2(13) partitioned solver --
 * and records each rung's Agg_Cost plus the PBQP reduction-rule
 * telemetry. Search time is compared against the exhaustive
 * branch-and-bound: no zoo model is small enough to finish an unbounded
 * exhaustive solve, so the bench runs it under a fixed evaluation budget
 * and reports the truncated run's wall time, which is a *lower bound* on
 * the true exhaustive time (flagged in the JSON). PBQP beating the lower
 * bound therefore proves it beats the real thing.
 *
 * Output: human-readable table + machine-readable JSON (argv[1],
 * default "BENCH_selector.json") consumed by CI via
 * scripts/check_selector_bench.py against bench/selector_baseline.json.
 * The gates: PBQP proven optimal (rn == 0) and no worse than GCD2(13) or
 * local on every model, aggregate PBQP search time < aggregate
 * (budgeted) exhaustive time, and no per-model PBQP cost regression
 * against the checked-in baseline.
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/timer.h"
#include "models/zoo.h"
#include "select/cost_model.h"
#include "select/pbqp.h"
#include "select/selector.h"

using namespace gcd2;

namespace {

/**
 * Evaluation budget for the exhaustive lower-bound run. Large enough
 * that the truncated branch-and-bound takes visibly longer than any
 * PBQP solve (which reduces the same graphs in well under the budget's
 * wall time), small enough to keep the bench CI-friendly.
 */
constexpr uint64_t kExhaustiveBudget = 1000000;

/** Timing repeats; the minimum is reported to damp scheduler noise. */
constexpr int kTimingRepeats = 3;

struct ModelResult
{
    std::string name;
    size_t freeOps = 0;
    uint64_t localCost = 0;
    uint64_t pbqpCost = 0;
    uint64_t gcd2Cost = 0;
    select::PbqpStats pbqpStats;
    double pbqpSeconds = 0.0;
    double exhaustiveSeconds = 0.0;
    /** True when the exhaustive run truncated at the budget, making
     *  exhaustiveSeconds a lower bound rather than a completion time. */
    bool exhaustiveLowerBound = false;
};

ModelResult
runModel(const models::ModelInfo &info)
{
    ModelResult r;
    r.name = info.name;

    const graph::Graph graph = models::buildModel(info.id);
    const select::CostModel model;
    const select::PlanTable table(graph, model);
    r.freeOps = table.freeNodes().size();

    r.localCost = select::selectLocal(table).selection.totalCost;
    r.gcd2Cost =
        select::selectGcd2Partitioned(table, 13).selection.totalCost;

    for (int rep = 0; rep < kTimingRepeats; ++rep) {
        const Timer timer;
        const select::SelectorResult pbqp =
            select::selectPbqp(table, &r.pbqpStats);
        const double seconds = timer.seconds();
        if (rep == 0 || seconds < r.pbqpSeconds)
            r.pbqpSeconds = seconds;
        r.pbqpCost = pbqp.selection.totalCost;
    }
    for (int rep = 0; rep < kTimingRepeats; ++rep) {
        const Timer timer;
        const select::SelectorResult exhaustive =
            select::selectGlobalOptimal(table, r.freeOps,
                                        kExhaustiveBudget);
        const double seconds = timer.seconds();
        if (rep == 0 || seconds < r.exhaustiveSeconds)
            r.exhaustiveSeconds = seconds;
        r.exhaustiveLowerBound = exhaustive.truncated;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath =
        argc > 1 ? argv[1] : "BENCH_selector.json";

    std::cout << "Selector ladder comparison: local / pbqp / gcd2(13) vs "
                 "budgeted exhaustive\n\n";

    std::vector<ModelResult> results;
    results.reserve(models::allModels().size());
    for (const models::ModelInfo &info : models::allModels()) {
        std::cout << "  solving " << info.name << "...\n";
        results.push_back(runModel(info));
    }

    Table table({"Model", "Free ops", "Local", "PBQP",
                 "GCD2(13)", "PBQP rn", "PBQP ms", "Exhaustive ms"});
    for (const ModelResult &r : results)
        table.addRow({r.name, std::to_string(r.freeOps),
                      std::to_string(r.localCost),
                      std::to_string(r.pbqpCost),
                      std::to_string(r.gcd2Cost),
                      std::to_string(r.pbqpStats.rn),
                      fmtDouble(r.pbqpSeconds * 1e3, 2),
                      fmtDouble(r.exhaustiveSeconds * 1e3, 2) +
                          (r.exhaustiveLowerBound ? " (>=)" : "")});
    std::cout << "\n";
    table.print(std::cout);

    std::ostringstream json;
    json << "{\n  \"bench\": \"selector_comparison\",\n"
         << "  \"exhaustive_budget\": " << kExhaustiveBudget << ",\n"
         << "  \"models\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const ModelResult &r = results[i];
        json << "    {\n"
             << "      \"name\": \"" << r.name << "\",\n"
             << "      \"free_ops\": " << r.freeOps << ",\n"
             << "      \"local_cost\": " << r.localCost << ",\n"
             << "      \"pbqp_cost\": " << r.pbqpCost << ",\n"
             << "      \"gcd2_cost\": " << r.gcd2Cost << ",\n"
             << "      \"pbqp_r0\": " << r.pbqpStats.r0 << ",\n"
             << "      \"pbqp_r1\": " << r.pbqpStats.r1 << ",\n"
             << "      \"pbqp_r2\": " << r.pbqpStats.r2 << ",\n"
             << "      \"pbqp_rn\": " << r.pbqpStats.rn << ",\n"
             << "      \"pbqp_seconds\": " << r.pbqpSeconds << ",\n"
             << "      \"exhaustive_seconds\": " << r.exhaustiveSeconds
             << ",\n"
             << "      \"exhaustive_lower_bound\": "
             << (r.exhaustiveLowerBound ? "true" : "false") << "\n"
             << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::ofstream out(outPath);
    out << json.str();
    out.flush();
    if (!out) {
        std::cerr << "error: failed to write " << outPath << "\n";
        return 1;
    }
    std::cout << "\nwrote " << outPath << "\n";
    return 0;
}
