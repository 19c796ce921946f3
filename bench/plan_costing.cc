/**
 * @file
 * Cold-compile plan-costing benchmark: wall time and simulated-plan
 * counts per zoo model with every process-wide cache emptied first.
 *
 * Cold compiles are what a fresh service process (or a model never seen
 * before) pays, and plan costing -- kernel generation, VLIW packing, and
 * tile simulation of every candidate plan -- dominates them. The tiered
 * coster (select/tiered_cost.h) attacks exactly this: analytic bounds
 * prefilter exhaustive unroll search's candidates, affine derivation
 * prices deep tiles without simulating them, and shape-class sharing
 * costs each structurally identical operator once.
 *
 * Two measurements per zoo model, each a tiered/exhaustive pair compiled
 * truly cold (CostCache is per-model; PackCache and DecodeCache are
 * cleared between compiles):
 *   1. default options (Adaptive unroll) -- the shape-class + affine
 *      derivation + transplant path carries the speedup;
 *   2. Exhaustive unroll search -- the tier-1 analytic prefilter
 *      additionally prunes unroll candidates whose certified floor
 *      cannot beat the incumbent, without packing or simulating them.
 *
 * Both pairs must agree bit-identically on total cycles (the bench
 * fails otherwise; the in-pipeline tiered audit has already checked the
 * per-class evidence).
 *
 * The default-path tiered compile runs kTieredRuns times per model and
 * the fastest run counts (for both its wall time and its plan-table
 * pass time), which filters out per-compile jitter; the other three
 * compiles run once.
 *
 * Output: human-readable tables + machine-readable JSON (argv[1],
 * default "BENCH_plan.json") consumed by scripts/check_plan_bench.py,
 * which holds the default-path cold-compile and plan-table geomeans at
 * or below the bench/plan_baseline.json snapshot and checks that search
 * mode derives and prunes plans.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/table.h"
#include "common/timer.h"
#include "dsp/decoded.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "vliw/pack_cache.h"

using namespace gcd2;

namespace {

/** Default-path tiered compiles per model; the fastest one counts. */
constexpr int kTieredRuns = 5;

struct PairResult
{
    double coldMs = 0.0;       ///< tiered cold compile
    double planTableMs = 0.0;  ///< its plan-table pass (the coster)
    double exhaustiveMs = 0.0; ///< cold compile, tiered costing off
    uint64_t candidatePlans = 0;
    uint64_t plansSimulated = 0;
    uint64_t plansDerived = 0;
    uint64_t plansPruned = 0;
    uint64_t plansShared = 0;
    uint64_t totalCycles = 0;
};

struct ModelResult
{
    const char *name = "";
    PairResult adaptive; ///< default options (Adaptive unroll)
    PairResult search;   ///< Exhaustive unroll search
};

void
clearProcessCaches()
{
    vliw::PackCache::global().clear();
    dsp::DecodeCache::global().clear();
}

/** One cold compile; fills the pair's tiered or exhaustive half. */
bool
coldCompile(const graph::Graph &graph, const char *name, bool tiered,
            kernels::UnrollStrategy unroll, PairResult *pair)
{
    clearProcessCaches();
    runtime::CompileOptions options;
    options.cost.tieredCosting = tiered;
    options.cost.unroll = unroll;
    const Timer timer;
    const runtime::CompiledModel model = runtime::compile(graph, options);
    const double ms = timer.seconds() * 1e3;

    if (!tiered) {
        pair->exhaustiveMs = ms;
        if (pair->totalCycles != model.totals.cycles) {
            std::cerr << "FATAL: tiered costing changed " << name
                      << " total cycles (" << pair->totalCycles << " vs "
                      << model.totals.cycles << ")\n";
            return false;
        }
        return true;
    }

    pair->coldMs = ms;
    pair->totalCycles = model.totals.cycles;
    if (const runtime::PassReport *plan = model.report.pass("plan-table")) {
        pair->planTableMs = plan->seconds * 1e3;
        pair->candidatePlans = plan->counter("candidate-plans");
        pair->plansSimulated = plan->counter("plans-simulated");
        pair->plansDerived = plan->counter("plans-derived");
        pair->plansPruned = plan->counter("plans-pruned");
        pair->plansShared = plan->counter("plans-shared");
    }
    return true;
}

/** Default-path tiered compile, fastest of kTieredRuns. */
bool
fastestTieredCompile(const graph::Graph &graph, const char *name,
                     PairResult *pair)
{
    for (int run = 0; run < kTieredRuns; ++run) {
        PairResult r;
        if (!coldCompile(graph, name, true,
                         kernels::UnrollStrategy::Adaptive, &r))
            return false;
        if (run > 0) {
            r.coldMs = std::min(r.coldMs, pair->coldMs);
            r.planTableMs = std::min(r.planTableMs, pair->planTableMs);
        }
        *pair = r;
    }
    return true;
}

/** Geomean over models of one PairResult field. */
double
geomeanOf(const std::vector<ModelResult> &results,
          PairResult ModelResult::*pair, double PairResult::*field)
{
    double logSum = 0.0;
    for (const ModelResult &r : results)
        logSum += std::log(std::max((r.*pair).*field, 1e-9));
    return std::exp(logSum / static_cast<double>(results.size()));
}

double
geomeanSpeedup(const std::vector<ModelResult> &results,
               PairResult ModelResult::*pair)
{
    double logSum = 0.0;
    for (const ModelResult &r : results) {
        const PairResult &p = r.*pair;
        logSum += std::log(
            std::max(p.exhaustiveMs / std::max(p.coldMs, 1e-6), 1e-9));
    }
    return std::exp(logSum / static_cast<double>(results.size()));
}

void
printPair(std::ostream &os, const char *title,
          const std::vector<ModelResult> &results,
          PairResult ModelResult::*pair)
{
    os << title << "\n";
    Table table({"Model", "Cold ms", "Exhaustive ms", "Speedup", "Plans",
                 "Simulated", "Derived", "Pruned", "Shared"});
    for (const ModelResult &r : results) {
        const PairResult &p = r.*pair;
        const double speedup =
            p.exhaustiveMs / std::max(p.coldMs, 1e-6);
        table.addRow({r.name, fmtDouble(p.coldMs, 1),
                      fmtDouble(p.exhaustiveMs, 1), fmtSpeedup(speedup),
                      std::to_string(p.candidatePlans),
                      std::to_string(p.plansSimulated),
                      std::to_string(p.plansDerived),
                      std::to_string(p.plansPruned),
                      std::to_string(p.plansShared)});
    }
    table.print(os);
    os << "geomean cold-compile speedup: "
       << fmtSpeedup(geomeanSpeedup(results, pair)) << "\n\n";
}

void
jsonPair(std::ostream &os, const PairResult &p)
{
    os << "\"cold_ms\": " << p.coldMs << ", "
       << "\"plan_table_ms\": " << p.planTableMs << ", "
       << "\"exhaustive_ms\": " << p.exhaustiveMs << ", "
       << "\"candidate_plans\": " << p.candidatePlans << ", "
       << "\"plans_simulated\": " << p.plansSimulated << ", "
       << "\"plans_derived\": " << p.plansDerived << ", "
       << "\"plans_pruned\": " << p.plansPruned << ", "
       << "\"plans_shared\": " << p.plansShared << ", "
       << "\"total_cycles\": " << p.totalCycles;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath = argc > 1 ? argv[1] : "BENCH_plan.json";

    std::cout << "Cold-compile plan costing: tiered vs exhaustive\n\n";

    std::vector<ModelResult> results;
    for (const models::ModelInfo &info : models::allModels()) {
        const graph::Graph graph = models::buildModel(info.id);

        ModelResult r;
        r.name = info.name;
        if (!fastestTieredCompile(graph, info.name, &r.adaptive) ||
            !coldCompile(graph, info.name, false,
                         kernels::UnrollStrategy::Adaptive, &r.adaptive) ||
            !coldCompile(graph, info.name, true,
                         kernels::UnrollStrategy::Exhaustive, &r.search) ||
            !coldCompile(graph, info.name, false,
                         kernels::UnrollStrategy::Exhaustive, &r.search))
            return 1;
        results.push_back(r);
    }

    printPair(std::cout, "Default options (Adaptive unroll):", results,
              &ModelResult::adaptive);
    printPair(std::cout, "Exhaustive unroll search:", results,
              &ModelResult::search);
    std::cout << "default-path tiered geomeans (fastest of "
              << kTieredRuns << "): cold compile "
              << fmtDouble(geomeanOf(results, &ModelResult::adaptive,
                                     &PairResult::coldMs),
                           2)
              << " ms, plan-table "
              << fmtDouble(geomeanOf(results, &ModelResult::adaptive,
                                     &PairResult::planTableMs),
                           2)
              << " ms\n\n";

    std::ostringstream json;
    json << "{\n  \"bench\": \"plan_costing\",\n"
         << "  \"tiered_runs\": " << kTieredRuns << ",\n"
         << "  \"cold_ms_geomean\": "
         << geomeanOf(results, &ModelResult::adaptive, &PairResult::coldMs)
         << ",\n"
         << "  \"plan_table_ms_geomean\": "
         << geomeanOf(results, &ModelResult::adaptive,
                      &PairResult::planTableMs)
         << ",\n"
         << "  \"geomean_speedup\": "
         << geomeanSpeedup(results, &ModelResult::adaptive) << ",\n"
         << "  \"search_geomean_speedup\": "
         << geomeanSpeedup(results, &ModelResult::search) << ",\n"
         << "  \"models\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const ModelResult &r = results[i];
        json << "    {\"name\": \"" << r.name << "\", ";
        jsonPair(json, r.adaptive);
        json << ", \"search\": {";
        jsonPair(json, r.search);
        json << "}}" << (i + 1 < results.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";

    std::ofstream out(outPath);
    out << json.str();
    out.flush();
    if (!out) {
        std::cerr << "error: failed to write " << outPath << "\n";
        return 1;
    }
    std::cout << "wrote " << outPath << "\n";
    return 0;
}
