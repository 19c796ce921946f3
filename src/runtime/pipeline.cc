#include "runtime/pipeline.h"

#include <cstdlib>
#include <sstream>

#include "analysis/schedule_check.h"
#include "common/logging.h"
#include "common/timer.h"
#include "dsp/decoded.h"
#include "graph/passes.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "kernels/unroll.h"
#include "select/audit.h"
#include "vliw/pack_cache.h"
#include "vliw/packer.h"

namespace gcd2::runtime {

using common::Diag;
using common::DiagSeverity;
using select::CostModel;
using select::ExecutionPlan;
using select::NodeExecStats;
using select::PlanTable;

namespace {

/**
 * Report how much work a pass pushed through the process-wide cache
 * tier: hit/miss/eviction (and pack-time) deltas of the PackCache and
 * DecodeCache between the pass's start and end. Cache hits are requests
 * answered by an earlier pack/decode (this compile or a previous one);
 * misses are fresh runs, whose packing wall-clock is charged as
 * pack-us; evictions count entries the LRU capacity bound displaced
 * while the pass ran. A program miss packs block by block through the
 * PackCache's block tier: pack-block-hits are blocks an earlier pack
 * answered, pack-block-misses the blocks actually packed.
 *
 * Both caches are single-flight, so from a cleared cache that the
 * compile does not overflow each delta is independent of the thread
 * count. The caches are process-wide and LRU-bounded, though: which
 * entries an earlier compile in the same process left resident (and in
 * what recency order), and once a shard fills, the order in which
 * threads reached it, decide what this pass hits, misses and evicts.
 * So the deltas are a function of the compile's inputs only when the
 * caches start cleared and nothing is evicted.
 */
class PackCacheDelta
{
  public:
    PackCacheDelta()
        : start_(vliw::PackCache::global().stats()),
          decodeStart_(dsp::DecodeCache::global().stats())
    {
    }

    void
    report(PassReport &pass) const
    {
        const vliw::PackCache::Stats now =
            vliw::PackCache::global().stats();
        pass.counters.emplace_back("pack-hits", now.hits - start_.hits);
        pass.counters.emplace_back("pack-misses",
                                   now.misses - start_.misses);
        pass.counters.emplace_back("pack-evictions",
                                   now.evictions - start_.evictions);
        pass.counters.emplace_back(
            "pack-us",
            static_cast<uint64_t>(
                (now.packSeconds - start_.packSeconds) * 1e6));
        pass.counters.emplace_back("pack-block-hits",
                                   now.blockHits - start_.blockHits);
        pass.counters.emplace_back("pack-block-misses",
                                   now.blockMisses - start_.blockMisses);
        const dsp::DecodeCache::Stats dec =
            dsp::DecodeCache::global().stats();
        pass.counters.emplace_back("decode-hits",
                                   dec.hits - decodeStart_.hits);
        pass.counters.emplace_back("decode-misses",
                                   dec.misses - decodeStart_.misses);
        pass.counters.emplace_back("decode-evictions",
                                   dec.evictions - decodeStart_.evictions);
    }

  private:
    vliw::PackCache::Stats start_;
    dsp::DecodeCache::Stats decodeStart_;
};

} // namespace

const char *
selectionModeName(SelectionMode mode)
{
    switch (mode) {
      case SelectionMode::Gcd2:
        return "gcd2";
      case SelectionMode::Local:
        return "local";
      case SelectionMode::GlobalOptimal:
        return "global-optimal";
      case SelectionMode::Uniform:
        return "uniform";
      case SelectionMode::Pbqp:
        return "pbqp";
    }
    return "?";
}

uint64_t
PassReport::counter(std::string_view key) const
{
    for (const auto &[name, value] : counters)
        if (name == key)
            return value;
    return 0;
}

const PassReport *
PipelineReport::pass(std::string_view name) const
{
    for (const PassReport &pass : passes)
        if (pass.name == name)
            return &pass;
    return nullptr;
}

size_t
PipelineReport::diagnosticCount(DiagSeverity severity) const
{
    size_t n = 0;
    for (const Diag &diag : diagnostics)
        if (diag.severity == severity)
            ++n;
    return n;
}

std::string
PipelineReport::toString() const
{
    std::ostringstream out;
    out << "compilation pipeline (" << threadsUsed
        << (threadsUsed == 1 ? " thread, " : " threads, ")
        << static_cast<int64_t>(totalSeconds * 1e3) << " ms total)\n";
    if (!servedSelection.empty())
        out << "  selection served by '" << servedSelection << "' (rung "
            << selectionRung << ")\n";
    for (const PassReport &pass : passes) {
        out << "  " << pass.name << ": "
            << static_cast<int64_t>(pass.seconds * 1e6) << " us";
        for (const auto &[name, value] : pass.counters)
            out << ", " << name << "=" << value;
        out << "\n";
    }
    if (!diagnostics.empty()) {
        out << "  diagnostics (" << diagnostics.size() << "):\n";
        for (const Diag &diag : diagnostics)
            out << "    " << diag.toString() << "\n";
    }
    return out.str();
}

CompilationSession::CompilationSession(const graph::Graph &graph,
                                       const CompileOptions &options)
    : graph_(graph), options_(options), pool_(options.numThreads)
{
    report_.threadsUsed = pool_.size();
    // CI escalation hook: GCD2_DEEP_AUDIT=1 upgrades every default
    // (Cheap) audit to Deep without touching call sites -- the
    // sanitizer jobs use it to run exact re-solves and extra schedule
    // audits across the whole test suite. An explicit Off/Deep choice
    // is respected.
    if (options_.audit == AuditMode::Cheap) {
        const char *deep = std::getenv("GCD2_DEEP_AUDIT");
        if (deep != nullptr && deep[0] != '\0' && deep[0] != '0')
            options_.audit = AuditMode::Deep;
    }
}

void
CompilationSession::runPass(const char *name,
                            const std::function<void(PassReport &)> &body)
{
    PassReport pass;
    pass.name = name;
    const Timer timer;
    body(pass);
    pass.seconds = timer.seconds();
    report_.passes.push_back(std::move(pass));
}

void
CompilationSession::passGraphOptimize(PassReport &pass)
{
    graph::OptimizeOptions optimizeOptions;
    optimizeOptions.eliminateLayoutTransforms =
        options_.eliminateLayoutTransforms;
    optimizeOptions.extendedFusion = options_.enableExtendedFusion;
    const graph::PassStats stats =
        graph::optimize(graph_, optimizeOptions);
    transformCyclesSaved_ = stats.transformCyclesSaved;
    pass.counters.emplace_back(
        "folded", static_cast<uint64_t>(stats.foldedNodes));
    pass.counters.emplace_back(
        "fused", static_cast<uint64_t>(stats.fusedActivations));
    pass.counters.emplace_back(
        "removed", static_cast<uint64_t>(stats.removedNodes));
    pass.counters.emplace_back(
        "transform-eliminated",
        static_cast<uint64_t>(stats.cancelledTransforms +
                              stats.fusedTransforms));
    pass.counters.emplace_back(
        "transform-cancelled",
        static_cast<uint64_t>(stats.cancelledTransforms));
    pass.counters.emplace_back(
        "transform-sunk", static_cast<uint64_t>(stats.sunkTransforms));
    pass.counters.emplace_back(
        "transform-fused", static_cast<uint64_t>(stats.fusedTransforms));
    pass.counters.emplace_back(
        "transform-cycles-saved",
        static_cast<uint64_t>(stats.transformCyclesSaved));
    if (options_.enableExtendedFusion) {
        pass.counters.emplace_back(
            "lut-fused", static_cast<uint64_t>(stats.fusedLuts));
        pass.counters.emplace_back(
            "residual-fused",
            static_cast<uint64_t>(stats.fusedResiduals));
    }
    pass.counters.emplace_back(
        "live-operators", static_cast<uint64_t>(graph_.operatorCount()));
}

void
CompilationSession::passPlanTable(PassReport &pass)
{
    model_.emplace(options_.cost, options_.costCache);
    const uint64_t hits0 = model_->cache().hits();
    const uint64_t misses0 = model_->cache().misses();
    const uint64_t evictions0 = model_->cache().evictions();
    const PackCacheDelta packDelta;
    table_.emplace(graph_, *model_, &pool_);

    uint64_t candidatePlans = 0;
    for (const graph::Node &node : graph_.nodes())
        if (!node.dead)
            candidatePlans += table_->plans(node.id).size();
    pass.counters.emplace_back("candidate-plans", candidatePlans);
    pass.counters.emplace_back(
        "edges", static_cast<uint64_t>(table_->edges().size()));
    pass.counters.emplace_back(
        "free-operators",
        static_cast<uint64_t>(table_->freeNodes().size()));
    // Misses = canonical kernels actually generated, packed, and
    // simulated during this pass; hits were answered from the memo.
    pass.counters.emplace_back("kernel-sims",
                               model_->cache().misses() - misses0);
    pass.counters.emplace_back("cache-hits",
                               model_->cache().hits() - hits0);
    pass.counters.emplace_back("cache-evictions",
                               model_->cache().evictions() - evictions0);

    // Tier telemetry (DESIGN.md section 16): how much candidate costing
    // the tiered coster answered without a full pack + simulation, plus
    // the shape-class sharing the table layered on top.
    const select::PlanTable::Stats &shared = table_->stats();
    pass.counters.emplace_back("shape-classes", shared.shapeClasses);
    pass.counters.emplace_back("shared-nodes", shared.sharedNodes);
    pass.counters.emplace_back("plans-shared", shared.sharedPlans);
    if (const select::TieredCoster *tiered = model_->tieredCoster()) {
        const select::TieredCounters tc = tiered->counters();
        pass.counters.emplace_back("plans-simulated", tc.plansSimulated);
        pass.counters.emplace_back("plans-derived", tc.plansDerived);
        pass.counters.emplace_back("plans-pruned", tc.plansPruned);
        pass.counters.emplace_back("anchor-sims", tc.anchorSims);
        pass.counters.emplace_back("transplanted-packs",
                                   tc.transplantedPacks);
        pass.counters.emplace_back("tier-classes-certified",
                                   tc.certifiedClasses);
        pass.counters.emplace_back("tier-classes-uncertified",
                                   tc.uncertifiedClasses);
        pass.counters.emplace_back("tier-structural-fallbacks",
                                   tc.structuralFallbacks);
        pass.counters.emplace_back(
            "tier-certify-us",
            static_cast<uint64_t>(tiered->certifySeconds() * 1e6));
        pass.counters.emplace_back(
            "tier-analytic-us",
            static_cast<uint64_t>(tiered->analyticSeconds() * 1e6));
    } else {
        // Exhaustive path: every cache miss was a real simulation.
        pass.counters.emplace_back("plans-simulated",
                                   model_->cache().misses() - misses0);
        pass.counters.emplace_back("plans-derived", uint64_t{0});
        pass.counters.emplace_back("plans-pruned", uint64_t{0});
    }
    packDelta.report(pass);
}

void
CompilationSession::passSelection(PassReport &pass, CompiledModel &result)
{
    const auto solveGcd2 = [&] {
        return select::selectGcd2Partitioned(*table_, options_.maxPartition,
                                             &pool_);
    };
    const auto solvePbqp = [&] {
        return select::selectPbqp(*table_, &pbqpStats_);
    };
    const auto solveRequested = [&]() -> select::SelectorResult {
        switch (options_.selection) {
          case SelectionMode::Gcd2:
            return solveGcd2();
          case SelectionMode::Local:
            return select::selectLocal(*table_);
          case SelectionMode::GlobalOptimal:
            return select::selectGlobalOptimal(*table_);
          case SelectionMode::Pbqp:
            return solvePbqp();
          case SelectionMode::Uniform: {
            select::SelectorResult uniform = select::selectLocal(*table_);
            for (const graph::Node &node : graph_.nodes())
                if (!node.dead)
                    uniform.selection
                        .planIndex[static_cast<size_t>(node.id)] =
                        select::uniformPlanIndex(node.op,
                                                 options_.uniformScheme);
            uniform.selection.totalCost =
                select::aggCost(*table_, uniform.selection);
            return uniform;
          }
        }
        GCD2_PANIC("unknown selection mode");
    };

    // Graceful-degradation ladder: the requested strategy, then ever
    // cheaper solvers. A rung that throws FatalError (user-class
    // failure: free-node cap, bad partition bound, injected fault) is
    // recorded and the next rung serves instead; selectLocal at the
    // bottom cannot fail, so a compile only aborts if *every* rung is
    // broken. Internal-bug panics (PanicError) still propagate.
    struct Rung
    {
        const char *name;
        std::function<select::SelectorResult()> solve;
    };
    std::vector<Rung> ladder;
    ladder.push_back({selectionModeName(options_.selection),
                      solveRequested});
    const auto addFallback = [&](const char *name,
                                 std::function<select::SelectorResult()>
                                     solve) {
        for (const Rung &rung : ladder)
            if (std::string_view(rung.name) == name)
                return;
        ladder.push_back({name, std::move(solve)});
    };
    addFallback("gcd2", solveGcd2);
    // PBQP sits between the partitioned branch-and-bound and the local
    // floor: polynomial, with the full pairwise cost structure (R0/R1/R2
    // exact, RN heuristic on dense remainders).
    addFallback("pbqp", solvePbqp);
    addFallback("local", [&] { return select::selectLocal(*table_); });

    for (size_t i = 0; i < ladder.size(); ++i) {
        try {
            select::SelectorResult r = ladder[i].solve();
            if (i == 0 && options_.testSelectionFault)
                options_.testSelectionFault(r);
            result.selector = std::move(r);
            report_.servedSelection = ladder[i].name;
            report_.selectionRung = static_cast<int>(i);
            break;
        } catch (const FatalError &err) {
            diag_.add(DiagSeverity::Warning, "selection", -1,
                      std::string("rung '") + ladder[i].name +
                          "' failed (" + err.what() + "); falling back");
            if (i + 1 == ladder.size())
                throw; // ladder exhausted: nothing left to serve
        }
    }
    if (report_.selectionRung > 0)
        diag_.add(DiagSeverity::Info, "selection", -1,
                  "served by fallback rung '" + report_.servedSelection +
                      "'");

    // A requested PBQP solve that needed the RN heuristic proves
    // nothing, so gcd2 re-solves the same table and the cheaper
    // selection serves (ties keep PBQP): the served cost never exceeds
    // what gcd2 alone would have served. servedSelection names the
    // solver actually served, which the deep audit keys on.
    const bool pbqpServed = report_.servedSelection == "pbqp";
    if (pbqpServed && report_.selectionRung == 0 &&
        !pbqpStats_.provablyOptimal()) {
        try {
            select::SelectorResult gcd2 = solveGcd2();
            const uint64_t pbqpCost = result.selector.selection.totalCost;
            if (gcd2.selection.totalCost < pbqpCost) {
                diag_.add(DiagSeverity::Info, "selection", -1,
                          "heuristic pbqp (rn=" +
                              std::to_string(pbqpStats_.rn) + ") cost " +
                              std::to_string(pbqpCost) +
                              " beaten by gcd2 cost " +
                              std::to_string(gcd2.selection.totalCost) +
                              "; serving gcd2");
                result.selector = std::move(gcd2);
                report_.servedSelection = "gcd2";
            }
        } catch (const FatalError &err) {
            diag_.add(DiagSeverity::Warning, "selection", -1,
                      std::string("gcd2 cross-check of heuristic pbqp "
                                  "failed (") +
                          err.what() + "); serving pbqp");
        }
    }

    result.selection = result.selector.selection;
    if (pbqpServed) { // including a solve gcd2 then beat
        pass.counters.emplace_back("pbqp-r0", pbqpStats_.r0);
        pass.counters.emplace_back("pbqp-r1", pbqpStats_.r1);
        pass.counters.emplace_back("pbqp-r2", pbqpStats_.r2);
        pass.counters.emplace_back("pbqp-rn", pbqpStats_.rn);
    }
    pass.counters.emplace_back("evaluations",
                               result.selector.evaluations);
    pass.counters.emplace_back("total-cost",
                               result.selection.totalCost);
    pass.counters.emplace_back(
        "fallback-rung", static_cast<uint64_t>(report_.selectionRung));
}

void
CompilationSession::passKernelGeneration(PassReport &pass,
                                         CompiledModel &result)
{
    // For every live node: statistics of the *chosen* kernel, and the
    // schedule it serves -- the packed program of the first canonical
    // kernel of its plan's recipe, which plan costing already simulated
    // (select/plan.h), so the PackCache answers it. Each node is
    // independent and has its own slots, so the pool splits them;
    // aggregation stays in the cycle-accounting pass (in node order) to
    // keep totals thread-count-invariant by construction.
    const uint64_t misses0 = model_->cache().misses();
    const PackCacheDelta packDelta;
    nodeStats_.assign(graph_.size(), NodeExecStats{});
    const std::vector<graph::Node> &nodes = graph_.nodes();
    std::vector<std::shared_ptr<const dsp::PackedProgram>> retained(
        nodes.size());
    pool_.parallelFor(
        static_cast<int64_t>(nodes.size()), [&](int64_t i) {
            const graph::Node &node = nodes[static_cast<size_t>(i)];
            if (node.dead)
                return;
            const int planIdx =
                result.selection.planIndex[static_cast<size_t>(node.id)];
            const ExecutionPlan &plan =
                table_->plans(node.id)[static_cast<size_t>(planIdx)];
            nodeStats_[static_cast<size_t>(i)] =
                model_->planStats(graph_, node.id, plan);
            retained[static_cast<size_t>(i)] =
                model_->canonicalSchedule(graph_, node.id, plan);
        });

    // Fault injection corrupts the served artifact, which the auditors
    // must still catch.
    for (const graph::Node &node : nodes) {
        std::shared_ptr<const dsp::PackedProgram> &program =
            retained[static_cast<size_t>(node.id)];
        if (program == nullptr)
            continue; // dead, or analytic: no kernel program served
        if (options_.testScheduleFault && result.schedules.empty()) {
            // Corrupt a private copy, never the cached program.
            auto corrupt = std::make_shared<dsp::PackedProgram>(*program);
            options_.testScheduleFault(*corrupt);
            program = std::move(corrupt);
        }
        result.schedules.push_back({node.id, std::move(program)});
    }

    uint64_t kernels = 0;
    for (const graph::Node &node : nodes)
        if (!node.dead)
            ++kernels;
    pass.counters.emplace_back("kernels", kernels);
    pass.counters.emplace_back("kernel-sims",
                               model_->cache().misses() - misses0);
    pass.counters.emplace_back(
        "schedules-retained",
        static_cast<uint64_t>(result.schedules.size()));
    packDelta.report(pass);
}

void
CompilationSession::passCycleAccounting(PassReport &pass,
                                        CompiledModel &result)
{
    result.totalMacs = graph_.totalMacs();
    for (const graph::Node &node : graph_.nodes()) {
        if (node.dead || node.op == graph::OpType::Output)
            continue;
        // Each tensor counts once as an output and once per consumer.
        result.demandBytes += node.shape.elements();
        for (graph::NodeId in : node.inputs)
            if (!graph_.node(in).dead)
                result.demandBytes += graph_.node(in).shape.elements();
    }

    // Aggregate per-node execution statistics and per-edge transforms.
    result.nodeCycles.assign(graph_.size(), 0);
    for (const graph::Node &node : graph_.nodes()) {
        if (node.dead)
            continue;
        const NodeExecStats &stats =
            nodeStats_[static_cast<size_t>(node.id)];
        result.nodeCycles[static_cast<size_t>(node.id)] = stats.cycles;
        result.totals += stats;
        if (node.op != graph::OpType::Input &&
            node.op != graph::OpType::Constant &&
            node.op != graph::OpType::Output) {
            ++result.liveOperators;
            result.totals.cycles += options_.perOpOverheadCycles;
        }
        // Library kernels (Hexagon NN) pack the activation into the
        // kernel layout on entry and unpack the result on exit.
        if (options_.libraryStyleBoundaries &&
            graph::isMatMulFamily(node.op)) {
            const int planIdx =
                result.selection.planIndex[static_cast<size_t>(node.id)];
            const ExecutionPlan &plan =
                table_->plans(node.id)[static_cast<size_t>(planIdx)];
            const graph::Node &producer = graph_.node(node.inputs[0]);
            const NodeExecStats inPack = model_->transformStats(
                producer.shape, tensor::Layout::RowMajor, plan.inLayout);
            const NodeExecStats outUnpack = model_->transformStats(
                node.shape, plan.outLayout, tensor::Layout::RowMajor);
            result.totals += inPack;
            result.totals += outUnpack;
            result.transformOnly += inPack;
            result.transformOnly += outUnpack;
        }
    }
    // With library-style boundaries every inter-operator tensor is
    // row-major, so no cross-edge transformation remains to charge.
    if (!options_.libraryStyleBoundaries) {
        for (const auto &[src, dst] : table_->edges()) {
            const graph::Node &producer = graph_.node(src);
            if (producer.op == graph::OpType::Constant)
                continue;
            const ExecutionPlan &from = table_->plans(src)[static_cast<
                size_t>(
                result.selection.planIndex[static_cast<size_t>(src)])];
            const ExecutionPlan &to = table_->plans(dst)[static_cast<
                size_t>(
                result.selection.planIndex[static_cast<size_t>(dst)])];
            const NodeExecStats tc = model_->transformStats(
                producer.shape, from.outLayout, to.inLayout);
            result.totals += tc;
            result.transformOnly += tc;
        }
    }
    pass.counters.emplace_back("total-cycles", result.totals.cycles);
    pass.counters.emplace_back("transform-cycles",
                               result.transformOnly.cycles);
    // What the transform edges would have cost had graph-optimize not
    // eliminated standing transforms: the paid cycles plus the analytic
    // estimate of the cycles the elimination pass removed.
    pass.counters.emplace_back(
        "transform-cycles-pre",
        result.transformOnly.cycles +
            static_cast<uint64_t>(transformCyclesSaved_));
    pass.counters.emplace_back(
        "live-operators", static_cast<uint64_t>(result.liveOperators));
}

void
CompilationSession::passAudit(PassReport &pass, CompiledModel &result)
{
    if (options_.audit == AuditMode::Off) {
        pass.counters.emplace_back("skipped", 1);
        return;
    }
    const bool deep = options_.audit == AuditMode::Deep;
    const std::string &served = report_.servedSelection;
    // Counts every pack of the pass, the deep tiered re-cost's included.
    const PackCacheDelta packDelta;

    // Selection audit. The local-baseline floor is only sound for
    // solvers that dominate selectLocal by construction; the deep exact
    // re-solve additionally requires the served rung to claim global
    // optimality on this graph (gcd2 is exact when no component was
    // chunked, i.e. all free nodes fit one partition; pbqp when no RN
    // heuristic fired).
    select::SelectionAuditOptions auditOpts;
    auditOpts.checkNotWorseThanLocal =
        served == "gcd2" || served == "global-optimal" ||
        served == "local" || served == "pbqp";
    auditOpts.deepMaxFreeNodes = 12;
    auditOpts.deep =
        deep && (served == "global-optimal" ||
                 (served == "gcd2" &&
                  table_->freeNodes().size() <=
                      static_cast<size_t>(options_.maxPartition)) ||
                 (served == "pbqp" && pbqpStats_.provablyOptimal()));
    std::vector<Diag> selectionFindings =
        select::auditSelection(*table_, result.selection, auditOpts);
    const size_t selectionFailures = selectionFindings.size();
    for (Diag &diag : selectionFindings)
        diag_.add(std::move(diag));

    // Tiered-costing audit. Always-on cheap tier: the coster re-derives
    // its certified affine fits from the stored anchor simulations and
    // re-checks the analytic bounds bracket them. Deep tier: re-cost the
    // whole plan table through a scratch exhaustive model and prove
    // every plan's cost exact, so the served selection's Eq.-1 total is
    // bit-identical to exhaustive costing (select::auditTieredCosts).
    size_t tieredFailures = 0;
    uint64_t tieredClassesChecked = 0;
    bool tieredDeep = false;
    if (model_->tieredCoster() != nullptr) {
        size_t classesChecked = 0;
        for (const std::string &violation :
             model_->tieredCoster()->audit(&classesChecked)) {
            diag_.add(DiagSeverity::Error, "tiered-audit", -1, violation);
            ++tieredFailures;
        }
        tieredClassesChecked = classesChecked;
        if (deep) {
            tieredDeep = true;
            std::vector<Diag> tieredFindings =
                select::auditTieredCosts(*table_, options_.cost);
            tieredFailures += tieredFindings.size();
            for (Diag &diag : tieredFindings)
                diag_.add(std::move(diag));
        }
    }

    // Schedule audit: check packet legality of the schedules the compile
    // actually serves -- the packed programs kernel generation retained
    // from the cost model's canonical kernels (see CompiledModel::
    // schedules). No re-packing happens here: auditing a fresh pack of
    // the same source program would vacuously re-verify the packer and
    // miss any corruption of the served artifact. The served-schedule
    // gate checks each distinct program once, on the pool. Cheap runs
    // the schedule check table alone; Deep adds every lint analyzer.
    // Lint Warnings never block a compile -- only Errors count as
    // failures alongside the schedule findings.
    //
    // Packs inside the schedule audit, counted apart from the deep
    // re-cost's: the audit reads the retained schedules, so this stays 0.
    const uint64_t scheduleMisses0 = vliw::PackCache::global().stats().misses;
    std::vector<const dsp::PackedProgram *> programs;
    for (const CompiledModel::ServedSchedule &sched : result.schedules)
        programs.push_back(sched.program.get());
    analysis::ScheduleCheck check = analysis::checkSchedules(
        programs,
        deep ? analysis::LintDepth::Full : analysis::LintDepth::Cheap,
        &pool_);
    for (Diag &diag : check.diags)
        diag_.add(std::move(diag));
    const analysis::LintCounts &lint = check.lint;
    const uint64_t schedulePackMisses =
        vliw::PackCache::global().stats().misses - scheduleMisses0;

    if (selectionFailures + check.errors() + tieredFailures == 0)
        diag_.add(DiagSeverity::Info, "audit", -1,
                  std::string(deep ? "deep" : "cheap") +
                      " audit passed (" + std::to_string(check.programs) +
                      " schedules checked)");
    pass.counters.emplace_back("selection-findings", selectionFailures);
    pass.counters.emplace_back("schedule-findings", check.scheduleFindings);
    pass.counters.emplace_back("tiered-findings", tieredFailures);
    pass.counters.emplace_back("tier-audit-classes", tieredClassesChecked);
    pass.counters.emplace_back("tier-deep-audited", tieredDeep ? 1 : 0);
    pass.counters.emplace_back("schedules-audited", check.programs);
    pass.counters.emplace_back("schedule-pack-misses", schedulePackMisses);
    pass.counters.emplace_back("lint-use-def-findings", lint.useBeforeDef);
    pass.counters.emplace_back("lint-dead-store-findings", lint.deadStore);
    pass.counters.emplace_back("lint-noalias-findings", lint.noalias);
    pass.counters.emplace_back("lint-redundant-load-findings",
                               lint.redundantLoad);
    pass.counters.emplace_back("lint-bounds-findings", lint.bounds);
    pass.counters.emplace_back("lint-errors", lint.errors);
    pass.counters.emplace_back("deep", deep ? 1 : 0);
    packDelta.report(pass);
}

CompiledModel
CompilationSession::run()
{
    const Timer total;
    CompiledModel result;
    runPass("graph-optimize",
            [&](PassReport &pass) { passGraphOptimize(pass); });
    runPass("plan-table", [&](PassReport &pass) { passPlanTable(pass); });
    runPass("selection",
            [&](PassReport &pass) { passSelection(pass, result); });
    runPass("kernel-generation", [&](PassReport &pass) {
        passKernelGeneration(pass, result);
    });
    runPass("cycle-accounting", [&](PassReport &pass) {
        passCycleAccounting(pass, result);
    });
    runPass("audit",
            [&](PassReport &pass) { passAudit(pass, result); });
    report_.totalSeconds = total.seconds();
    report_.diagnostics = diag_.snapshot();
    result.report = report_;
    return result;
}

} // namespace gcd2::runtime
