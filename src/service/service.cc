#include "service/service.h"

#include <algorithm>
#include <sstream>

namespace gcd2::service {

namespace {

using common::Diag;
using common::DiagSeverity;
using runtime::CompiledModel;

/**
 * Compiled-model LRU capacity (whole models, so kept small). One shard:
 * every lookup already runs under the service mutex, so shards would add
 * no concurrency, only evict a hot key once its shard fills.
 */
constexpr size_t kModelCacheEntries = 32;

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t index = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[index];
}

} // namespace

CompileService::CompileService(ServiceOptions options)
    : options_(std::move(options)),
      costCache_(options_.compile.costCache
                     ? options_.compile.costCache
                     : std::make_shared<select::CostCache>()),
      modelCache_(kModelCacheEntries, /*shardCount=*/1),
      pool_(options_.numWorkers)
{
    if (!options_.artifactDir.empty()) {
        artifacts_ = std::make_unique<ArtifactStore>(
            options_.artifactDir, options_.artifactMaxBytes);
        verifyPool_ = std::make_unique<ThreadPool>(
            std::min(8, ThreadPool::hardwareThreads()));
    }
}

CompileService::~CompileService()
{
    // Every in-flight promise is owned by a queued task; finish them so
    // no waiter is left hanging on a destroyed service.
    pool_.wait();
}

Ticket
CompileService::submit(const graph::Graph &graph,
                       const std::string &tenant,
                       const runtime::CompileOptions *overrides)
{
    runtime::CompileOptions compileOptions =
        overrides != nullptr ? *overrides : options_.compile;
    compileOptions.costCache = costCache_;
    compileOptions.numThreads = options_.compileThreads;

    Ticket ticket;
    ticket.key = fingerprintRequest(graph, compileOptions);

    std::shared_ptr<Inflight> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TenantCounters &counters = tenants_[tenant];
        ++counters.submits;
        ++totalSubmits_;

        // Tier 1: the in-memory compiled-model LRU.
        if (auto hit = modelCache_.lookup(ticket.key)) {
            ++counters.modelCacheHits;
            std::promise<std::shared_ptr<const CompiledModel>> ready;
            ready.set_value(*std::move(hit));
            ticket.accepted = true;
            ticket.path = Ticket::Path::ModelCacheHit;
            ticket.result = ready.get_future().share();
            return ticket;
        }

        // Tier 2: coalesce onto an identical in-flight compile.
        if (const auto it = inflight_.find(ticket.key);
            it != inflight_.end()) {
            ++counters.coalescedHits;
            ticket.accepted = true;
            ticket.path = Ticket::Path::Coalesced;
            ticket.result = it->second->future;
            return ticket;
        }

        // Admission control: only requests that would *start* a compile
        // count against the depth bound -- coalesced followers and cache
        // hits are free.
        if (inflight_.size() >= options_.maxQueueDepth) {
            ++counters.rejected;
            ticket.rejection.severity = DiagSeverity::Warning;
            ticket.rejection.pass = "service";
            ticket.rejection.message =
                "admission control: " +
                std::to_string(inflight_.size()) +
                " compiles in flight (max " +
                std::to_string(options_.maxQueueDepth) +
                "); resubmit later";
            return ticket;
        }

        job = std::make_shared<Inflight>();
        job->future = job->promise.get_future().share();
        inflight_.emplace(ticket.key, job);
    }

    ticket.accepted = true;
    ticket.path = Ticket::Path::Scheduled;
    ticket.result = job->future;

    // The task owns copies of everything it needs; the caller's graph
    // reference is dead the moment submit() returns.
    pool_.submit([this, key = ticket.key, graph, compileOptions,
                  tenant]() mutable {
        serve(key, std::move(graph), compileOptions, tenant);
    });
    return ticket;
}

void
CompileService::serve(ModelKey key, graph::Graph graph,
                      const runtime::CompileOptions &options,
                      std::string tenant)
{
    std::shared_ptr<Inflight> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job = inflight_.at(key);
    }

    std::shared_ptr<const CompiledModel> model;
    std::exception_ptr failure;
    try {
        // Warm start: a verified on-disk artifact skips the compile.
        std::vector<Diag> loadDiags;
        bool artifactHit = false;
        if (artifacts_ != nullptr) {
            if (auto loaded = artifacts_->load(key, graph, &loadDiags,
                                               verifyPool_.get())) {
                model = std::move(loaded);
                artifactHit = true;
            }
        }

        if (!artifactHit) {
            CompiledModel compiled = runtime::compile(graph, options);

            // An artifact the integrity gate rejected is explained in
            // the fresh compile's diagnostics, then overwritten below.
            for (Diag &diag : loadDiags)
                compiled.report.diagnostics.push_back(std::move(diag));

            if (artifacts_ != nullptr)
                artifacts_->save(key, compiled);

            model = std::make_shared<const CompiledModel>(
                std::move(compiled));
        }

        modelCache_.insert(key, model);

        std::lock_guard<std::mutex> lock(mutex_);
        TenantCounters &counters = tenants_[tenant];
        if (artifactHit) {
            ++counters.artifactHits;
        } else {
            ++counters.compiles;
            ++totalCompiles_;
            counters.compileMs.push_back(
                model->report.totalSeconds * 1e3);
        }
    } catch (...) {
        failure = std::current_exception();
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(key);
    }
    // Fulfill after the key is retired: a waiter that resubmits on
    // failure must start a fresh compile, not coalesce onto this one.
    if (failure != nullptr)
        job->promise.set_exception(failure);
    else
        job->promise.set_value(std::move(model));
}

void
CompileService::drain()
{
    pool_.wait();
}

ServiceReport
CompileService::report() const
{
    ServiceReport report;
    report.modelCache = modelCache_.stats();
    report.modelCacheSize = modelCache_.size();
    report.modelCacheCapacity = modelCache_.capacity();
    report.costCache = costCache_->stats();
    if (artifacts_ != nullptr)
        report.artifacts = artifacts_->stats();

    std::lock_guard<std::mutex> lock(mutex_);
    report.totalSubmits = totalSubmits_;
    report.totalCompiles = totalCompiles_;
    report.inflight = inflight_.size();
    for (const auto &[tenant, counters] : tenants_) {
        TenantStats stats;
        stats.tenant = tenant;
        stats.submits = counters.submits;
        stats.rejected = counters.rejected;
        stats.modelCacheHits = counters.modelCacheHits;
        stats.coalescedHits = counters.coalescedHits;
        stats.compiles = counters.compiles;
        stats.artifactHits = counters.artifactHits;
        std::vector<double> sorted = counters.compileMs;
        std::sort(sorted.begin(), sorted.end());
        stats.compileMsP50 = percentile(sorted, 0.50);
        stats.compileMsP95 = percentile(sorted, 0.95);
        stats.compileMsMax = sorted.empty() ? 0.0 : sorted.back();
        report.tenants.push_back(std::move(stats));
    }
    return report;
}

std::string
ServiceReport::toString() const
{
    std::ostringstream out;
    out << "compile service: " << totalSubmits << " submits, "
        << totalCompiles << " compiles, " << inflight << " in flight\n";
    out << "  model cache: " << modelCacheSize << "/"
        << modelCacheCapacity << " entries, " << modelCache.hits
        << " hits / " << modelCache.misses << " misses / "
        << modelCache.evictions << " evictions\n";
    out << "  cost cache: " << costCache.hits << " hits / "
        << costCache.misses << " misses / " << costCache.evictions
        << " evictions\n";
    out << "  artifacts: " << artifacts.saves << " saved, "
        << artifacts.loadHits << " served, " << artifacts.loadRejects
        << " rejected, " << artifacts.loadMisses << " misses, "
        << artifacts.evictions << " evicted";
    if (artifacts.evictedBytes > 0)
        out << " (" << artifacts.evictedBytes << " bytes)";
    out << "\n";
    for (const TenantStats &t : tenants) {
        out << "  tenant '" << t.tenant << "': " << t.submits
            << " submits, " << t.compiles << " compiles, "
            << t.coalescedHits << " coalesced, " << t.modelCacheHits
            << " cache hits, " << t.artifactHits << " artifact hits, "
            << t.rejected << " rejected";
        if (t.compiles > 0)
            out << "; compile ms p50/p95/max " << t.compileMsP50 << "/"
                << t.compileMsP95 << "/" << t.compileMsMax;
        out << "\n";
    }
    return out.str();
}

} // namespace gcd2::service
