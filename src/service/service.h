/**
 * @file
 * Compile service: a coalescing worker pool over runtime::compile with a
 * managed cache tier (DESIGN.md section 14).
 *
 * Request path, in order:
 *
 *  1. Fingerprint the (graph, options) request (service/fingerprint.h).
 *  2. Compiled-model LRU: an identical request already compiled this
 *     process is served immediately from memory.
 *  3. Coalescing: a request identical to one currently *in flight*
 *     attaches to that compile's future instead of compiling again --
 *     N concurrent identical submissions cost exactly one compile and
 *     observe the same CompiledModel object (bit-identity for free).
 *  4. Admission control: a request that would start a new compile while
 *     maxQueueDepth compiles are already in flight is rejected up front
 *     with a structured Diag (pass "service") -- predictable backpressure
 *     instead of an unbounded queue.
 *  5. A pool worker serves the compile: artifact-store warm start when
 *     the on-disk store has a verified artifact for the key (gated by
 *     re-audit + re-lint, see service/artifact_store.h), clean compile
 *     otherwise -- then writes the artifact back and populates the
 *     model LRU. The compile runs exactly the fingerprinted options, so
 *     a cached or saved model is always the one its key names.
 *
 * Every public method is thread-safe; submit() never blocks on compile
 * work (only on the admission bookkeeping mutex).
 */
#ifndef GCD2_SERVICE_SERVICE_H
#define GCD2_SERVICE_SERVICE_H

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/thread_pool.h"
#include "runtime/compiler.h"
#include "service/artifact_store.h"
#include "service/fingerprint.h"

namespace gcd2::service {

/** Service-wide configuration (per-request knobs ride in `compile`). */
struct ServiceOptions
{
    /** Base compile options every request starts from. The service owns
     *  costCache (a shared cross-compile cache is installed). */
    runtime::CompileOptions compile{};
    /** Pool workers serving compiles; <= 0 picks hardware concurrency. */
    int numWorkers = 0;
    /** Threads *inside* each compile. Workers give throughput across
     *  requests; per-compile parallelism is for near-idle services. */
    int compileThreads = 1;
    /** In-flight compile bound; requests beyond it are rejected. */
    size_t maxQueueDepth = 64;
    /** Artifact directory; empty disables the on-disk store. */
    std::string artifactDir;
    /** Artifact-store size bound in bytes; 0 = unbounded. When set, the
     *  store garbage-collects after every save, evicting least-recently
     *  -used artifacts (see ArtifactStore::gc). */
    uint64_t artifactMaxBytes = 0;
};

/** Outcome of one submit() call. */
struct Ticket
{
    /** False = rejected by admission control; `rejection` says why and
     *  `result` is invalid. */
    bool accepted = false;
    common::Diag rejection;
    ModelKey key;
    /** How submit() resolved the request (telemetry; the model future
     *  behaves identically in all accepted cases). */
    enum class Path : uint8_t
    {
        Rejected,
        ModelCacheHit, ///< served from the in-memory LRU, already ready
        Coalesced,     ///< attached to an identical in-flight compile
        Scheduled,     ///< this request started the compile
    } path = Path::Rejected;
    /** The compiled model (shared -- coalesced requests see the same
     *  object). get() rethrows the compile's FatalError, if any. */
    std::shared_future<std::shared_ptr<const runtime::CompiledModel>>
        result;
};

/** Per-tenant service counters. */
struct TenantStats
{
    std::string tenant;
    uint64_t submits = 0;
    uint64_t rejected = 0;
    uint64_t modelCacheHits = 0;
    uint64_t coalescedHits = 0;
    uint64_t compiles = 0;      ///< clean compiles run on behalf of tenant
    uint64_t artifactHits = 0;  ///< served from the verified disk store
    double compileMsP50 = 0.0;
    double compileMsP95 = 0.0;
    double compileMsMax = 0.0;
};

/** Snapshot of service state and the whole managed cache tier. */
struct ServiceReport
{
    std::vector<TenantStats> tenants; ///< sorted by tenant name
    uint64_t totalSubmits = 0;
    uint64_t totalCompiles = 0;
    uint64_t inflight = 0;
    common::CacheStats modelCache; ///< in-memory compiled-model LRU
    size_t modelCacheSize = 0;
    size_t modelCacheCapacity = 0;
    ArtifactStore::Stats artifacts{}; ///< zero when the store is off
    common::CacheStats costCache; ///< service-shared kernel-cost cache

    std::string toString() const;
};

class CompileService
{
  public:
    explicit CompileService(ServiceOptions options = {});
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Submit one compile request. Never blocks on compile work; the
     * returned ticket's future resolves when a worker (or a cache) has
     * the model. @p overrides, when non-null, replaces the service's
     * base CompileOptions for this request (the service still installs
     * its shared cost cache and compile thread count on top).
     */
    Ticket submit(const graph::Graph &graph, const std::string &tenant,
                  const runtime::CompileOptions *overrides = nullptr);

    /** Block until every accepted request has resolved. */
    void drain();

    /** Point-in-time counters (callable while compiles run). */
    ServiceReport report() const;

    const ServiceOptions &options() const { return options_; }

  private:
    struct Inflight
    {
        std::promise<std::shared_ptr<const runtime::CompiledModel>>
            promise;
        std::shared_future<std::shared_ptr<const runtime::CompiledModel>>
            future;
    };

    struct TenantCounters
    {
        uint64_t submits = 0;
        uint64_t rejected = 0;
        uint64_t modelCacheHits = 0;
        uint64_t coalescedHits = 0;
        uint64_t compiles = 0;
        uint64_t artifactHits = 0;
        std::vector<double> compileMs;
    };

    void serve(ModelKey key, graph::Graph graph,
               const runtime::CompileOptions &options, std::string tenant);

    ServiceOptions options_;
    std::shared_ptr<select::CostCache> costCache_;
    /** Small pool the artifact loader's re-audit gate fans out on. A
     *  second pool (not pool_): serve() runs *on* a pool_ worker, and
     *  helpers queued on pool_ would sit behind the queued serve tasks,
     *  leaving the re-audit to the calling worker alone. */
    std::unique_ptr<ThreadPool> verifyPool_;
    common::ShardedLru<ModelKey,
                       std::shared_ptr<const runtime::CompiledModel>,
                       ModelKeyHash>
        modelCache_;
    std::unique_ptr<ArtifactStore> artifacts_; ///< null when disabled
    ThreadPool pool_;

    mutable std::mutex mutex_;
    std::unordered_map<ModelKey, std::shared_ptr<Inflight>, ModelKeyHash>
        inflight_;
    std::map<std::string, TenantCounters> tenants_;
    uint64_t totalSubmits_ = 0;
    uint64_t totalCompiles_ = 0;
};

} // namespace gcd2::service

#endif // GCD2_SERVICE_SERVICE_H
