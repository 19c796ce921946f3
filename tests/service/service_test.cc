/**
 * @file
 * Compile-service tests: request coalescing (N concurrent identical
 * submissions cost exactly one compile and observe bit-identical
 * models), deterministic admission control, the in-memory model cache
 * (repeat hits, and a full cache of distinct models staying resident),
 * artifact warm starts across service restarts (with fallback to a
 * clean compile when the artifact is corrupt), and the selector
 * fallback ladder under a service request.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <unistd.h>

#include "models/zoo.h"
#include "service/service.h"

namespace gcd2::service {
namespace {

using common::DiagSeverity;
using models::ModelId;
using runtime::CompiledModel;

std::string
freshDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("gcd2_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    return dir.string();
}

const TenantStats &
tenant(const ServiceReport &report, const std::string &name)
{
    for (const TenantStats &t : report.tenants)
        if (t.tenant == name)
            return t;
    static const TenantStats empty;
    return empty;
}

TEST(ServiceTest, ThirtyTwoConcurrentIdenticalSubmissionsCompileOnce)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    ServiceOptions options;
    options.numWorkers = 4;
    CompileService service(options);

    // All 32 submitters released at once to maximize contention on the
    // coalescing path.
    constexpr int kThreads = 32;
    std::promise<void> start;
    std::shared_future<void> go = start.get_future().share();
    std::vector<Ticket> tickets(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            go.wait();
            tickets[static_cast<size_t>(i)] =
                service.submit(g, "tenant-" + std::to_string(i % 4));
        });
    start.set_value();
    for (std::thread &t : threads)
        t.join();
    service.drain();

    // Exactly one compile served all 32 requests...
    const ServiceReport report = service.report();
    EXPECT_EQ(report.totalSubmits, 32u);
    EXPECT_EQ(report.totalCompiles, 1u);
    EXPECT_EQ(report.inflight, 0u);

    // ...and every requester observes the *same* model object, whose
    // serialized bytes match an independent clean compile bit for bit.
    std::shared_ptr<const CompiledModel> first;
    for (Ticket &ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        const auto model = ticket.result.get();
        ASSERT_NE(model, nullptr);
        if (first == nullptr)
            first = model;
        EXPECT_EQ(model.get(), first.get());
    }
    const CompiledModel independent = runtime::compile(g);
    EXPECT_EQ(serializeModel(*first), serializeModel(independent));
}

TEST(ServiceTest, CoalescedTicketReportsItsPath)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);

    // Gate the compile so the second submit provably lands while the
    // first is in flight.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    runtime::CompileOptions gated;
    gated.testSelectionFault = [open](select::SelectorResult &) {
        open.wait();
    };

    ServiceOptions options;
    options.numWorkers = 2;
    CompileService service(options);

    const Ticket leader = service.submit(g, "a", &gated);
    EXPECT_EQ(leader.path, Ticket::Path::Scheduled);
    const Ticket follower = service.submit(g, "b", &gated);
    EXPECT_EQ(follower.path, Ticket::Path::Coalesced);
    EXPECT_TRUE(follower.key == leader.key);

    gate.set_value();
    service.drain();
    EXPECT_EQ(leader.result.get().get(), follower.result.get().get());

    const ServiceReport report = service.report();
    EXPECT_EQ(report.totalCompiles, 1u);
    EXPECT_EQ(tenant(report, "b").coalescedHits, 1u);
}

TEST(ServiceTest, AdmissionControlRejectsBeyondQueueDepth)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);

    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();

    // Three *distinct* requests (different partition bounds fingerprint
    // differently) against a depth-2 service whose in-flight compiles
    // are gated: the third must be rejected deterministically.
    auto gatedWithPartition = [&open](int maxPartition) {
        runtime::CompileOptions o;
        o.maxPartition = maxPartition;
        o.testSelectionFault = [open](select::SelectorResult &) {
            open.wait();
        };
        return o;
    };

    ServiceOptions options;
    options.numWorkers = 2;
    options.maxQueueDepth = 2;
    CompileService service(options);

    const auto first = gatedWithPartition(13);
    const auto second = gatedWithPartition(11);
    const auto third = gatedWithPartition(9);
    EXPECT_TRUE(service.submit(g, "t", &first).accepted);
    EXPECT_TRUE(service.submit(g, "t", &second).accepted);

    const Ticket rejected = service.submit(g, "t", &third);
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.path, Ticket::Path::Rejected);
    EXPECT_EQ(rejected.rejection.pass, "service");
    EXPECT_EQ(rejected.rejection.severity, DiagSeverity::Warning);
    EXPECT_NE(rejected.rejection.message.find("admission control"),
              std::string::npos);

    gate.set_value();
    service.drain();

    const ServiceReport report = service.report();
    EXPECT_EQ(report.totalCompiles, 2u);
    EXPECT_EQ(tenant(report, "t").rejected, 1u);
    EXPECT_EQ(tenant(report, "t").submits, 3u);
}

TEST(ServiceTest, ModelCacheServesRepeatSubmissionsWithoutCompiling)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    CompileService service{ServiceOptions{}};

    const Ticket first = service.submit(g, "t");
    service.drain();
    const Ticket second = service.submit(g, "t");

    EXPECT_EQ(second.path, Ticket::Path::ModelCacheHit);
    EXPECT_EQ(first.result.get().get(), second.result.get().get());

    const ServiceReport report = service.report();
    EXPECT_EQ(report.totalCompiles, 1u);
    EXPECT_EQ(tenant(report, "t").modelCacheHits, 1u);
    EXPECT_GE(report.modelCache.hits, 1u);
    EXPECT_LE(report.modelCacheSize, report.modelCacheCapacity);
}

TEST(ServiceTest, ModelCacheHoldsThirtyTwoDistinctModels)
{
    // A full cache's worth of distinct keys must all stay resident: no
    // key may be evicted while the cache holds fewer than its capacity.
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    ServiceOptions options;
    options.numWorkers = 2;
    CompileService service{options};

    std::vector<runtime::CompileOptions> requests(32);
    for (size_t i = 0; i < requests.size(); ++i)
        requests[i].perOpOverheadCycles = 100 + i;
    for (const runtime::CompileOptions &request : requests)
        EXPECT_TRUE(service.submit(g, "t", &request).accepted);
    service.drain();

    size_t hits = 0;
    for (const runtime::CompileOptions &request : requests)
        hits += service.submit(g, "t", &request).path ==
                Ticket::Path::ModelCacheHit;
    EXPECT_EQ(hits, 32u);
    EXPECT_EQ(service.report().totalCompiles, 32u);
}

TEST(ServiceTest, ArtifactWarmStartSurvivesServiceRestart)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    const std::string dir = freshDir("service_warmstart");

    std::vector<uint8_t> coldBytes;
    {
        ServiceOptions options;
        options.artifactDir = dir;
        CompileService cold(options);
        const Ticket ticket = cold.submit(g, "t");
        cold.drain();
        coldBytes = serializeModel(*ticket.result.get());
        EXPECT_EQ(cold.report().artifacts.saves, 1u);
        EXPECT_EQ(cold.report().totalCompiles, 1u);
    }

    // A brand-new service process-equivalent: no in-memory state, same
    // artifact directory. The request must be served from disk -- no
    // compile at all -- after the artifact passes the re-audit gate,
    // and the served model must be bit-identical to the cold compile.
    ServiceOptions options;
    options.artifactDir = dir;
    CompileService warm(options);
    const Ticket ticket = warm.submit(g, "t");
    warm.drain();

    const ServiceReport report = warm.report();
    EXPECT_EQ(report.totalCompiles, 0u);
    EXPECT_EQ(report.artifacts.loadHits, 1u);
    EXPECT_EQ(tenant(report, "t").artifactHits, 1u);
    EXPECT_EQ(serializeModel(*ticket.result.get()), coldBytes);
}

TEST(ServiceTest, CorruptArtifactFallsBackToCleanCompileAndOverwrites)
{
    const graph::Graph g = models::buildModel(ModelId::WdsrB);
    const std::string dir = freshDir("service_corrupt_artifact");

    // Plant garbage at exactly the path the service will look at.
    const ModelKey key = fingerprintRequest(g, ServiceOptions{}.compile);
    {
        ArtifactStore store(dir);
        std::ofstream out(store.pathFor(key), std::ios::binary);
        for (int i = 0; i < 1024; ++i)
            out.put(static_cast<char>(i));
    }

    ServiceOptions options;
    options.artifactDir = dir;
    CompileService service(options);
    const Ticket ticket = service.submit(g, "t");
    service.drain();

    // Rejected artifact, clean compile served, bad file overwritten.
    const auto model = ticket.result.get();
    ASSERT_NE(model, nullptr);
    const ServiceReport report = service.report();
    EXPECT_EQ(report.totalCompiles, 1u);
    EXPECT_EQ(report.artifacts.loadRejects, 1u);
    EXPECT_EQ(report.artifacts.saves, 1u);

    // The served model explains the rejection in its diagnostics.
    bool explained = false;
    for (const common::Diag &diag : model->report.diagnostics)
        explained |= diag.pass == "artifact-load";
    EXPECT_TRUE(explained);

    // Next restart warm-starts from the overwritten, now-valid artifact.
    CompileService second(options);
    const Ticket warm = second.submit(g, "t");
    second.drain();
    EXPECT_EQ(second.report().totalCompiles, 0u);
    EXPECT_EQ(second.report().artifacts.loadHits, 1u);
    EXPECT_EQ(serializeModel(*warm.result.get()),
              serializeModel(*model));
}

TEST(ServiceTest, OversizedGcd2PartitionFallsBackToPbqp)
{
    // A request may pair gcd2 with any partition bound, but gcd2's
    // search is unbudgeted: over Conformer's 386-node component it would
    // not finish. The gcd2 rung refuses the bound and pbqp serves.
    runtime::CompileOptions request;
    request.selection = runtime::SelectionMode::Gcd2;
    request.maxPartition = 1000;
    CompileService service{ServiceOptions{}};
    const Ticket ticket = service.submit(
        models::buildModel(ModelId::Conformer), "t", &request);
    service.drain();

    const auto model = ticket.result.get();
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->report.servedSelection, "pbqp");
    EXPECT_EQ(model->report.selectionRung, 1);
    bool warned = false;
    for (const common::Diag &diag : model->report.diagnostics)
        warned |= diag.severity == DiagSeverity::Warning &&
                  diag.message.find("rung 'gcd2' failed") !=
                      std::string::npos;
    EXPECT_TRUE(warned);
    EXPECT_GT(model->totals.cycles, 0u);
}

} // namespace
} // namespace gcd2::service
