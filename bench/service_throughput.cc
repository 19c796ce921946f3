/**
 * @file
 * Compile-service benchmark: artifact-store warm starts, request
 * coalescing, and cached-request throughput.
 *
 * Three phases, each exercising one tier of the service's cache ladder:
 *
 *  1. Warm start (ResNet-50): one cold compile through a service with an
 *     artifact store, then kWarmRuns brand-new services (no in-memory
 *     state, the process-restart equivalent) each serving the same
 *     request from the verified on-disk artifact. Reports the fastest
 *     warm start, which scripts/check_service_bench.py holds within 10%
 *     of a committed snapshot (fastest-of-N filters out per-start
 *     jitter), and the cold/warm ratio for information.
 *
 *  2. Coalescing (MobileNetV3): 16 threads submit the same request to a
 *     fresh service concurrently; the service must serve all of them
 *     with exactly one compile (requests/compile ratio = 16).
 *
 *  3. Cached throughput: repeated submissions of an already-compiled
 *     request, reporting requests per second through the in-memory
 *     model LRU.
 *
 * Output: human-readable table + machine-readable JSON (argv[1], default
 * "BENCH_service.json") consumed by CI against bench/service_baseline.json.
 */
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/table.h"
#include "common/timer.h"
#include "models/zoo.h"
#include "service/service.h"

using namespace gcd2;
using service::CompileService;
using service::ServiceOptions;
using service::Ticket;

namespace {

std::string
freshArtifactDir()
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("gcd2_service_bench_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Fresh-service warm starts per measurement; the fastest one counts. */
constexpr int kWarmRuns = 50;
/** Idle gap before each warm start. On a 4-vCPU Xeon host the
 *  fastest of 50 back-to-back starts drifted by over 30% between bench
 *  runs; starting each one from idle, as after a restart, held the
 *  drift near 10%. */
constexpr std::chrono::milliseconds kWarmGap{20};

struct WarmStartResult
{
    double coldMs = 0.0;
    double warmMs = 0.0; ///< fastest of kWarmRuns
    double speedup = 0.0;
    bool servedFromArtifact = false;
};

WarmStartResult
measureWarmStart(const graph::Graph &graph, const std::string &dir)
{
    WarmStartResult r;
    {
        ServiceOptions options;
        options.artifactDir = dir;
        CompileService cold(options);
        const Timer timer;
        cold.submit(graph, "bench");
        cold.drain();
        r.coldMs = timer.seconds() * 1e3;
        if (cold.report().artifacts.saves != 1) {
            std::cerr << "FATAL: cold compile did not save an artifact\n";
            std::exit(1);
        }
    }
    r.servedFromArtifact = true;
    for (int run = 0; run < kWarmRuns; ++run) {
        // A brand-new service: the in-memory model cache is empty, so
        // only the on-disk artifact (verified by re-audit on load) can
        // make this fast.
        ServiceOptions options;
        options.artifactDir = dir;
        CompileService warm(options);
        std::this_thread::sleep_for(kWarmGap);
        const Timer timer;
        warm.submit(graph, "bench");
        warm.drain();
        const double ms = timer.seconds() * 1e3;
        r.warmMs = run == 0 ? ms : std::min(r.warmMs, ms);
        const service::ServiceReport report = warm.report();
        r.servedFromArtifact = r.servedFromArtifact &&
                               report.artifacts.loadHits == 1 &&
                               report.totalCompiles == 0;
    }
    r.speedup = r.coldMs / std::max(r.warmMs, 1e-6);
    return r;
}

struct CoalesceResult
{
    uint64_t submits = 0;
    uint64_t compiles = 0;
    double ratio = 0.0;
};

CoalesceResult
measureCoalescing(const graph::Graph &graph)
{
    ServiceOptions options;
    options.numWorkers = 4;
    CompileService service(options);

    constexpr int kThreads = 16;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back(
            [&service, &graph] { service.submit(graph, "bench"); });
    for (std::thread &t : threads)
        t.join();
    service.drain();

    const service::ServiceReport report = service.report();
    CoalesceResult r;
    r.submits = report.totalSubmits;
    r.compiles = report.totalCompiles;
    r.ratio = r.compiles == 0 ? 0.0
                              : static_cast<double>(r.submits) /
                                    static_cast<double>(r.compiles);
    return r;
}

double
measureCachedThroughput(const graph::Graph &graph)
{
    CompileService service{ServiceOptions{}};
    service.submit(graph, "bench");
    service.drain();

    constexpr int kRequests = 20000;
    const Timer timer;
    for (int i = 0; i < kRequests; ++i)
        service.submit(graph, "bench");
    const double seconds = timer.seconds();
    return static_cast<double>(kRequests) / seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath =
        argc > 1 ? argv[1] : "BENCH_service.json";

    std::cout << "Compile service: warm starts, coalescing, cached "
                 "throughput\n\n";

    const std::string dir = freshArtifactDir();
    const graph::Graph resnet =
        models::buildModel(models::ModelId::ResNet50);
    const graph::Graph mobilenet =
        models::buildModel(models::ModelId::MobileNetV3);

    const WarmStartResult warm = measureWarmStart(resnet, dir);
    if (!warm.servedFromArtifact) {
        std::cerr << "FATAL: warm start was not served from the "
                     "artifact store\n";
        return 1;
    }

    const CoalesceResult coalesce = measureCoalescing(mobilenet);
    const double cachedRps = measureCachedThroughput(mobilenet);

    Table table({"Phase", "Result"});
    table.addRow({"ResNet-50 cold compile",
                  fmtDouble(warm.coldMs, 1) + " ms"});
    table.addRow({"ResNet-50 artifact warm start (fastest of " +
                      std::to_string(kWarmRuns) + ")",
                  fmtDouble(warm.warmMs, 2) + " ms"});
    table.addRow({"warm-start speedup", fmtSpeedup(warm.speedup)});
    table.addRow({"coalescing (16 concurrent submits)",
                  std::to_string(coalesce.compiles) + " compile(s), " +
                      fmtDouble(coalesce.ratio, 1) +
                      " requests/compile"});
    table.addRow({"cached throughput",
                  fmtDouble(cachedRps / 1e3, 1) + "K requests/s"});
    table.print(std::cout);

    std::ostringstream json;
    json << "{\n  \"bench\": \"service_throughput\",\n"
         << "  \"cold_compile_ms\": " << warm.coldMs << ",\n"
         << "  \"warm_start_ms\": " << warm.warmMs << ",\n"
         << "  \"warm_start_runs\": " << kWarmRuns << ",\n"
         << "  \"warm_speedup\": " << warm.speedup << ",\n"
         << "  \"coalesce_submits\": " << coalesce.submits << ",\n"
         << "  \"coalesce_compiles\": " << coalesce.compiles << ",\n"
         << "  \"coalesce_ratio\": " << coalesce.ratio << ",\n"
         << "  \"cached_requests_per_sec\": " << cachedRps << "\n}\n";

    std::filesystem::remove_all(dir);

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
