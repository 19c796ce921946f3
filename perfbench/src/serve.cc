/**
 * @file
 * serve-mix: one generator thread sends an open-loop, seeded Poisson
 * stream of compile requests at a fixed offered rate into one
 * CompileService (two workers, one compile thread each, a byte-bounded
 * artifact directory, two tenants).
 *
 * Keys are Zipf-popular over the zoo models x four option variants
 * (default, pbqp, local, extended fusion): 40 keys against a 32-entry
 * model LRU, so tail keys reload from the verified artifact store. Every
 * kFreshEvery-th request is a fresh key (a never-used perOpOverheadCycles
 * value) that compiles and saves an artifact beside the reads. Every
 * kRestartSeconds the service is replaced by a new instance on the same
 * directory, like a rolling process restart: the new instance serves
 * from then on (bursts of coalesced warm starts) while the old one drains
 * on a reaper thread, which also checks every result of its epoch.
 *
 * Each request is timed from its due time to the resolution of its
 * ticket future: at submit() return for a cache hit, otherwise when the
 * compile or warm start it started or joined resolved (one waiter thread
 * per started compile records that moment).
 *
 * The stream is tuned so each latency statistic sits inside one mode of
 * the distribution: with Zipf exponent 1.5 about two thirds of requests
 * hit the model LRU, so p50 is the cache-hit path; with 1 in 50 fresh
 * keys, p99 falls among the compiles.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <malloc.h>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include "harness.h"
#include "models/zoo.h"
#include "service/service.h"

namespace perfbench {

using namespace gcd2;
using runtime::CompiledModel;
using ModelPtr = std::shared_ptr<const CompiledModel>;

namespace {

constexpr double kRate = 200.0;          ///< offered requests per second
constexpr double kZipfExponent = 1.5;    ///< key popularity skew
constexpr uint64_t kFreshEvery = 50;     ///< 1 in 50 requests is a new key
constexpr double kRestartSeconds = 2.0;  ///< rolling restart interval
constexpr double kLimitMs = 50.0;        ///< goodput latency limit
constexpr double kSpinUs = 200.0;        ///< generator busy-waits this last
constexpr const char *kVariants[] = {"default", "pbqp", "local", "fusion"};
constexpr size_t kVariantCount = 4;

runtime::CompileOptions
variantOptions(size_t variant, uint64_t overhead)
{
    runtime::CompileOptions options;
    options.numThreads = 1;
    options.perOpOverheadCycles = overhead;
    if (variant == 1)
        options.selection = runtime::SelectionMode::Pbqp;
    else if (variant == 2)
        options.selection = runtime::SelectionMode::Local;
    else if (variant == 3)
        options.enableExtendedFusion = true;
    return options;
}

/** One compile request key: a model under one option variant. */
struct Key
{
    size_t model = 0;
    runtime::CompileOptions options;
    service::ModelKey fingerprint;
    /** serializeModel of a direct runtime::compile of the same key. */
    std::vector<uint8_t> reference;
    uint64_t cycles = 0;
    uint64_t packets = 0;
};

struct Request
{
    double dueUs = 0.0; ///< offset from the start of the stream
    size_t key = 0;
    int tenant = 0;
};

/** A compile or warm start that one Scheduled request started. */
struct Group
{
    size_t key = 0;
    int64_t request = 0;
    double submitUs = 0.0;
    double resolvedUs = 0.0;
    std::shared_future<ModelPtr> future;
    std::thread waiter;
};

struct Record
{
    int64_t index = 0;
    size_t key = 0;
    double dueUs = 0.0;
    double submitStartUs = 0.0;
    double submitEndUs = 0.0;
    service::Ticket::Path path = service::Ticket::Path::Rejected;
    Group *group = nullptr; ///< started or joined compile (null for hits)
    std::shared_future<ModelPtr> result;
};

/** One service instance's lifetime and everything submitted to it. */
struct Epoch
{
    int number = 0;
    std::unique_ptr<service::CompileService> service;
    std::vector<std::unique_ptr<Group>> groups;
    std::unordered_map<size_t, Group *> latest; ///< key -> newest group
    std::vector<Record> records;
};

/** What the reaper thread accumulates (read after it is joined). */
struct Tally
{
    std::vector<double> latencyMs;
    std::vector<double> submitUs;
    std::vector<double> warmStartMs;
    uint64_t correct = 0; ///< resolved correctly within kLimitMs
    std::map<size_t, std::vector<double>> compileMsByModel;
    std::vector<double> tracedCompileMs;
    std::vector<double> untracedCompileMs;
    /** Fresh key -> digest of its served serializeModel bytes. */
    std::map<size_t, uint64_t> freshDigest;
    PassLedger ledger;
    uint64_t cacheHits = 0, cacheMisses = 0, submits = 0, coalesced = 0,
             rejected = 0, compiles = 0, loadHits = 0, saves = 0,
             evictions = 0;
};

std::vector<Request>
makeStream(uint64_t seed, double seconds, size_t standingKeys,
           uint64_t freshEvery, size_t models, std::vector<Key> &keys,
           uint64_t &digest)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t rank = 0; rank < standingKeys; ++rank)
        cdf.push_back(total += 1.0 / std::pow(rank + 1.0, kZipfExponent));

    // A Poisson stream conditioned on exactly rate x seconds arrivals:
    // exponential gaps, rescaled so the last one ends the window.
    const auto count = static_cast<size_t>(std::llround(kRate * seconds));
    std::vector<double> due;
    double t = 0.0;
    for (size_t i = 0; i <= count; ++i)
        due.push_back(t += -std::log(1.0 - unit(rng)));
    std::vector<Request> stream;
    uint64_t fresh = 0;
    for (size_t i = 0; i < count; ++i) {
        Request r;
        r.dueUs = due[i] / t * seconds * 1e6;
        if (i % freshEvery == freshEvery - 1) {
            // A key no request has used: the next perOpOverheadCycles.
            Key key;
            key.model = fresh % models;
            key.options = variantOptions(0, ++fresh);
            r.key = keys.size();
            keys.push_back(std::move(key));
        } else {
            const double u = unit(rng) * total;
            r.key = static_cast<size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            r.key = std::min(r.key, standingKeys - 1);
        }
        r.tenant = static_cast<int>(rng() & 1u);
        digest = mixDigest(digest, static_cast<uint64_t>(std::llround(r.dueUs)));
        digest = mixDigest(digest, r.key);
        digest = mixDigest(digest, static_cast<uint64_t>(r.tenant));
        stream.push_back(r);
    }
    return stream;
}

} // namespace

RunResult
runServeMix(const RunConfig &config)
{
    RunResult result;
    Metrics &m = result.metrics;
    Tracer tracer(config.trace);

    const auto &infos = models::allModels();
    const size_t modelCount = config.selfTest ? 1 : infos.size();
    const size_t standing = modelCount * kVariantCount;
    const uint64_t freshEvery = config.selfTest ? 8 : kFreshEvery;
    const double restartSeconds =
        config.selfTest ? config.seconds / 2.0 : kRestartSeconds;
    const std::string artifactDir = config.workDir + "/artifacts";

    // Set-up (repeated; the median is setup_s): build the graphs,
    // reference-compile every standing key directly, then warm a service
    // so every standing key has an artifact on disk.
    std::vector<graph::Graph> graphs;
    std::vector<Key> keys;
    std::vector<double> setupSeconds;
    std::vector<double> buildMs;
    std::shared_ptr<select::CostCache> costCache;
    std::unique_ptr<service::CompileService> warm;
    std::vector<service::Ticket> warmTickets;
    service::ServiceOptions serviceOptions;
    serviceOptions.numWorkers = 2;
    serviceOptions.compileThreads = 1;
    serviceOptions.artifactDir = artifactDir;
    const int setups = config.selfTest ? 1 : 3;
    for (int s = 0; s < setups; ++s) {
        warm.reset();
        warmTickets.clear();
        malloc_trim(0); // each set-up starts from a clean heap
        std::filesystem::remove_all(artifactDir);
        const double setupStart = nowUs();
        graphs.clear();
        for (size_t i = 0; i < modelCount; ++i) {
            ScopedSpan span(tracer, "models.build");
            graphs.push_back(models::buildModel(infos[i].id));
        }
        buildMs.push_back((nowUs() - setupStart) / 1e3);

        costCache = std::make_shared<select::CostCache>();
        keys.assign(standing, Key{});
        uint64_t artifactBytes = 0;
        for (size_t k = 0; k < standing; ++k) {
            // Rank k: model k % n, variant k / n -- the default variants
            // are the most popular, the fusion variants the tail.
            Key &key = keys[k];
            key.model = k % modelCount;
            key.options = variantOptions(k / modelCount, 0);
            ++result.attempted;
            try {
                ScopedSpan span(tracer, "runtime.reference_compile");
                runtime::CompileOptions options = key.options;
                options.costCache = costCache;
                const CompiledModel ref =
                    runtime::compile(graphs[key.model], options);
                key.fingerprint =
                    service::fingerprintRequest(graphs[key.model], options);
                key.reference = service::serializeModel(ref);
                key.cycles = ref.totals.cycles;
                key.packets = codePackets(ref);
                artifactBytes += key.reference.size() + 64; // + header
                if (errorCount(ref.report) > 0)
                    result.fail("reference compile has Error diagnostics");
            } catch (const std::exception &e) {
                result.fail(std::string("reference compile threw: ") +
                            e.what());
            }
        }
        // The store holds the standing keys with a quarter to spare;
        // fresh-key saves push the least recently used artifacts out.
        serviceOptions.artifactMaxBytes = artifactBytes + artifactBytes / 4;

        service::ServiceOptions warmOptions = serviceOptions;
        warmOptions.compile.costCache = costCache;
        warm = std::make_unique<service::CompileService>(warmOptions);
        for (size_t k = 0; k < standing; ++k)
            warmTickets.push_back(warm->submit(graphs[keys[k].model],
                                               "warmup", &keys[k].options));
        warm->drain();
        setupSeconds.push_back((nowUs() - setupStart) / 1e6);
    }

    uint64_t digest = 0;
    const std::vector<Request> stream =
        makeStream(config.seed, config.seconds, standing, freshEvery,
                   modelCount, keys, digest);
    result.inputDigest = digest;
    for (size_t k = standing; k < keys.size(); ++k)
        keys[k].fingerprint =
            service::fingerprintRequest(graphs[keys[k].model], keys[k].options);

    // The reaper: drains a retired epoch, then checks and tallies it.
    service::ServiceReport warmBaseline;
    Tally tally;
    std::mutex resultMutex;
    std::set<const CompiledModel *> verified;
    const auto reap = [&](Epoch &epoch) {
        for (auto &group : epoch.groups)
            if (group->waiter.joinable())
                group->waiter.join();
        const service::ServiceReport report = epoch.service->report();
        epoch.service.reset();
        // Epoch 0's counters start after the set-up warm-up.
        const service::ServiceReport &base =
            epoch.number == 0 ? warmBaseline : service::ServiceReport{};
        tally.cacheHits += report.modelCache.hits - base.modelCache.hits;
        tally.cacheMisses +=
            report.modelCache.misses - base.modelCache.misses;
        tally.compiles += report.totalCompiles - base.totalCompiles;
        tally.loadHits += report.artifacts.loadHits - base.artifacts.loadHits;
        tally.saves += report.artifacts.saves - base.artifacts.saves;
        tally.evictions +=
            report.artifacts.evictions - base.artifacts.evictions;
        for (const service::TenantStats &t : report.tenants) {
            if (t.tenant == "warmup")
                continue;
            tally.submits += t.submits;
            tally.coalesced += t.coalescedHits;
            tally.rejected += t.rejected;
        }

        std::lock_guard<std::mutex> lock(resultMutex);
        verified.clear();
        const bool traced = config.trace && epoch.number % 2 == 1;
        for (auto &group : epoch.groups) {
            try {
                const ModelPtr model = group->future.get();
                const Key &key = keys[group->key];
                if (group->key >= standing) {
                    // Checked against a direct compile after the run.
                    tally.freshDigest[group->key] =
                        digestBytes(service::serializeModel(*model));
                } else if (service::serializeModel(*model) != key.reference) {
                    result.fail(std::string(kVariants[group->key / modelCount]) +
                                " key served bytes differ from the direct "
                                "compile");
                }
                if (errorCount(model->report) > 0)
                    result.fail("served model has Error diagnostics");
                verified.insert(model.get());
                if (model->report.pass("artifact-load") != nullptr) {
                    tally.warmStartMs.push_back(
                        (group->resolvedUs - group->submitUs) / 1e3);
                } else if (group->request >= 0) {
                    const double ms = model->report.totalSeconds * 1e3;
                    tally.compileMsByModel[key.model].push_back(ms);
                    (traced ? tally.tracedCompileMs
                            : tally.untracedCompileMs)
                        .push_back(ms);
                    tally.ledger.record(metricName(infos[key.model].name),
                                        *model, ms);
                }
            } catch (const std::exception &e) {
                result.fail(std::string("service compile threw: ") + e.what());
            }
        }

        tracer.setEnabled(traced);
        for (const Record &r : epoch.records) {
            ++result.attempted;
            double resolvedUs = r.submitEndUs;
            bool ok = r.path != service::Ticket::Path::Rejected;
            if (!ok)
                result.fail("request rejected by admission control");
            if (ok && r.group != nullptr)
                resolvedUs = std::max(resolvedUs, r.group->resolvedUs);
            ModelPtr model;
            if (ok) {
                try {
                    model = r.result.get();
                    if (!verified.count(model.get()) &&
                        service::serializeModel(*model) !=
                            keys[r.key].reference) {
                        ok = false;
                        result.fail("served bytes differ from the direct "
                                    "compile");
                    }
                } catch (const std::exception &e) {
                    ok = false;
                    result.fail(std::string("request failed: ") + e.what());
                }
            }
            const double latencyMs =
                ok ? (resolvedUs - r.dueUs) / 1e3 : config.seconds * 1e3;
            tally.latencyMs.push_back(latencyMs);
            tally.submitUs.push_back(r.submitEndUs - r.submitStartUs);
            tally.correct += ok && latencyMs <= kLimitMs ? 1 : 0;

            const int64_t client = tracer.add("client.request", r.dueUs,
                                              resolvedUs, -1, r.index);
            tracer.add("service.submit", r.submitStartUs, r.submitEndUs,
                       client, r.index);
            if (r.path == service::Ticket::Path::Scheduled && model) {
                const int64_t serve = tracer.add(
                    "service.serve", r.submitEndUs, resolvedUs, client,
                    r.index);
                if (model->report.pass("artifact-load") == nullptr)
                    tracer.addPassSpans(
                        model->report,
                        resolvedUs - model->report.totalSeconds * 1e6,
                        serve, r.index);
            }
        }
        tracer.setEnabled(false);
        epoch.records.clear();
        epoch.groups.clear();
        // A real restart hands the old process's memory back to the
        // system; release the free heap pages the retired instance left.
        malloc_trim(0);
    };

    // Epoch 0 is the warmed set-up instance; its warm-up tickets are the
    // groups that cache hits on it resolve to.
    warmBaseline = warm->report();
    auto epoch = std::make_unique<Epoch>();
    epoch->service = std::move(warm);
    for (size_t k = 0; k < warmTickets.size(); ++k) {
        auto group = std::make_unique<Group>();
        group->key = k;
        group->request = -1;
        group->future = warmTickets[k].result;
        epoch->latest[k] = group.get();
        epoch->groups.push_back(std::move(group));
    }
    warmTickets.clear();

    std::vector<double> lateMs;
    std::thread reaper;
    std::unique_ptr<Epoch> retired;
    const auto retire = [&](std::unique_ptr<Epoch> old) {
        if (reaper.joinable())
            reaper.join();
        retired = std::move(old);
        reaper = std::thread([&reap, &retired] { reap(*retired); });
    };

    tracer.setEnabled(false);
    const double startUs = nowUs();
    double nextRestartUs = restartSeconds * 1e6;
    for (size_t i = 0; i < stream.size(); ++i) {
        const Request &req = stream[i];
        const double dueUs = startUs + req.dueUs;
        // Sleep to just before the due time, then spin: a bare sleep
        // overshoots by the timer slack, which every request would pay.
        const double waitUs = dueUs - nowUs() - kSpinUs;
        if (waitUs > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(waitUs));
        while (nowUs() < dueUs) {
        }
        if (req.dueUs >= nextRestartUs) {
            nextRestartUs += restartSeconds * 1e6;
            auto next = std::make_unique<Epoch>();
            next->number = epoch->number + 1;
            next->service =
                std::make_unique<service::CompileService>(serviceOptions);
            retire(std::move(epoch));
            epoch = std::move(next);
        }

        const Key &key = keys[req.key];
        Record r;
        r.index = static_cast<int64_t>(i);
        r.key = req.key;
        r.dueUs = dueUs;
        r.submitStartUs = nowUs();
        lateMs.push_back((r.submitStartUs - dueUs) / 1e3);
        service::Ticket ticket = epoch->service->submit(
            graphs[key.model], req.tenant == 0 ? "tenant-a" : "tenant-b",
            &key.options);
        r.submitEndUs = nowUs();
        r.path = ticket.path;
        r.result = ticket.result;
        if (!(ticket.key == key.fingerprint)) {
            std::lock_guard<std::mutex> lock(resultMutex);
            result.fail("submit() fingerprint differs from "
                        "fingerprintRequest");
        }
        if (ticket.path == service::Ticket::Path::Scheduled) {
            auto group = std::make_unique<Group>();
            Group *g = group.get();
            g->key = req.key;
            g->request = r.index;
            g->submitUs = r.submitStartUs;
            g->future = ticket.result;
            g->waiter = std::thread([g] {
                g->future.wait();
                g->resolvedUs = nowUs();
            });
            epoch->latest[req.key] = g;
            epoch->groups.push_back(std::move(group));
            r.group = g;
        } else if (ticket.path == service::Ticket::Path::Coalesced) {
            const auto it = epoch->latest.find(req.key);
            r.group = it == epoch->latest.end() ? nullptr : it->second;
        }
        epoch->records.push_back(std::move(r));
    }
    const double measuredSeconds = (nowUs() - startUs) / 1e6;
    retire(std::move(epoch));
    reaper.join();
    retired.reset();
    std::filesystem::remove_all(artifactDir);

    // Fresh keys: the direct compile runs now, off the clock.
    for (const auto &[k, digest] : tally.freshDigest) {
        ++result.attempted;
        runtime::CompileOptions options = keys[k].options;
        options.costCache = costCache;
        try {
            if (digestBytes(service::serializeModel(runtime::compile(
                    graphs[keys[k].model], options))) != digest)
                result.fail("fresh key served bytes differ from the direct "
                            "compile");
        } catch (const std::exception &e) {
            result.fail(std::string("fresh reference compile threw: ") +
                        e.what());
        }
    }

    std::vector<double> cycles;
    uint64_t packets = 0;
    for (size_t k = 0; k < standing; ++k) {
        cycles.push_back(static_cast<double>(keys[k].cycles));
        packets += keys[k].packets;
    }
    // Each model's cost is its fastest compile in the service, as in the
    // zoo workloads: the median drifts with the machine's speed.
    std::vector<double> bestCompileMs;
    for (const auto &[model, samples] : tally.compileMsByModel)
        bestCompileMs.push_back(percentile(samples, 0.0));

    if (!config.trace) {
        m.set("setup_s", median(setupSeconds), "s");
        m.set("compile_ms_geomean", geomean(bestCompileMs), "ms");
        m.set("model_cycles_geomean", geomean(cycles), "cycles");
        m.set("code_packets", static_cast<double>(packets), "packets");
        m.set("serve_p50_ms", percentile(tally.latencyMs, 0.5), "ms");
        m.set("serve_p99_ms", percentile(tally.latencyMs, 0.99), "ms");
        m.set("serve_goodput_rps",
              static_cast<double>(tally.correct) / measuredSeconds, "1/s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        return result;
    }

    initPerLayer(m);
    m.set("models.build_ms", median(buildMs), "ms");
    tally.ledger.report(m);
    tracer.setEnabled(true);
    std::vector<std::shared_ptr<const dsp::PackedProgram>> programs;
    std::set<const dsp::PackedProgram *> seen;
    for (size_t k = 0; k < standing; ++k) {
        // The reference bytes are all that is kept; recompile with the
        // shared cost cache (cheap) to get the served programs back.
        runtime::CompileOptions options = keys[k].options;
        options.costCache = costCache;
        for (const auto &program : distinctPrograms(
                 runtime::compile(graphs[keys[k].model], options)))
            if (seen.insert(program.get()).second)
                programs.push_back(program);
    }
    replayLayers(programs, tracer, m, result);

    // service.fingerprint_us: fingerprintRequest replayed over the stream.
    std::vector<double> fingerprintUs;
    for (size_t i = 0; i < stream.size() && i < 2000; ++i) {
        const Key &key = keys[stream[i].key];
        const double t0 = nowUs();
        const service::ModelKey fp =
            service::fingerprintRequest(graphs[key.model], key.options);
        fingerprintUs.push_back(nowUs() - t0);
        if (!(fp == key.fingerprint))
            result.fail("fingerprintRequest is not repeatable");
    }
    m.set("service.submit_us", median(tally.submitUs), "us");
    m.set("service.fingerprint_us", median(fingerprintUs), "us");
    m.set("service.model_cache_hit_ratio",
          ratio(static_cast<double>(tally.cacheHits),
                static_cast<double>(tally.cacheHits + tally.cacheMisses)),
          "ratio");
    m.set("service.coalesced_share",
          ratio(static_cast<double>(tally.coalesced),
                static_cast<double>(tally.submits)),
          "ratio");
    m.set("service.rejected", static_cast<double>(tally.rejected), "count");
    m.set("service.compiles", static_cast<double>(tally.compiles), "count");
    m.set("service.artifact_load_hits", static_cast<double>(tally.loadHits),
          "count");
    m.set("service.artifact_saves", static_cast<double>(tally.saves),
          "count");
    m.set("service.artifact_evictions", static_cast<double>(tally.evictions),
          "count");
    m.set("service.warm_start_ms_p50", median(tally.warmStartMs), "ms");
    m.set("client.late_ms_p99", percentile(lateMs, 0.99), "ms");
    for (size_t i = 0; i < modelCount; ++i) {
        const std::string name = metricName(infos[i].name);
        const auto it = tally.compileMsByModel.find(i);
        m.set("model." + name + ".compile_ms",
              it == tally.compileMsByModel.end() ? 0.0
                                               : percentile(it->second, 0.0),
              "ms");
        m.set("model." + name + ".cycles",
              static_cast<double>(keys[i].cycles), "cycles");
        m.set("model." + name + ".packets",
              static_cast<double>(keys[i].packets), "packets");
    }
    finishTrace(config, tracer, geomean(tally.tracedCompileMs),
                geomean(tally.untracedCompileMs), m, result);
    return result;
}

} // namespace perfbench
