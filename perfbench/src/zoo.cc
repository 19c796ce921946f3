/**
 * @file
 * zoo-cold and zoo-deep: one closed-loop client compiles the ten zoo
 * models back to back, in a seeded order per pass, from cold caches.
 *
 * zoo-cold uses the default CompileOptions with two compile threads;
 * zoo-deep the same loop with AuditMode::Deep and one thread. Before
 * every compile the process-wide pack and decode caches are cleared, and
 * each compile gets a private cost cache, so every compile pays what a
 * new model costs.
 */
#include <algorithm>
#include <numeric>
#include <random>

#include "dsp/decoded.h"
#include "harness.h"
#include "models/zoo.h"
#include "service/artifact_store.h"
#include "vliw/pack_cache.h"

namespace perfbench {

using namespace gcd2;

namespace {

struct ZooModel
{
    std::string name;
    graph::Graph graph;
    uint64_t cycles = 0;
    uint64_t packets = 0;
    std::vector<uint8_t> bytes;
    std::vector<std::shared_ptr<const dsp::PackedProgram>> programs;
    std::vector<double> wallMs;
    std::vector<double> tracedMs;
    std::vector<double> untracedMs;
};

runtime::CompiledModel
coldCompile(const graph::Graph &graph, const runtime::CompileOptions &options)
{
    vliw::PackCache::global().clear();
    dsp::DecodeCache::global().clear();
    return runtime::compile(graph, options); // null costCache = private
}

/** Each model's fastest compile of one sample set (models without
 *  samples are skipped). */
std::vector<double>
fastest(const std::vector<ZooModel> &models,
        std::vector<double> ZooModel::*samples)
{
    std::vector<double> best;
    for (const ZooModel &model : models)
        if (!(model.*samples).empty())
            best.push_back(percentile(model.*samples, 0.0));
    return best;
}

} // namespace

RunResult
runZoo(const RunConfig &config, bool deep)
{
    RunResult result;
    Metrics &m = result.metrics;
    Tracer tracer(config.trace);

    runtime::CompileOptions options;
    options.numThreads = deep ? 1 : 2;
    options.audit = deep ? runtime::AuditMode::Deep : runtime::AuditMode::Cheap;

    const auto &infos = models::allModels();
    const size_t count = config.selfTest ? 1 : infos.size();

    // Set-up: build the graphs and compile each once as the reference the
    // measured compiles must reproduce. Repeated; the median is setup_s.
    std::vector<ZooModel> zoo;
    std::vector<double> setupSeconds;
    std::vector<double> buildMs;
    const int setups = config.selfTest ? 1 : 3;
    for (int s = 0; s < setups; ++s) {
        const double setupStart = nowUs();
        zoo.assign(count, ZooModel{});
        for (size_t i = 0; i < count; ++i) {
            ScopedSpan span(tracer, "models.build");
            zoo[i].name = metricName(infos[i].name);
            zoo[i].graph = models::buildModel(infos[i].id);
        }
        buildMs.push_back((nowUs() - setupStart) / 1e3);
        for (ZooModel &model : zoo) {
            ++result.attempted;
            try {
                ScopedSpan span(tracer, "runtime.reference_compile");
                const runtime::CompiledModel ref =
                    coldCompile(model.graph, options);
                model.cycles = ref.totals.cycles;
                model.packets = codePackets(ref);
                model.bytes = service::serializeModel(ref);
                model.programs = distinctPrograms(ref);
                if (errorCount(ref.report) > 0)
                    result.fail(model.name + ": reference compile has "
                                             "Error diagnostics");
            } catch (const std::exception &e) {
                result.fail(model.name + ": reference compile threw: " +
                            e.what());
            }
        }
        setupSeconds.push_back((nowUs() - setupStart) / 1e6);
    }

    // Measurement: whole passes over the zoo until the time is up. In a
    // traced run every other pass records spans, so the two halves give
    // the tracing overhead.
    std::mt19937_64 rng(config.seed);
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    PassLedger ledger;
    uint64_t compiles = 0;
    uint64_t correct = 0;
    int64_t request = 0;
    const double start = nowUs();
    for (int pass = 0;
         pass == 0 || (!config.selfTest &&
                       nowUs() - start < config.seconds * 1e6);
         ++pass) {
        std::shuffle(order.begin(), order.end(), rng);
        const bool traced = config.trace && pass % 2 == 0;
        tracer.setEnabled(traced);
        for (size_t index : order) {
            ZooModel &model = zoo[index];
            result.inputDigest = mixDigest(result.inputDigest, index);
            ++result.attempted;
            ScopedSpan client(tracer, "client.request", -1, request);
            try {
                const int64_t span =
                    tracer.open("runtime.compile", client.id(), request);
                const double t0 = nowUs();
                const runtime::CompiledModel compiled =
                    coldCompile(model.graph, options);
                const double wallMs = (nowUs() - t0) / 1e3;
                tracer.close(span);
                tracer.addPassSpans(compiled.report, t0, span, request);

                model.wallMs.push_back(wallMs);
                (traced ? model.tracedMs : model.untracedMs)
                    .push_back(wallMs);
                ++compiles;
                ledger.record(model.name, compiled, wallMs);

                bool ok = true;
                if (errorCount(compiled.report) > 0) {
                    ok = false;
                    result.fail(model.name + ": Error diagnostics");
                }
                if (compiled.totals.cycles != model.cycles) {
                    ok = false;
                    result.fail(model.name + ": totals.cycles changed "
                                             "between compiles");
                }
                ScopedSpan check(tracer, "service.serialize", client.id(),
                                 request);
                if (service::serializeModel(compiled) != model.bytes) {
                    ok = false;
                    result.fail(model.name + ": serializeModel bytes "
                                             "changed between compiles");
                }
                correct += ok ? 1 : 0;
            } catch (const std::exception &e) {
                result.fail(model.name + ": compile threw: " + e.what());
            }
            ++request;
        }
    }
    tracer.setEnabled(config.trace);

    std::vector<double> cycles;
    uint64_t packets = 0;
    for (const ZooModel &model : zoo) {
        cycles.push_back(static_cast<double>(model.cycles));
        packets += model.packets;
    }

    // Every request of this closed loop is deterministic work, so each
    // model's cost is its fastest compile of the run: the median drifts
    // with the machine's speed, the best of many repeats does not. The
    // latency percentiles and goodput are those of a loop running every
    // model at that cost.
    const std::vector<double> best = fastest(zoo, &ZooModel::wallMs);
    if (!config.trace) {
        m.set("setup_s", median(setupSeconds), "s");
        m.set("compile_ms_geomean", geomean(best), "ms");
        m.set("model_cycles_geomean", geomean(cycles), "cycles");
        m.set("code_packets", static_cast<double>(packets), "packets");
        m.set("serve_p50_ms", percentile(best, 0.5), "ms");
        m.set("serve_p99_ms", percentile(best, 0.99), "ms");
        m.set("serve_goodput_rps",
              ratio(static_cast<double>(correct),
                    static_cast<double>(compiles)) *
                  ratio(static_cast<double>(best.size()),
                        std::accumulate(best.begin(), best.end(), 0.0) /
                            1e3),
              "1/s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        return result;
    }

    // The service and the open-loop generator are not used here; their
    // rows stay 0.
    initPerLayer(m);
    m.set("models.build_ms", median(buildMs), "ms");
    ledger.report(m);
    std::vector<std::shared_ptr<const dsp::PackedProgram>> programs;
    for (const ZooModel &model : zoo)
        programs.insert(programs.end(), model.programs.begin(),
                        model.programs.end());
    replayLayers(programs, tracer, m, result);
    for (const ZooModel &model : zoo) {
        m.set("model." + model.name + ".compile_ms",
              percentile(model.wallMs, 0.0), "ms");
        m.set("model." + model.name + ".cycles",
              static_cast<double>(model.cycles), "cycles");
        m.set("model." + model.name + ".packets",
              static_cast<double>(model.packets), "packets");
    }
    finishTrace(config, tracer, geomean(fastest(zoo, &ZooModel::tracedMs)),
                geomean(fastest(zoo, &ZooModel::untracedMs)), m, result);
    return result;
}

} // namespace perfbench
