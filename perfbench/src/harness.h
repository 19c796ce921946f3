/**
 * @file
 * Shared pieces of the repository benchmark: run configuration, the
 * metric sheet each workload fills, order statistics, the in-memory span
 * tracer, and the replays that time single layers (vliw packing, dsp
 * simulation, analysis lint) over a compile's served schedules.
 *
 * The benchmark drives the library only through its public entry points;
 * every span is recorded here, around a call into a layer, never inside
 * the library.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/packet.h"
#include "runtime/compiler.h"

namespace perfbench {

/** Command-line configuration of one benchmark process. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for artifacts and the span file (inside the checkout). */
    std::string workDir;
    /** Self-test scale: one model, one pass, a few dozen requests. */
    bool selfTest = false;
};

/** Ordered name -> (value, unit) sheet printed as the result JSON. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    /** Single-line JSON object {"name": {"value": v, "unit": u}, ...}. */
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        entries_;
};

/** Outcome of a workload run: metrics plus the correctness tally. */
struct RunResult
{
    Metrics metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failure descriptions (printed to stderr). */
    std::vector<std::string> failures;
    /** Digest of the generated inputs (self-test: same seed, same digest). */
    uint64_t inputDigest = 0;

    void fail(std::string what);
};

// Order statistics ---------------------------------------------------------

double median(std::vector<double> values);
/** Linear-interpolated percentile, p in [0, 1]; 0 for an empty input. */
double percentile(std::vector<double> values, double p);
/** Geometric mean of positive values; 0 for an empty input. */
double geomean(const std::vector<double> &values);
double ratio(double num, double den);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Microseconds on the steady clock since the process started. */
double nowUs();

/** FNV-1a step for input digests. */
uint64_t mixDigest(uint64_t digest, uint64_t value);
/** FNV-1a digest of a byte string. */
uint64_t digestBytes(const std::vector<uint8_t> &bytes);

/** A model name with characters metric names may not hold replaced by _. */
std::string metricName(std::string_view name);

// Tracing ------------------------------------------------------------------

/** One recorded span: a call into a layer, or a pass of one compile. */
struct Span
{
    std::string name; ///< "<layer>.<what>"; the layer is the prefix
    double startUs = 0.0;
    double endUs = 0.0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    int64_t request = -1; ///< client request id, -1 = not request work
};

/**
 * Thread-safe in-memory span log. Disabled tracers record nothing and
 * return -1 from every call, so untraced runs pay one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Toggle recording (traced and untraced passes alternate). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Start a span now; returns its id (-1 when disabled). */
    int64_t open(std::string name, int64_t parent, int64_t request);
    /** End span @p id now (no-op for -1). */
    void close(int64_t id);
    /** Record a finished span; returns its id (-1 when disabled). */
    int64_t add(std::string name, double startUs, double endUs,
                int64_t parent, int64_t request);

    /**
     * Record a compile's passes as child spans of @p parent, laid end to
     * end from @p startUs with the durations the PipelineReport measured
     * (the passes run in sequence inside one compile).
     */
    void addPassSpans(const gcd2::runtime::PipelineReport &report,
                      double startUs, int64_t parent, int64_t request);

    /** Self time per layer (duration minus child-covered time) over the
     *  spans of client requests, in ms per traced request. */
    std::map<std::string, double> selfMsPerRequest() const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, int64_t parent = -1,
               int64_t request = -1)
        : tracer_(tracer), id_(tracer.open(std::move(name), parent, request))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    int64_t id_;
};

/** Set every per-layer row except the per-model and trace ones to 0, so
 *  a workload that bypasses a layer still reports it. */
void initPerLayer(Metrics &metrics);

/**
 * Close a traced run: the per-layer self time per client request (over
 * the spans of request work), the tracing overhead as compile_ms_geomean
 * of the traced vs the untraced half, and the span file in the work dir.
 */
void finishTrace(const RunConfig &config, const Tracer &tracer,
                 double tracedCompileMs, double untracedCompileMs,
                 Metrics &metrics, RunResult &result);

// Compile reports ----------------------------------------------------------

/** Sum of one counter over every pass of a report. */
uint64_t counterSum(const gcd2::runtime::PipelineReport &report,
                    std::string_view counter);
/** Seconds of one pass; 0 when it did not run. */
double passSeconds(const gcd2::runtime::PipelineReport &report,
                   std::string_view pass);
size_t errorCount(const gcd2::runtime::PipelineReport &report);

/** Distinct served programs of a model (nodes often share one). */
std::vector<std::shared_ptr<const gcd2::dsp::PackedProgram>>
distinctPrograms(const gcd2::runtime::CompiledModel &model);
/** Static packets over the distinct served schedules: the code size. */
uint64_t codePackets(const gcd2::runtime::CompiledModel &model);

/**
 * Per-compile pass metrics accumulated per model, reported as the sum over
 * models of each model's median (so "ms" reads as "ms per zoo pass").
 */
class PassLedger
{
  public:
    void record(const std::string &model,
                const gcd2::runtime::CompiledModel &compiled,
                double wallMs);
    /** Adds the graph/select/kernels/vliw/dsp/analysis/runtime rows. */
    void report(Metrics &metrics) const;

  private:
    std::map<std::string, std::map<std::string, std::vector<double>>>
        byModel_;
};

// Layer replays (traced runs) ----------------------------------------------

/**
 * Replay vliw::pack, dsp::TimingSimulator::run and analysis::lint over
 * distinct served programs, filling vliw.pack_packets_per_s,
 * dsp.sim_packets_per_s, analysis.lint_ms and analysis.lint_errors.
 * A re-pack that differs from the served schedule, or a simulation that
 * is not repeatable, is a failure.
 */
void replayLayers(
    const std::vector<std::shared_ptr<const gcd2::dsp::PackedProgram>>
        &programs,
    Tracer &tracer, Metrics &metrics, RunResult &result);

// Workloads ----------------------------------------------------------------

RunResult runZoo(const RunConfig &config, bool deep);
RunResult runServeMix(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
