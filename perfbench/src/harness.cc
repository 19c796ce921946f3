#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <sys/resource.h>

#include "analysis/lint.h"
#include "dsp/memory.h"
#include "dsp/timing_sim.h"
#include "vliw/packer.h"

namespace perfbench {

using gcd2::runtime::CompiledModel;
using gcd2::runtime::PipelineReport;

// Metrics ------------------------------------------------------------------

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &entry : entries_)
        if (entry.first == name) {
            entry.second = {value, unit};
            return;
        }
    entries_.emplace_back(name, std::make_pair(value, unit));
}

std::string
Metrics::json() const
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto &[name, entry] : entries_) {
        char value[64];
        // %.17g keeps every digit the measurement has.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(entry.first) ? entry.first : 0.0);
        out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << value << ", \"unit\": \"" << entry.second << "\"}";
        first = false;
    }
    out << "}";
    return out.str();
}

void
RunResult::fail(std::string what)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(std::move(what));
}

// Order statistics ---------------------------------------------------------

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (rank - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(std::max(v, 1e-12));
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
nowUs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

uint64_t
mixDigest(uint64_t digest, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xffu;
        digest *= 0x100000001b3ull;
    }
    return digest;
}

uint64_t
digestBytes(const std::vector<uint8_t> &bytes)
{
    uint64_t digest = 0xcbf29ce484222325ull;
    for (uint8_t byte : bytes) {
        digest ^= byte;
        digest *= 0x100000001b3ull;
    }
    return digest;
}

std::string
metricName(std::string_view name)
{
    std::string out;
    for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                       c == '_' || c == '.'
                   ? c
                   : '_';
    return out;
}

// Tracing ------------------------------------------------------------------

int64_t
Tracer::open(std::string name, int64_t parent, int64_t request)
{
    if (!enabled_)
        return -1;
    const double start = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::close(int64_t id)
{
    if (id < 0)
        return;
    const double end = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].endUs = end;
}

int64_t
Tracer::add(std::string name, double startUs, double endUs, int64_t parent,
            int64_t request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), startUs, endUs, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::addPassSpans(const PipelineReport &report, double startUs,
                     int64_t parent, int64_t request)
{
    static const std::map<std::string, std::string> kLayerOfPass = {
        {"graph-optimize", "graph.optimize"},
        {"plan-table", "select.plan_table"},
        {"selection", "select.selection"},
        {"kernel-generation", "kernels.generation"},
        {"cycle-accounting", "runtime.cycle_accounting"},
        {"audit", "analysis.audit"},
    };
    double at = startUs;
    for (const auto &pass : report.passes) {
        const auto it = kLayerOfPass.find(pass.name);
        const double end = at + pass.seconds * 1e6;
        add(it != kLayerOfPass.end() ? it->second : "runtime." + pass.name,
            at, end, parent, request);
        at = end;
    }
}

std::map<std::string, double>
Tracer::selfMsPerRequest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &span : spans_)
        if (span.parent >= 0)
            children[static_cast<size_t>(span.parent)].emplace_back(
                span.startUs, span.endUs);

    std::map<std::string, double> self;
    std::set<int64_t> requests;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        if (span.request < 0)
            continue;
        requests.insert(span.request);
        // Union of the children's intervals, clipped to the span.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = span.startUs;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.endUs);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        const std::string layer = span.name.substr(0, span.name.find('.'));
        self[layer] += std::max(span.endUs - span.startUs - covered, 0.0) /
                       1e3;
    }
    for (auto &[layer, ms] : self)
        ms /= static_cast<double>(requests.size());
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_us\": " << s.startUs
            << ", \"end_us\": " << s.endUs << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.flush();
    return static_cast<bool>(out);
}

void
initPerLayer(Metrics &metrics)
{
    static const std::vector<std::pair<const char *, const char *>> kRows =
        {
            {"models.build_ms", "ms"},
            {"graph.optimize_ms", "ms"},
            {"graph.transforms_eliminated", "count"},
            {"select.plan_table_ms", "ms"},
            {"select.candidate_plans", "count"},
            {"select.plans_simulated", "count"},
            {"select.plans_derived", "count"},
            {"select.plans_pruned", "count"},
            {"select.plans_shared", "count"},
            {"select.simulated_ratio", "ratio"},
            {"select.cost_cache_hit_ratio", "ratio"},
            {"select.selection_ms", "ms"},
            {"select.evaluations", "count"},
            {"select.truncated", "count"},
            {"kernels.kernel_generation_ms", "ms"},
            {"kernels.dce_removed_insts", "count"},
            {"vliw.pack_ms", "ms"},
            {"vliw.pack_hit_ratio", "ratio"},
            {"vliw.pack_packets_per_s", "1/s"},
            {"dsp.decode_hit_ratio", "ratio"},
            {"dsp.sim_packets_per_s", "1/s"},
            {"analysis.audit_ms", "ms"},
            {"analysis.lint_ms", "ms"},
            {"analysis.schedules_audited", "count"},
            {"analysis.lint_errors", "count"},
            {"runtime.compile_ms", "ms"},
            {"runtime.unattributed_ms", "ms"},
            {"service.submit_us", "us"},
            {"service.fingerprint_us", "us"},
            {"service.model_cache_hit_ratio", "ratio"},
            {"service.coalesced_share", "ratio"},
            {"service.rejected", "count"},
            {"service.compiles", "count"},
            {"service.artifact_load_hits", "count"},
            {"service.artifact_saves", "count"},
            {"service.artifact_evictions", "count"},
            {"service.warm_start_ms_p50", "ms"},
            {"client.late_ms_p99", "ms"},
        };
    for (const auto &[name, unit] : kRows)
        metrics.set(name, 0.0, unit);
}

void
finishTrace(const RunConfig &config, const Tracer &tracer,
            double tracedCompileMs, double untracedCompileMs,
            Metrics &metrics, RunResult &result)
{
    static const std::vector<std::string> kLayers = {
        "models", "graph",   "select",  "kernels", "vliw",
        "dsp",    "analysis", "runtime", "service", "client"};
    const auto self = tracer.selfMsPerRequest();
    for (const std::string &layer : kLayers) {
        const auto it = self.find(layer);
        metrics.set(layer + ".self_ms", it == self.end() ? 0.0 : it->second,
                    "ms");
    }
    metrics.set("trace.compile_ms_geomean_traced", tracedCompileMs, "ms");
    metrics.set("trace.compile_ms_geomean_untraced", untracedCompileMs,
                "ms");
    metrics.set("trace.overhead_ratio",
                ratio(tracedCompileMs, untracedCompileMs), "ratio");
    if (!tracer.write(config.workDir + "/trace-" + config.workload + "-" +
                      std::to_string(config.seed) + ".json"))
        result.fail("could not write the span file");
}

// Compile reports ----------------------------------------------------------

uint64_t
counterSum(const PipelineReport &report, std::string_view counter)
{
    uint64_t sum = 0;
    for (const auto &pass : report.passes)
        sum += pass.counter(counter);
    return sum;
}

double
passSeconds(const PipelineReport &report, std::string_view pass)
{
    const auto *found = report.pass(pass);
    return found == nullptr ? 0.0 : found->seconds;
}

size_t
errorCount(const PipelineReport &report)
{
    return report.diagnosticCount(gcd2::common::DiagSeverity::Error);
}

std::vector<std::shared_ptr<const gcd2::dsp::PackedProgram>>
distinctPrograms(const CompiledModel &model)
{
    std::vector<std::shared_ptr<const gcd2::dsp::PackedProgram>> out;
    std::set<const gcd2::dsp::PackedProgram *> seen;
    for (const auto &sched : model.schedules)
        if (sched.program != nullptr && seen.insert(sched.program.get()).second)
            out.push_back(sched.program);
    return out;
}

uint64_t
codePackets(const CompiledModel &model)
{
    uint64_t packets = 0;
    for (const auto &program : distinctPrograms(model))
        packets += program->packets.size();
    return packets;
}

void
PassLedger::record(const std::string &model, const CompiledModel &compiled,
                   double wallMs)
{
    const PipelineReport &r = compiled.report;
    const auto counter = [&r](std::string_view pass, std::string_view key) {
        const auto *found = r.pass(pass);
        return found == nullptr ? 0.0
                                : static_cast<double>(found->counter(key));
    };
    double passMs = 0.0;
    for (const auto &pass : r.passes)
        passMs += pass.seconds * 1e3;

    auto &f = byModel_[model];
    f["graph.optimize_ms"].push_back(passSeconds(r, "graph-optimize") * 1e3);
    f["graph.transforms_eliminated"].push_back(
        counter("graph-optimize", "transform-eliminated"));
    f["select.plan_table_ms"].push_back(passSeconds(r, "plan-table") * 1e3);
    f["select.candidate_plans"].push_back(
        counter("plan-table", "candidate-plans"));
    f["select.plans_simulated"].push_back(
        counter("plan-table", "plans-simulated"));
    f["select.plans_derived"].push_back(counter("plan-table", "plans-derived"));
    f["select.plans_pruned"].push_back(counter("plan-table", "plans-pruned"));
    f["select.plans_shared"].push_back(counter("plan-table", "plans-shared"));
    f["cost_hits"].push_back(counter("plan-table", "cache-hits"));
    f["cost_sims"].push_back(counter("plan-table", "kernel-sims"));
    f["select.selection_ms"].push_back(passSeconds(r, "selection") * 1e3);
    f["select.evaluations"].push_back(counter("selection", "evaluations"));
    f["select.truncated"].push_back(counter("selection", "truncated"));
    f["kernels.kernel_generation_ms"].push_back(
        passSeconds(r, "kernel-generation") * 1e3);
    f["kernels.dce_removed_insts"].push_back(
        counter("kernel-generation", "dce-removed-insts"));
    f["vliw.pack_ms"].push_back(
        static_cast<double>(counterSum(r, "pack-us")) / 1e3);
    f["pack_hits"].push_back(static_cast<double>(counterSum(r, "pack-hits")));
    f["pack_misses"].push_back(
        static_cast<double>(counterSum(r, "pack-misses")));
    f["decode_hits"].push_back(
        static_cast<double>(counterSum(r, "decode-hits")));
    f["decode_misses"].push_back(
        static_cast<double>(counterSum(r, "decode-misses")));
    f["analysis.audit_ms"].push_back(passSeconds(r, "audit") * 1e3);
    f["analysis.schedules_audited"].push_back(
        counter("audit", "schedules-audited"));
    f["runtime.compile_ms"].push_back(wallMs);
    f["runtime.unattributed_ms"].push_back(std::max(wallMs - passMs, 0.0));
}

void
PassLedger::report(Metrics &metrics) const
{
    std::map<std::string, double> sum;
    for (const auto &[model, fields] : byModel_)
        for (const auto &[field, values] : fields)
            sum[field] += median(values);

    static const std::vector<std::pair<std::string, std::string>> kRows = {
        {"graph.optimize_ms", "ms"},
        {"graph.transforms_eliminated", "count"},
        {"select.plan_table_ms", "ms"},
        {"select.candidate_plans", "count"},
        {"select.plans_simulated", "count"},
        {"select.plans_derived", "count"},
        {"select.plans_pruned", "count"},
        {"select.plans_shared", "count"},
        {"select.selection_ms", "ms"},
        {"select.evaluations", "count"},
        {"select.truncated", "count"},
        {"kernels.kernel_generation_ms", "ms"},
        {"kernels.dce_removed_insts", "count"},
        {"vliw.pack_ms", "ms"},
        {"analysis.audit_ms", "ms"},
        {"analysis.schedules_audited", "count"},
        {"runtime.compile_ms", "ms"},
        {"runtime.unattributed_ms", "ms"},
    };
    for (const auto &[name, unit] : kRows)
        metrics.set(name, sum[name], unit);
    metrics.set("select.simulated_ratio",
                ratio(sum["select.plans_simulated"],
                      sum["select.candidate_plans"]),
                "ratio");
    metrics.set("select.cost_cache_hit_ratio",
                ratio(sum["cost_hits"], sum["cost_hits"] + sum["cost_sims"]),
                "ratio");
    metrics.set("vliw.pack_hit_ratio",
                ratio(sum["pack_hits"], sum["pack_hits"] + sum["pack_misses"]),
                "ratio");
    metrics.set("dsp.decode_hit_ratio",
                ratio(sum["decode_hits"],
                      sum["decode_hits"] + sum["decode_misses"]),
                "ratio");
}

// Layer replays ------------------------------------------------------------

namespace {

constexpr double kReplaySeconds = 0.25;
/** Buffer size assumed for a noalias base whose extent is undeclared. */
constexpr int64_t kUnknownExtent = 1 << 20;

/**
 * Run one served schedule on a fresh memory image: every noalias base
 * gets its declared extent, 128-byte aligned with a guard vector between
 * buffers, the same layout the kernel runner uses.
 */
gcd2::dsp::TimingStats
simulate(const gcd2::dsp::PackedProgram &packed)
{
    const gcd2::dsp::Program &prog = packed.program;
    const int64_t align = gcd2::dsp::kVectorBytes;
    std::vector<int64_t> bases;
    int64_t at = align;
    for (size_t i = 0; i < prog.noaliasRegs.size(); ++i) {
        const int64_t extent = i < prog.noaliasExtents.size() &&
                                       prog.noaliasExtents[i] > 0
                                   ? prog.noaliasExtents[i]
                                   : kUnknownExtent;
        bases.push_back(at);
        at = (at + extent + align + align - 1) / align * align;
    }
    gcd2::dsp::Memory mem(static_cast<size_t>(at + align));
    gcd2::dsp::TimingSimulator sim(mem);
    for (size_t i = 0; i < bases.size(); ++i)
        sim.regs().scalar[static_cast<size_t>(prog.noaliasRegs[i])] =
            static_cast<uint32_t>(bases[i]);
    return sim.run(packed);
}

} // namespace

void
replayLayers(
    const std::vector<std::shared_ptr<const gcd2::dsp::PackedProgram>>
        &programs,
    Tracer &tracer, Metrics &metrics, RunResult &result)
{
    // vliw: re-pack each served program; the schedule must come back
    // identical (packing is a pure function of the program).
    double packSeconds = 0.0;
    uint64_t packedPackets = 0;
    for (int round = 0; round == 0 || packSeconds < kReplaySeconds; ++round)
        for (const auto &program : programs) {
            const double start = nowUs();
            const gcd2::dsp::PackedProgram again =
                gcd2::vliw::pack(program->program);
            const double end = nowUs();
            tracer.add("vliw.pack", start, end, -1, -1);
            packSeconds += (end - start) / 1e6;
            packedPackets += again.packets.size();
            ++result.attempted;
            bool same = again.packets.size() == program->packets.size();
            for (size_t i = 0; same && i < again.packets.size(); ++i)
                same = again.packets[i].insts == program->packets[i].insts;
            if (!same)
                result.fail("vliw::pack replay differs from the served "
                            "schedule");
        }

    // dsp: simulate each served schedule; repeated runs must agree.
    double simSeconds = 0.0;
    uint64_t simPackets = 0;
    std::vector<uint64_t> cycles(programs.size(), 0);
    for (int round = 0; round == 0 || simSeconds < kReplaySeconds; ++round)
        for (size_t i = 0; i < programs.size(); ++i) {
            ++result.attempted;
            try {
                const double start = nowUs();
                const gcd2::dsp::TimingStats stats = simulate(*programs[i]);
                const double end = nowUs();
                tracer.add("dsp.simulate", start, end, -1, -1);
                simSeconds += (end - start) / 1e6;
                simPackets += stats.packetsExecuted;
                if (round == 0)
                    cycles[i] = stats.cycles;
                else if (cycles[i] != stats.cycles)
                    result.fail("TimingSimulator::run is not repeatable");
            } catch (const std::exception &e) {
                result.fail(std::string("TimingSimulator::run threw: ") +
                            e.what());
            }
        }

    // analysis: whole-program lint with every analyzer enabled.
    double lintSeconds = 0.0;
    uint64_t lintErrors = 0;
    for (const auto &program : programs) {
        const double start = nowUs();
        const gcd2::analysis::LintResult lint =
            gcd2::analysis::lintPackedProgram(*program);
        const double end = nowUs();
        tracer.add("analysis.lint", start, end, -1, -1);
        lintSeconds += (end - start) / 1e6;
        lintErrors += lint.counts.errors;
        ++result.attempted;
        if (lint.counts.errors > 0)
            result.fail("lintPackedProgram found Error findings");
    }

    metrics.set("vliw.pack_packets_per_s",
                ratio(static_cast<double>(packedPackets), packSeconds), "1/s");
    metrics.set("dsp.sim_packets_per_s",
                ratio(static_cast<double>(simPackets), simSeconds), "1/s");
    metrics.set("analysis.lint_ms", lintSeconds * 1e3, "ms");
    metrics.set("analysis.lint_errors", static_cast<double>(lintErrors),
                "count");
}

} // namespace perfbench
