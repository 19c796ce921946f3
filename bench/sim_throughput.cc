/**
 * @file
 * Simulator-throughput benchmark: reference interpreting loop vs. the
 * pre-decoded engine (dsp/decoded.h) on representative zoo kernels.
 *
 * For each kernel the packed program is executed repeatedly through both
 * TimingSimulator::runReference and TimingSimulator::run (decoded), timing
 * only the simulation call, and reporting simulated packets per wall-clock
 * second. Both engines are differentially checked on every repetition --
 * identical TimingStats and output bytes -- so the bench doubles as an
 * end-to-end bit-identity check on real kernels.
 *
 * The cases are small zoo kernels plus the full-depth canonical tiles of
 * each multiply scheme that plan costing re-simulates (k = 576 / 1152).
 *
 * Output: a human-readable table on stdout and a machine-readable JSON
 * file (argv[1], default "BENCH_sim.json") consumed by CI, which compares
 * the decoded/reference speedup against a checked-in baseline
 * (bench/sim_baseline.json).
 */
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "dsp/decoded.h"
#include "dsp/timing_sim.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "kernels/runner.h"
#include "vliw/packer.h"

using namespace gcd2;

namespace {

/** One prepared benchmark case: packed program + laid-out memory image. */
struct BenchCase
{
    std::string name;
    dsp::PackedProgram packed;
    size_t memBytes = 0;
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> segments;
    uint32_t regInput = 0, regWeights = 0, regOutput = 0, regScratch = 0;
    uint64_t outputBase = 0;
    size_t outputBytes = 0;
};

int64_t
alignUp(int64_t v, int64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

/** Lay out kernel buffers exactly like kernels::runKernel. */
BenchCase
makeCase(std::string name, const dsp::Program &prog,
         const kernels::KernelBuffers &buffers,
         const std::vector<uint8_t> &input,
         const std::vector<uint8_t> &weights)
{
    const int64_t base = dsp::kVectorBytes;
    const int64_t inputBase = base;
    const int64_t weightBase =
        alignUp(inputBase + buffers.inputBytes, dsp::kVectorBytes);
    const int64_t outputBase =
        alignUp(weightBase + buffers.weightBytes, dsp::kVectorBytes);
    const int64_t scratchBase =
        alignUp(outputBase + buffers.outputBytes, dsp::kVectorBytes);
    const int64_t total =
        alignUp(scratchBase + buffers.scratchBytes + dsp::kVectorBytes,
                dsp::kVectorBytes);

    BenchCase c;
    c.name = std::move(name);
    c.packed = vliw::pack(prog);
    c.memBytes = static_cast<size_t>(total);
    if (!input.empty())
        c.segments.emplace_back(static_cast<uint64_t>(inputBase), input);
    if (!weights.empty())
        c.segments.emplace_back(static_cast<uint64_t>(weightBase),
                                weights);
    c.regInput = static_cast<uint32_t>(inputBase);
    c.regWeights = static_cast<uint32_t>(weightBase);
    c.regOutput = static_cast<uint32_t>(outputBase);
    c.regScratch = static_cast<uint32_t>(scratchBase);
    c.outputBase = static_cast<uint64_t>(outputBase);
    c.outputBytes = static_cast<size_t>(buffers.outputBytes);
    return c;
}

struct RunOutcome
{
    dsp::TimingStats stats;
    std::vector<uint8_t> output;
};

/** Execute the case once through one engine; returns stats + output. */
RunOutcome
runOnce(const BenchCase &c, bool decoded, double &simSeconds)
{
    dsp::Memory mem(c.memBytes);
    for (const auto &[addr, bytes] : c.segments)
        mem.writeBytes(addr, bytes.data(), bytes.size());

    dsp::TimingSimulator sim(mem);
    sim.regs().scalar[kernels::kRegInput] = c.regInput;
    sim.regs().scalar[kernels::kRegWeights] = c.regWeights;
    sim.regs().scalar[kernels::kRegOutput] = c.regOutput;
    sim.regs().scalar[kernels::kRegScratch] = c.regScratch;

    RunOutcome out;
    const Timer timer;
    out.stats = decoded ? sim.run(c.packed) : sim.runReference(c.packed);
    simSeconds += timer.seconds();

    out.output.resize(c.outputBytes);
    if (c.outputBytes > 0)
        mem.readBytes(c.outputBase, out.output.data(), c.outputBytes);
    return out;
}

struct EngineResult
{
    double packetsPerSec = 0.0;
    uint64_t dynamicPackets = 0;
};

/** Repeat runs until enough wall time accumulates; report packets/sec. */
EngineResult
measure(const BenchCase &c, bool decoded, const RunOutcome &expect)
{
    constexpr double kMinSeconds = 0.25;
    constexpr int kMaxReps = 400;

    double simSeconds = 0.0;
    uint64_t packets = 0;
    int reps = 0;
    while (simSeconds < kMinSeconds && reps < kMaxReps) {
        const RunOutcome out = runOnce(c, decoded, simSeconds);
        packets += out.stats.packetsExecuted;
        ++reps;
        if (out.stats.cycles != expect.stats.cycles ||
            out.stats.packetsExecuted != expect.stats.packetsExecuted ||
            out.stats.stallCycles != expect.stats.stallCycles ||
            out.output != expect.output) {
            std::cerr << "FATAL: engine divergence on " << c.name << "\n";
            std::exit(1);
        }
    }

    EngineResult r;
    r.dynamicPackets = expect.stats.packetsExecuted;
    r.packetsPerSec = static_cast<double>(packets) / simSeconds;
    return r;
}

std::vector<BenchCase>
buildZoo()
{
    Rng rng(0xbe9c5ee1ULL);
    std::vector<BenchCase> zoo;

    struct MatCase
    {
        const char *name;
        kernels::MatMulScheme scheme;
        kernels::MatMulShape shape;
    };
    const MatCase mats[] = {
        {"matmul_vmpy_128x64x8",
         kernels::MatMulScheme::Vmpy, {128, 64, 8}},
        {"matmul_vmpa_128x128x8",
         kernels::MatMulScheme::Vmpa, {128, 128, 8}},
        {"matmul_vrmpy_128x128x16",
         kernels::MatMulScheme::Vrmpy, {128, 128, 16}},
        // Canonical cost tiles at full reduction depth, as the plan
        // costing and the deep audit simulate them: one row panel x one
        // column tile of each scheme's layout, unroll factor 1.
        {"tile_vmpy_128x576x1", kernels::MatMulScheme::Vmpy, {128, 576, 1}},
        {"tile_vmpy_128x1152x1",
         kernels::MatMulScheme::Vmpy, {128, 1152, 1}},
        {"tile_vmpa_64x576x2", kernels::MatMulScheme::Vmpa, {64, 576, 2}},
        {"tile_vrmpy_32x1152x4",
         kernels::MatMulScheme::Vrmpy, {32, 1152, 4}},
    };
    for (const MatCase &m : mats) {
        kernels::MatMulConfig config;
        config.scheme = m.scheme;
        const kernels::MatMulKernel kernel(m.shape, config);
        const auto a = rng.uint8Vector(
            static_cast<size_t>(m.shape.m * m.shape.k));
        const auto w =
            rng.int8Vector(static_cast<size_t>(m.shape.k * m.shape.n));
        zoo.push_back(makeCase(m.name, kernel.program(), kernel.buffers(),
                               kernel.packInput(a.data()),
                               kernel.packWeights(w.data())));
    }

    {
        kernels::EwConfig config;
        config.op = kernels::EwOp::Add;
        config.length = 8192;
        const kernels::ElementwiseKernel kernel(config);
        const auto a = rng.uint8Vector(8192);
        const auto b = rng.uint8Vector(8192);
        zoo.push_back(makeCase("elementwise_add_8192", kernel.program(),
                               kernel.buffers(), kernel.packInput(a.data()),
                               kernel.packSecond(b.data())));
    }
    {
        kernels::EwConfig config;
        config.op = kernels::EwOp::Lut;
        config.length = 8192;
        config.table.resize(256);
        for (int i = 0; i < 256; ++i) // quantized squash nonlinearity
            config.table[static_cast<size_t>(i)] = static_cast<uint8_t>(
                255.0 / (1.0 + std::exp(-(i - 128) / 16.0)));
        const kernels::ElementwiseKernel kernel(config);
        const auto a = rng.uint8Vector(8192);
        zoo.push_back(makeCase("elementwise_lut_8192", kernel.program(),
                               kernel.buffers(), kernel.packInput(a.data()),
                               kernel.packSecond(nullptr)));
    }
    return zoo;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath = argc > 1 ? argv[1] : "BENCH_sim.json";

    std::cout << "Simulator throughput: reference interpreter vs. "
                 "pre-decoded engine\n\n";

    const std::vector<BenchCase> zoo = buildZoo();

    Table table({"Kernel", "dyn packets", "ref pkts/s", "decoded pkts/s",
                 "speedup"});
    std::vector<double> speedups;
    std::ostringstream json;
    json << "{\n  \"bench\": \"sim_throughput\",\n  \"kernels\": [\n";

    for (size_t i = 0; i < zoo.size(); ++i) {
        const BenchCase &c = zoo[i];
        // One warmup per engine: populates the decode cache and faults in
        // the memory image so timing covers steady state.
        double warmSeconds = 0.0;
        const RunOutcome expect = runOnce(c, false, warmSeconds);
        (void)runOnce(c, true, warmSeconds);

        const EngineResult ref = measure(c, false, expect);
        const EngineResult dec = measure(c, true, expect);
        const double speedup = dec.packetsPerSec / ref.packetsPerSec;
        speedups.push_back(speedup);

        table.addRow({c.name, std::to_string(ref.dynamicPackets),
                      fmtDouble(ref.packetsPerSec / 1e6, 2) + "M",
                      fmtDouble(dec.packetsPerSec / 1e6, 2) + "M",
                      fmtSpeedup(speedup)});

        json << "    {\"name\": \"" << c.name << "\", "
             << "\"dynamic_packets\": " << ref.dynamicPackets << ", "
             << "\"reference_packets_per_sec\": " << ref.packetsPerSec
             << ", "
             << "\"decoded_packets_per_sec\": " << dec.packetsPerSec
             << ", "
             << "\"speedup\": " << speedup << "}"
             << (i + 1 < zoo.size() ? "," : "") << "\n";
    }

    const double geomean = geometricMean(speedups);
    json << "  ],\n  \"geomean_speedup\": " << geomean << "\n}\n";

    table.print(std::cout);
    std::cout << "\nGeomean speedup (decoded over reference): "
              << fmtSpeedup(geomean) << "\n";

    // Managed cache tier bound: every decoded run above went through the
    // process-wide DecodeCache; check the LRU capacity held.
    const dsp::DecodeCache &decodeCache = dsp::DecodeCache::global();
    if (decodeCache.size() > decodeCache.capacity()) {
        std::cerr << "FATAL: DecodeCache exceeded capacity ("
                  << decodeCache.size() << " > " << decodeCache.capacity()
                  << ")\n";
        return 1;
    }

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
