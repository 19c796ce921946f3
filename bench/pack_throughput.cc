/**
 * @file
 * Packer-throughput benchmark: reference SDA packer (vliw::packReference,
 * all-pairs IDG + full rescans) vs. the scalable engine (vliw::pack,
 * FastIdg chain construction + incremental critical path).
 *
 * Two groups of cases:
 *
 *  - large blocks: each case is a single basic block of at least 512
 *    instructions, the regime FastIdg's chain construction and
 *    incremental critical path exist for. CI gates their fast/reference
 *    speedup;
 *  - zoo blocks: the matmul tile kernels the tiered coster packs, at its
 *    low anchor depth, for every unroll choice the adaptive strategy
 *    makes on a grid of layer shapes. These are the programs a zoo
 *    compile packs: loop bodies of ~10-140 instructions, where the repair
 *    pass and the slot checks dominate. CI gates their fast/reference
 *    speedup too.
 *
 * The two packers are interleaved within every repetition (one reference
 * pack, then as many fast packs as take about as long), so a speedup is
 * a ratio of rates measured over the same stretch of wall time and the
 * host's speed drift cancels. The reference packer is the fixed yardstick
 * of that ratio. Every output of every repetition is bit-compared --
 * identical packets, identical label mapping -- so the bench doubles as
 * an end-to-end identity check at sizes the unit fuzzers do not reach.
 *
 * Output: a human-readable table on stdout and a machine-readable JSON
 * file (argv[1], default "BENCH_pack.json") consumed by CI, which
 * compares the large-block and zoo-block speedup geomeans against a
 * checked-in baseline (bench/pack_baseline.json).
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "kernels/matmul.h"
#include "kernels/unroll.h"
#include "tensor/layout.h"
#include "vliw/cfg.h"
#include "vliw/pack_cache.h"
#include "vliw/packer.h"

using namespace gcd2;

namespace {

/**
 * A straightline block mixing scalar ALU chains, multiplies (forwarding
 * penalty 2), vector traffic (hard RAW edges), and loads/stores off one
 * base register -- enough register pressure that def-use chains stay
 * short and the IDG is dense with soft edges, which is the worst case
 * for the packet-construction inner loop.
 */
dsp::Program
straightlineBlock(Rng &rng, size_t instructions)
{
    using namespace gcd2::dsp;
    Program prog;
    prog.push(makeMovi(sreg(0), 512));
    auto s = [&rng] {
        return sreg(static_cast<int>(rng.uniformInt(1, 12)));
    };
    auto v = [&rng] {
        return vreg(static_cast<int>(rng.uniformInt(0, 15)));
    };
    while (prog.code.size() < instructions) {
        switch (rng.uniformInt(0, 9)) {
          case 0:
          case 1:
            prog.push(makeBinary(Opcode::ADD, s(), s(), s()));
            break;
          case 2:
            prog.push(makeBinary(Opcode::MUL, s(), s(), s()));
            break;
          case 3:
            prog.push(makeLoad(Opcode::LOADW, s(), sreg(0),
                               rng.uniformInt(0, 255) * 4));
            break;
          case 4:
            prog.push(makeStore(Opcode::STOREW, sreg(0), s(),
                                rng.uniformInt(0, 255) * 4));
            break;
          case 5:
            prog.push(makeVload(v(), sreg(0), rng.uniformInt(0, 7) * 128));
            break;
          case 6:
            prog.push(makeVecBinary(Opcode::VADDW, v(), v(), v()));
            break;
          case 7:
            prog.push(makeShift(Opcode::SHL, s(), s(),
                                rng.uniformInt(0, 7)));
            break;
          case 8:
            prog.push(makeVsplatw(v(), s()));
            break;
          default:
            prog.push(makeAddi(s(), s(), rng.uniformInt(-16, 16)));
            break;
        }
    }
    prog.noaliasRegs = {0};
    return prog;
}

/** Programs packed back to back in every repetition. */
struct BenchCase
{
    std::string name;
    std::vector<dsp::Program> progs;
    vliw::PackOptions opts;

    size_t
    instructions() const
    {
        size_t total = 0;
        for (const dsp::Program &prog : progs)
            total += prog.code.size();
        return total;
    }

    size_t
    largestBlock() const
    {
        size_t largest = 0;
        for (const dsp::Program &prog : progs)
            for (const vliw::BasicBlock &block : vliw::buildCfg(prog).blocks)
                largest = std::max(largest, block.size());
        return largest;
    }
};

bool
samePacking(const dsp::PackedProgram &a, const dsp::PackedProgram &b)
{
    if (a.packets.size() != b.packets.size() ||
        a.labelPacket != b.labelPacket)
        return false;
    for (size_t p = 0; p < a.packets.size(); ++p)
        if (a.packets[p].insts != b.packets[p].insts)
            return false;
    return true;
}

struct PairResult
{
    double refPacketsPerSec = 0.0;
    double fastPacketsPerSec = 0.0;
};

/**
 * Measure both packers interleaved: every repetition packs each program
 * once with the reference packer and @p fastPerRef times with the fast
 * one, so both rates come from the same stretch of wall time and the
 * host's speed drift cancels in their ratio. Repetitions continue until
 * both engines have accumulated enough time. Every output is
 * bit-compared against @p expect (the reference packings).
 */
PairResult
measurePair(const BenchCase &c, const std::vector<dsp::PackedProgram> &expect,
            int fastPerRef)
{
    constexpr double kMinSeconds = 0.2;
    constexpr int kMaxReps = 50;

    double refSeconds = 0.0;
    double fastSeconds = 0.0;
    uint64_t refPackets = 0;
    uint64_t fastPackets = 0;
    const auto run = [&](bool fast, size_t i, double &seconds,
                         uint64_t &packets) {
        const Timer timer;
        const dsp::PackedProgram packed =
            fast ? vliw::pack(c.progs[i], c.opts)
                 : vliw::packReference(c.progs[i], c.opts);
        seconds += timer.seconds();
        packets += packed.packets.size();
        if (!samePacking(packed, expect[i])) {
            std::cerr << "FATAL: packer divergence on " << c.name
                      << " program " << i << "\n";
            std::exit(1);
        }
    };
    for (int reps = 0; (refSeconds < kMinSeconds || fastSeconds < kMinSeconds)
                       && reps < kMaxReps;
         ++reps) {
        for (size_t i = 0; i < c.progs.size(); ++i) {
            run(false, i, refSeconds, refPackets);
            for (int k = 0; k < fastPerRef; ++k)
                run(true, i, fastSeconds, fastPackets);
        }
    }
    return {static_cast<double>(refPackets) / refSeconds,
            static_cast<double>(fastPackets) / fastSeconds};
}

std::vector<BenchCase>
buildCases()
{
    Rng rng(0x9ac4be9cULL);
    std::vector<BenchCase> cases;
    const auto add = [&](const char *name, size_t instructions,
                         vliw::PackPolicy policy) {
        BenchCase c;
        c.name = name;
        c.progs.push_back(straightlineBlock(rng, instructions));
        c.opts.policy = policy;
        cases.push_back(std::move(c));
    };
    add("sda_512", 512, vliw::PackPolicy::Sda);
    add("sda_768", 768, vliw::PackPolicy::Sda);
    add("sda_1024", 1024, vliw::PackPolicy::Sda);
    add("softtohard_1024", 1024, vliw::PackPolicy::SoftToHard);
    add("listsched_1024", 1024, vliw::PackPolicy::ListSched);
    add("inorder_1024", 1024, vliw::PackPolicy::InOrder);
    return cases;
}

/**
 * One case per matmul scheme: its tile kernel at the tiered coster's low
 * anchor (8 inner-loop iterations) for every unroll choice the default
 * (adaptive) strategy makes on a grid of layer shapes, with the cost
 * model's tile geometry (one layout panel of rows and one output unit of
 * columns per unroll step).
 */
std::vector<BenchCase>
buildZooCases()
{
    using kernels::MatMulScheme;
    std::vector<BenchCase> cases;
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy}) {
        const int64_t panelRows =
            tensor::layoutPanelRows(kernels::schemeLayout(scheme));
        const int64_t colsPerUnit = scheme == MatMulScheme::Vmpy   ? 1
                                    : scheme == MatMulScheme::Vmpa ? 2
                                                                   : 4;
        BenchCase c;
        c.name = std::string("zoo_") + kernels::schemeName(scheme);
        std::vector<std::array<int, 3>> seen;
        for (const int64_t m : {4, 16, 64, 256, 1024}) {
            for (const int64_t n : {4, 16, 64, 256, 1024}) {
                const kernels::UnrollChoice choice =
                    kernels::adaptiveUnroll({m, 1024, n}, scheme);
                const std::array<int, 3> key{choice.outer, choice.cols,
                                             choice.k};
                if (std::find(seen.begin(), seen.end(), key) != seen.end())
                    continue;
                seen.push_back(key);
                const kernels::MatMulShape tile{
                    panelRows * choice.outer,
                    kernels::kQuantum(scheme, choice.k) * 8,
                    colsPerUnit * choice.cols};
                c.progs.push_back(
                    kernels::MatMulKernel(
                        tile, kernels::withUnroll({.scheme = scheme}, choice))
                        .program());
            }
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

struct CaseResult
{
    double fastPacketsPerSec = 0.0;
    double speedup = 0.0; ///< fast over reference packets/s
};

/** Measure both packers on @p c and emit its table row and JSON object. */
CaseResult
runCase(const BenchCase &c, Table &table, std::ostream &json, bool last)
{
    // The reference packing is the expected output for both engines. One
    // timed pass of each engine sets how many fast packs balance one
    // reference pack in the interleaved repetitions.
    std::vector<dsp::PackedProgram> expect;
    const Timer refTimer;
    for (const dsp::Program &prog : c.progs)
        expect.push_back(vliw::packReference(prog, c.opts));
    const double refOnce = refTimer.seconds();
    const Timer fastTimer;
    for (const dsp::Program &prog : c.progs)
        (void)vliw::pack(prog, c.opts);
    const double fastOnce = fastTimer.seconds();
    const int fastPerRef = static_cast<int>(
        std::clamp(std::round(refOnce / fastOnce), 1.0, 64.0));

    size_t staticPackets = 0;
    for (const dsp::PackedProgram &packed : expect)
        staticPackets += packed.packets.size();

    const PairResult rates = measurePair(c, expect, fastPerRef);
    const double speedup = rates.fastPacketsPerSec / rates.refPacketsPerSec;

    table.addRow({c.name, std::to_string(c.progs.size()),
                  std::to_string(c.instructions()),
                  std::to_string(c.largestBlock()),
                  std::to_string(staticPackets),
                  fmtDouble(rates.refPacketsPerSec, 0),
                  fmtDouble(rates.fastPacketsPerSec, 0),
                  fmtSpeedup(speedup)});

    json << "    {\"name\": \"" << c.name << "\", "
         << "\"programs\": " << c.progs.size() << ", "
         << "\"instructions\": " << c.instructions() << ", "
         << "\"largest_block\": " << c.largestBlock() << ", "
         << "\"static_packets\": " << staticPackets << ", "
         << "\"reference_packets_per_sec\": " << rates.refPacketsPerSec
         << ", "
         << "\"fast_packets_per_sec\": " << rates.fastPacketsPerSec << ", "
         << "\"speedup\": " << speedup << "}" << (last ? "" : ",")
         << "\n";
    return {rates.fastPacketsPerSec, speedup};
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath = argc > 1 ? argv[1] : "BENCH_pack.json";

    std::cout << "Packer throughput: reference (all-pairs IDG) vs. "
                 "scalable engine (FastIdg)\n\n";

    const std::vector<BenchCase> cases = buildCases();
    const std::vector<BenchCase> zooCases = buildZooCases();

    Table table({"Case", "progs", "insts", "max block", "packets",
                 "ref pkts/s", "fast pkts/s", "speedup"});
    std::vector<double> speedups;
    std::vector<double> zooFastRates;
    std::vector<double> zooSpeedups;
    std::ostringstream json;
    json << "{\n  \"bench\": \"pack_throughput\",\n  \"kernels\": [\n";
    for (size_t i = 0; i < cases.size(); ++i)
        speedups.push_back(
            runCase(cases[i], table, json, i + 1 == cases.size()).speedup);
    const double geomean = geometricMean(speedups);
    json << "  ],\n  \"geomean_speedup\": " << geomean << ",\n"
         << "  \"zoo_blocks\": [\n";
    for (size_t i = 0; i < zooCases.size(); ++i) {
        const CaseResult r =
            runCase(zooCases[i], table, json, i + 1 == zooCases.size());
        zooFastRates.push_back(r.fastPacketsPerSec);
        zooSpeedups.push_back(r.speedup);
    }
    const double zooFast = geometricMean(zooFastRates);
    const double zooSpeedup = geometricMean(zooSpeedups);
    json << "  ],\n  \"zoo_blocks_fast_packets_per_sec\": " << zooFast
         << ",\n  \"zoo_geomean_speedup\": " << zooSpeedup << "\n}\n";

    table.print(std::cout);
    std::cout << "\nGeomean speedup on large blocks (fast over reference): "
              << fmtSpeedup(geomean) << "\n"
              << "Zoo blocks, fast packer (geomean over schemes): "
              << fmtDouble(zooFast, 0) << " packets/s, "
              << fmtSpeedup(zooSpeedup) << " the reference\n";

    // Managed cache tier bound: route every bench program through the
    // process-wide PackCache and check the LRU capacity held.
    vliw::PackCache &packCache = vliw::PackCache::global();
    for (const BenchCase &c : cases)
        for (const dsp::Program &prog : c.progs)
            (void)packCache.lookupOrPack(prog, c.opts);
    if (packCache.size() > packCache.capacity()) {
        std::cerr << "FATAL: PackCache exceeded capacity ("
                  << packCache.size() << " > " << packCache.capacity()
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
