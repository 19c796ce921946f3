#include "kernels/runner.h"

#include "analysis/lint.h"
#include "common/logging.h"
#include "dsp/verify.h"
#include "vliw/pack_cache.h"

namespace gcd2::kernels {

namespace {

int64_t
alignUp(int64_t v, int64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

} // namespace

void
requireValidKernel(const dsp::Program &prog)
{
    dsp::requireVerified(prog);
    static const std::vector<int8_t> abi = {kRegInput, kRegWeights,
                                            kRegOutput, kRegScratch};
    analysis::LintOptions options;
    options.entryDefinedRegs = &abi;
    std::vector<common::Diag> findings;
    analysis::analyzeUseBeforeDef(analysis::buildBlockGraph(prog), options,
                                  findings);
    std::string report;
    for (const common::Diag &diag : findings)
        if (diag.severity == common::DiagSeverity::Error)
            report.append("\n  ").append(diag.toString());
    if (!report.empty())
        GCD2_PANIC("kernel reads never-written registers:" << report);
}

KernelRunResult
runKernel(const dsp::Program &prog, const KernelBuffers &buffers,
          const std::vector<uint8_t> &input,
          const std::vector<uint8_t> &weights,
          const vliw::PackOptions &packOpts, bool validate)
{
    if (validate)
        requireValidKernel(prog);
    return runPackedKernel(
        vliw::PackCache::global().lookupOrPack(prog, packOpts), buffers,
        input, weights, validate);
}

KernelRunResult
runPackedKernel(std::shared_ptr<const dsp::PackedProgram> packed,
                const KernelBuffers &buffers,
                const std::vector<uint8_t> &input,
                const std::vector<uint8_t> &weights, bool validate)
{
    // Segment layout: | guard | input | weights | output | scratch |.
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

    dsp::Memory mem(static_cast<size_t>(total));
    GCD2_REQUIRE(static_cast<int64_t>(input.size()) <= buffers.inputBytes,
                 "input larger than declared buffer");
    GCD2_REQUIRE(static_cast<int64_t>(weights.size()) <=
                     buffers.weightBytes,
                 "weights larger than declared buffer");
    if (!input.empty())
        mem.writeBytes(static_cast<uint64_t>(inputBase), input.data(),
                       input.size());
    if (!weights.empty())
        mem.writeBytes(static_cast<uint64_t>(weightBase), weights.data(),
                       weights.size());

    dsp::TimingSimulator sim(mem);
    sim.regs().scalar[kRegInput] = static_cast<uint32_t>(inputBase);
    sim.regs().scalar[kRegWeights] = static_cast<uint32_t>(weightBase);
    sim.regs().scalar[kRegOutput] = static_cast<uint32_t>(outputBase);
    sim.regs().scalar[kRegScratch] = static_cast<uint32_t>(scratchBase);

    KernelRunResult result;
    result.stats = sim.run(*packed, validate);
    result.staticPackets = packed->packets.size();
    result.staticInstructions = packed->program.code.size();
    result.packed = std::move(packed);
    result.output.resize(static_cast<size_t>(buffers.outputBytes));
    if (buffers.outputBytes > 0)
        mem.readBytes(static_cast<uint64_t>(outputBase),
                      result.output.data(), result.output.size());
    return result;
}

MatMulRunResult
runMatMul(const MatMulKernel &kernel, const uint8_t *a, const int8_t *w,
          const vliw::PackOptions &packOpts, bool validate)
{
    const auto input = kernel.packInput(a);
    const auto weights = kernel.packWeights(w);
    const KernelRunResult raw = runKernel(
        kernel.program(), kernel.buffers(), input, weights, packOpts,
        validate);

    MatMulRunResult result;
    result.output = kernel.unpackOutput(raw.output.data());
    result.stats = raw.stats;
    result.staticPackets = raw.staticPackets;
    return result;
}

} // namespace gcd2::kernels
