/**
 * @file
 * Harness that executes generated kernels on the DSP simulator.
 *
 * Lays the kernel's buffers out in simulator memory (128-byte aligned
 * segments: input, weights, output, scratch), binds the kernel ABI
 * registers (r1..r4), packs the program with a chosen VLIW policy, runs
 * the timing simulator, and returns the raw output bytes plus the timing
 * statistics. Used by correctness tests, the cost model, and the bench
 * harnesses alike, so every reported cycle comes from the same path.
 *
 * Execution goes through TimingSimulator::run, i.e. the pre-decoded
 * engine (dsp/decoded.h) -- bit-identical to the reference interpreting
 * loop but several times faster, with repeated runs of the same program
 * hitting the process-wide DecodeCache. Packing likewise goes through the
 * process-wide vliw::PackCache, so re-probing the same kernel program
 * (across plans, partitions, and compiles) packs it once.
 */
#ifndef GCD2_KERNELS_RUNNER_H
#define GCD2_KERNELS_RUNNER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dsp/timing_sim.h"
#include "kernels/matmul.h"
#include "vliw/packer.h"

namespace gcd2::kernels {

/** Result of one simulated kernel execution. */
struct KernelRunResult
{
    std::vector<uint8_t> output; ///< packed output buffer contents
    dsp::TimingStats stats;
    size_t staticPackets = 0; ///< packets in the scheduled program
    size_t staticInstructions = 0;
    /** The schedule that was executed (shared with the PackCache); the
     *  pipeline retains these so the audit pass can audit the programs
     *  actually served rather than a re-pack. */
    std::shared_ptr<const dsp::PackedProgram> packed;
};

/**
 * The static check runKernel(validate=true) runs before packing:
 * dsp::verifyProgram's structural checks, then the use-before-def
 * analyzer (analysis::analyzeUseBeforeDef) with the ABI registers
 * r1..r4 entry-defined. Panics on a structural issue or an Error
 * finding.
 */
void requireValidKernel(const dsp::Program &prog);

/**
 * Execute an already-generated kernel program.
 *
 * @param prog kernel program following the r1..r4 buffer ABI
 * @param buffers buffer byte sizes (input/weights/output/scratch)
 * @param input packed input bytes (copied to the input segment)
 * @param weights packed weight bytes (may be empty)
 * @param packOpts VLIW packing policy for code generation
 * @param validate run full packed-program validation (slower; tests)
 */
KernelRunResult runKernel(const dsp::Program &prog,
                          const KernelBuffers &buffers,
                          const std::vector<uint8_t> &input,
                          const std::vector<uint8_t> &weights,
                          const vliw::PackOptions &packOpts = {},
                          bool validate = false);

/**
 * Execute an already-packed kernel program. Identical buffer layout and
 * ABI binding as runKernel, but the caller supplies the schedule instead
 * of going through the PackCache -- used by the tiered cost model, which
 * reuses one packet structure across structurally identical programs
 * (packet transplantation) and must time exactly the schedule it will
 * serve.
 */
KernelRunResult runPackedKernel(
    std::shared_ptr<const dsp::PackedProgram> packed,
    const KernelBuffers &buffers, const std::vector<uint8_t> &input,
    const std::vector<uint8_t> &weights, bool validate = false);

/**
 * Convenience wrapper: pack a row-major matmul, run it, unpack the
 * row-major result.
 */
struct MatMulRunResult
{
    std::vector<uint8_t> output; ///< row-major M x N
    dsp::TimingStats stats;
    size_t staticPackets = 0;
};

MatMulRunResult runMatMul(const MatMulKernel &kernel, const uint8_t *a,
                          const int8_t *w,
                          const vliw::PackOptions &packOpts = {},
                          bool validate = false);

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_RUNNER_H
