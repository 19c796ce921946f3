/**
 * @file
 * Matrix-multiplication kernel generators (Section III of the paper).
 *
 * One generator per SIMD multiply instruction, each demanding its layout:
 *
 *  - Vmpy / 1-column: per output column, walk K one column-vector at a
 *    time; each weight byte is splatted (LOADB + COMBINE4) and multiplied
 *    against 128 rows at once. Products are 16-bit pairs, shuffled back to
 *    row order and requantized with VASRHUB.
 *  - Vmpa / 2-column: k advances four columns per step using a vector pair
 *    (two interleaved column pairs); each vmpa retires 256 MACs. The two
 *    halves of the accumulator pair are folded with VADDH (paper: "the two
 *    corresponding output elements ... need to be further added").
 *  - Vrmpy / 4-column: each vector holds 32 rows x 4 columns; vrmpy
 *    accumulates 4-element dot products into 32-bit lanes, requantized
 *    through VASRWH + VASRHUB with word/halfword shuffles restoring the
 *    4-column output order.
 *
 * Data types follow the quantized pipeline: uint8 activations x int8
 * weights, 16-bit (vmpy/vmpa) or 32-bit (vrmpy) accumulation, uint8
 * output. C = requantize(A x W).
 *
 * Unrolling (Section IV-C "Impact of Unrolling"): `unrollOut` replicates
 * the row-panel body (loop-overhead amortization only), `unrollCols`
 * widens the output-column tile (more live accumulators = more ILP, until
 * registers spill), `unrollK` replicates the reduction step. Columns
 * beyond the accumulator register budget are spilled to scratch memory,
 * reproducing the performance fall-off at large factors (Fig. 12).
 */
#ifndef GCD2_KERNELS_MATMUL_H
#define GCD2_KERNELS_MATMUL_H

#include <cstdint>
#include <vector>

#include "dsp/isa.h"
#include "tensor/layout.h"

namespace gcd2::kernels {

/** Which SIMD multiply implements the kernel. */
enum class MatMulScheme : uint8_t { Vmpy, Vmpa, Vrmpy };

const char *schemeName(MatMulScheme scheme);

/** Activation layout required / produced by a scheme. */
tensor::Layout schemeLayout(MatMulScheme scheme);

/**
 * K elements consumed per inner-loop iteration of a scheme at a given
 * reduction unroll factor: the generator pads K up to a multiple of this
 * quantum and the inner loop runs padded K / quantum times. Vmpy walks
 * one K column per step; vmpa and vrmpy consume four interleaved columns
 * per step. The tiered cost model (select/tiered_cost.h) keys its
 * per-iteration affine fits on this quantum.
 */
int64_t kQuantum(MatMulScheme scheme, int unrollK);

/** Problem shape: C(M x N) = A(M x K) x W(K x N). */
struct MatMulShape
{
    int64_t m = 0;
    int64_t k = 0;
    int64_t n = 0;
};

/** Generator configuration. */
struct MatMulConfig
{
    MatMulScheme scheme = MatMulScheme::Vrmpy;
    int unrollOut = 1;  ///< row panels per outer-loop iteration
    int unrollCols = 1; ///< output-column tiles per mid-loop iteration
    int unrollK = 1;    ///< reduction steps per inner-loop iteration
    /** Requantization shift, 16-bit accumulator path (vmpy/vmpa). */
    int shift16 = 7;
    /** Requantization shifts, 32-bit path (vrmpy): word->half, half->byte. */
    int shiftWordHalf = 6;
    int shiftHalfByte = 4;
};

/**
 * Register conventions of every generated kernel: the harness sets
 *   r1 = packed activation base, r2 = packed weight base,
 *   r3 = packed output base, r4 = scratch base (spills),
 * then runs the program. All other registers are clobbered.
 */
struct KernelBuffers
{
    int64_t inputBytes = 0;
    int64_t weightBytes = 0;
    int64_t outputBytes = 0;
    int64_t scratchBytes = 0;
};

/** Scalar register numbers of the kernel ABI. */
inline constexpr int kRegInput = 1;
inline constexpr int kRegWeights = 2;
inline constexpr int kRegOutput = 3;
inline constexpr int kRegScratch = 4;

/**
 * Declare the kernel ABI registers noalias on @p prog, carrying the
 * exact extent the runner backs each segment with (the distance from
 * the segment base to the next segment's base under runner.cc's
 * 128-byte-aligned layout). The bounds lint proves accesses against
 * these extents. @p scratch controls whether r4 is declared (matmul
 * spills; conv/elementwise never touch scratch).
 */
void declareKernelNoalias(dsp::Program &prog, const KernelBuffers &buffers,
                          bool scratch);

/**
 * A generated MatMul kernel: the DSP program plus the host-side packing
 * glue and the exact-semantics reference.
 */
class MatMulKernel
{
  public:
    MatMulKernel(const MatMulShape &shape, const MatMulConfig &config);

    const dsp::Program &program() const { return prog_; }
    const KernelBuffers &buffers() const { return buffers_; }
    const MatMulShape &shape() const { return shape_; }
    const MatMulConfig &config() const { return config_; }

    /** Inner-loop trip count: padded K / kQuantum(scheme, unrollK). */
    int64_t kIters() const
    {
        return kp_ / kQuantum(config_.scheme, config_.unrollK);
    }

    /** Pack a row-major uint8 activation matrix into the input buffer. */
    std::vector<uint8_t> packInput(const uint8_t *rowMajor) const;

    /** Pack a row-major int8 weight matrix into the weight buffer. */
    std::vector<uint8_t> packWeights(const int8_t *rowMajor) const;

    /** Unpack the packed uint8 output back to row-major M x N. */
    std::vector<uint8_t> unpackOutput(const uint8_t *packed) const;

    /**
     * Exact reference: same accumulation width, wraparound, and
     * requantization as the generated instructions, so simulator output
     * must match bit for bit.
     */
    static std::vector<uint8_t> reference(const uint8_t *a, const int8_t *w,
                                          const MatMulShape &shape,
                                          const MatMulConfig &config);

    /** Multiply-accumulate count of the logical problem (2*M*K*N ops). */
    int64_t macs() const { return shape_.m * shape_.k * shape_.n; }

  private:
    void generateVmpy();
    void generateVmpa();
    void generateVrmpy();

    MatMulShape shape_;
    MatMulConfig config_;
    int64_t mp_ = 0; ///< M padded to the scheme's panel height
    int64_t kp_ = 0; ///< K padded to column group x unrollK
    int64_t np_ = 0; ///< N padded to the output tile width
    dsp::Program prog_;
    KernelBuffers buffers_;
};

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_MATMUL_H
