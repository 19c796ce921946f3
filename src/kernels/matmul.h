/**
 * @file
 * Matrix-multiplication kernel generators (Section III of the paper).
 *
 * One generator for three SIMD multiply instructions, each demanding its
 * layout; the scheme table (kMatMulSchemes) holds each scheme's geometry,
 * and only the multiply and the requantization epilogue differ:
 *
 *  - Vmpy / 1-column: per output column, walk K one column-vector at a
 *    time; each weight byte, replicated into a word at pack time, is
 *    loaded with one LOADW and multiplied against 128 rows at once. Products are 16-bit pairs, shuffled back to
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
 * Unrolling (Section IV-C "Impact of Unrolling"): `unrollOut` register-
 * blocks the tile over that many row panels (one k loop computes them
 * all, and each loaded weight word feeds one multiply per panel),
 * `unrollCols` widens the output-column tile (more live accumulators =
 * more ILP, until registers spill), `unrollK` replicates the reduction
 * step. The accumulators of every (panel, column) pair share one bank;
 * those beyond its register budget are spilled to scratch memory,
 * reproducing the performance fall-off at large factors (Fig. 12).
 */
#ifndef GCD2_KERNELS_MATMUL_H
#define GCD2_KERNELS_MATMUL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/isa.h"
#include "kernels/loop_nest.h"
#include "tensor/layout.h"

namespace gcd2::kernels {

/** Which SIMD multiply implements the kernel. */
enum class MatMulScheme : uint8_t { Vmpy, Vmpa, Vrmpy };

/** Vector registers of the accumulator bank (v2..v17). */
inline constexpr int kAccRegCount = 16;

/**
 * The geometry of one multiply scheme: the one description the
 * generator, the host packers, the unroll heuristic and the cost model
 * read. A tile of unrollCols units covers colsPerUnit * unrollCols
 * output columns; a reduction step consumes kPerStep K elements.
 */
struct MatMulSchemeInfo
{
    const char *name;
    tensor::Layout layout;  ///< activation and output panel layout
    int colsPerUnit;        ///< output columns per unit of unrollCols
    int kPerStep;           ///< K elements per reduction step
    int64_t inputStepBytes; ///< packed A bytes per reduction step
    int inputVectors;       ///< vectors per input operand (vmpa: a pair)
    int accWidth;           ///< vectors per column accumulator
    int accLaneBits;        ///< accumulator lane width
    /** Packed bytes per weight: vmpy replicates each into the 4-byte
     *  splat operand of one LOADW, vmpa/vrmpy pack four k per word. */
    int bytesPerWeight;

    /** Rows per layout panel: tensor::layoutPanelRows(layout). */
    int panelRows() const { return tensor::layoutPanelRows(layout); }

    /** The most unrollCols whose accumulators fit the bank unspilled
     *  in a tile of @p panels row panels (unrollOut). */
    constexpr int
    noSpillUnits(int panels) const
    {
        return kAccRegCount / accWidth / colsPerUnit / panels;
    }
};

// clang-format off
inline constexpr MatMulSchemeInfo kMatMulSchemes[] = {
    // name    layout                      cols  k  A step  in  acc  lane  bytes/w
    {"vmpy",  tensor::Layout::OneColumn,  1,    1, 128,    1,  2,   16,   4},
    {"vmpa",  tensor::Layout::TwoColumn,  2,    4, 256,    2,  2,   16,   1},
    {"vrmpy", tensor::Layout::FourColumn, 4,    4, 128,    1,  1,   32,   1},
};
// clang-format on

constexpr const MatMulSchemeInfo &
schemeInfo(MatMulScheme scheme)
{
    return kMatMulSchemes[static_cast<size_t>(scheme)];
}

inline const char *
schemeName(MatMulScheme scheme)
{
    return schemeInfo(scheme).name;
}

/** Activation layout required / produced by a scheme. */
inline tensor::Layout
schemeLayout(MatMulScheme scheme)
{
    return schemeInfo(scheme).layout;
}

/**
 * K elements consumed per inner-loop iteration of a scheme at a given
 * reduction unroll factor: the generator pads K up to a multiple of this
 * quantum and the inner loop runs padded K / quantum times. The tiered
 * cost model (select/tiered_cost.h) keys its per-iteration affine fits
 * on this quantum.
 */
constexpr int64_t
kQuantum(MatMulScheme scheme, int unrollK)
{
    return schemeInfo(scheme).kPerStep * static_cast<int64_t>(unrollK);
}

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
    /** Row panels per tile: one k loop computes them all, loading each
     *  weight word once for every panel (register blocking). */
    int unrollOut = 1;
    int unrollCols = 1; ///< output-column tiles per mid-loop iteration
    int unrollK = 1;    ///< reduction steps per inner-loop iteration
    /** Requantization shift, 16-bit accumulator path (vmpy/vmpa). */
    int shift16 = 7;
    /** Requantization shifts, 32-bit path (vrmpy): word->half, half->byte. */
    int shiftWordHalf = 6;
    int shiftHalfByte = 4;
};

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
    void generate();

    MatMulShape shape_;
    MatMulConfig config_;
    int64_t mp_ = 0; ///< M padded to the scheme's panel height
    int64_t kp_ = 0; ///< K padded to kQuantum(scheme, unrollK)
    int64_t np_ = 0; ///< N padded to the output tile width
    dsp::Program prog_;
    KernelBuffers buffers_;
};

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_MATMUL_H
