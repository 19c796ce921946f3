/**
 * @file
 * Elementwise / reduction-free kernel generators.
 *
 * These cover the non-matmul operators of the DNN graphs:
 *
 *  - Add: requantized residual addition of two uint8 tensors with equal
 *    scales, implemented with the rounding byte-average VAVGB (the
 *    standard multiplier-free form when out_scale = 2 * in_scale).
 *  - MaxPool / AvgPool: pairwise pooling along the innermost axis via
 *    VDEAL + VMAXUB / VAVGB; 2D pools apply it per axis.
 *  - Clamp: ReLU-style saturation to [lo, hi] via VMAXUB + VMINUB.
 *  - Requant: halving rescale (VAVGB with zero), modeling scale-change
 *    operators.
 *  - Div / DivLut: scalar division by a constant denominator, either with
 *    the slow DIV instruction or with the byte-indexed lookup table that
 *    the paper's "other optimizations" pass substitutes ("replacing an
 *    expensive division operation with a database lookup").
 *
 * ABI matches the matmul kernels: r1 = input, r2 = second input / LUT,
 * r3 = output, r4 = scratch.
 */
#ifndef GCD2_KERNELS_ELEMENTWISE_H
#define GCD2_KERNELS_ELEMENTWISE_H

#include <cstdint>
#include <vector>

#include "dsp/isa.h"
#include "kernels/matmul.h"

namespace gcd2::kernels {

/** Supported elementwise operations. */
enum class EwOp : uint8_t
{
    Add,     ///< out = avg(a, b) (requantized residual add)
    MaxPool, ///< out[i] = max(a[2i], a[2i+1])
    AvgPool, ///< out[i] = avg(a[2i], a[2i+1])
    Clamp,   ///< out = min(max(a, lo), hi)
    Requant, ///< out = (a + 1) >> 1
    Div,     ///< out = a / denom (scalar DIV instruction)
    DivLut,  ///< out = lut[a] with lut[v] = v / denom
    Lut,     ///< out = table[a] via the vector VLUT instruction
             ///< (quantized sigmoid / tanh / gelu / pow nonlinearities)
};

const char *ewOpName(EwOp op);

/** Configuration for the elementwise generator. */
struct EwConfig
{
    EwOp op = EwOp::Add;
    int64_t length = 0; ///< elements (bytes) of the input
    int unroll = 2;     ///< vectors (or scalar elements) per iteration
    int clampLo = 0;    ///< Clamp bounds
    int clampHi = 255;
    int denominator = 8; ///< Div / DivLut divisor (positive)
    /** 256-entry table for EwOp::Lut (identity if empty). */
    std::vector<uint8_t> table;
};

/** An elementwise kernel with packing glue and host reference. */
class ElementwiseKernel
{
  public:
    explicit ElementwiseKernel(const EwConfig &config);

    const dsp::Program &program() const { return prog_; }
    const KernelBuffers &buffers() const { return buffers_; }
    const EwConfig &config() const { return config_; }

    /** Number of output elements. */
    int64_t outputLength() const;

    /** Zero-padded copy of a flat input for the input segment. */
    std::vector<uint8_t> packInput(const uint8_t *data) const;

    /**
     * Contents of the second buffer: the second operand for Add, the
     * 256-entry lookup table for DivLut, empty otherwise.
     */
    std::vector<uint8_t> packSecond(const uint8_t *b) const;

    /** First outputLength() bytes of the raw output segment. */
    std::vector<uint8_t> unpackOutput(const uint8_t *packed) const;

    /** Host reference with identical integer semantics. */
    static std::vector<uint8_t> reference(const uint8_t *a,
                                          const uint8_t *b,
                                          const EwConfig &config);

  private:
    void generate();

    EwConfig config_;
    int64_t paddedLen_ = 0;
    dsp::Program prog_;
    KernelBuffers buffers_;
};

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_ELEMENTWISE_H
