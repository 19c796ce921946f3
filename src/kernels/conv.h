/**
 * @file
 * Convolution kernel generators.
 *
 * Conv2D lowers onto the MatMul schemes through im2col: the input patch
 * matrix is A (M = outH*outW rows, K = inC*kH*kW columns) and the filter
 * bank is W (K x outC). The patch matrix is materialized at pack time by
 * the host (for 1x1 stride-1 convolutions it is the identity reshape);
 * its construction cost on-device is accounted by im2colCycles(), which
 * the cost model adds to the kernel cycles.
 *
 * Depthwise convolutions use the dedicated triple-tap multiply (vtmpy):
 * one instruction filters a 256-byte row tile of a channel into 128
 * stride-2 outputs, ceil(kW/3) instructions per filter row, accumulated
 * in 16-bit lanes and requantized with VASRHUB. Stride-1 kernels run an
 * even and an odd vtmpy phase (the odd phase reads the rows shifted one
 * byte) and byte-interleave the two requantized streams. The host packer
 * fills the row tiles: short rows sit side by side, one band of the
 * plane each, and rows wider than the tile split into column tiles
 * (DepthwiseTiling).
 */
#ifndef GCD2_KERNELS_CONV_H
#define GCD2_KERNELS_CONV_H

#include <cstdint>
#include <vector>

#include "kernels/matmul.h"

namespace gcd2::kernels {

/** Conv2D problem description (NCHW, batch 1). */
struct ConvShape
{
    int64_t inC = 0;
    int64_t inH = 0;
    int64_t inW = 0;
    int64_t outC = 0;
    int64_t kH = 1;
    int64_t kW = 1;
    int64_t strideH = 1;
    int64_t strideW = 1;
    int64_t padH = 0;
    int64_t padW = 0;

    int64_t outH() const { return (inH + 2 * padH - kH) / strideH + 1; }
    int64_t outW() const { return (inW + 2 * padW - kW) / strideW + 1; }

    /** Multiply-accumulates of the convolution. */
    int64_t
    macs() const
    {
        return outH() * outW() * outC * inC * kH * kW;
    }

    /** The equivalent im2col matmul shape. */
    MatMulShape
    matmulShape() const
    {
        return MatMulShape{outH() * outW(), inC * kH * kW, outC};
    }

    /** 1x1 stride-1 unpadded convolutions reshape for free. */
    bool
    isPointwise() const
    {
        return kH == 1 && kW == 1 && strideH == 1 && strideW == 1 &&
               padH == 0 && padW == 0;
    }
};

/**
 * Conv2D kernel: an im2col wrapper over MatMulKernel, sharing its
 * instruction-scheme configuration and exact reference semantics.
 */
class ConvKernel
{
  public:
    ConvKernel(const ConvShape &shape, const MatMulConfig &config);

    const dsp::Program &program() const { return matmul_.program(); }
    const KernelBuffers &buffers() const { return matmul_.buffers(); }
    const ConvShape &shape() const { return shape_; }
    const MatMulKernel &matmul() const { return matmul_; }

    /** Host-side im2col: NCHW input -> (outH*outW) x (inC*kH*kW). */
    std::vector<uint8_t> im2col(const uint8_t *nchw) const;

    /** im2col + layout packing into the kernel's input buffer. */
    std::vector<uint8_t> packInput(const uint8_t *nchw) const;

    /** OIHW filters -> K x N weight matrix -> packed weights. */
    std::vector<uint8_t> packWeights(const int8_t *oihw) const;

    /** Packed output -> NCHW (outC, outH, outW). */
    std::vector<uint8_t> unpackOutput(const uint8_t *packed) const;

    /**
     * Estimated cycles to materialize the patch matrix on-device (zero
     * for pointwise convolutions): every patch byte is moved through the
     * vector units once.
     */
    uint64_t im2colCycles() const;

    /** Exact reference (direct conv with scheme accumulation semantics). */
    static std::vector<uint8_t> reference(const uint8_t *nchw,
                                          const int8_t *oihw,
                                          const ConvShape &shape,
                                          const MatMulConfig &config);

  private:
    ConvShape shape_;
    MatMulKernel matmul_;
};

/**
 * How a depthwise kernel lays its planes into 256-byte row tiles.
 *
 * A plane's padded row is S bytes (inW + 2 padW, rounded up to even at
 * stride 2). When R = floor(256 / S) >= 2, R horizontal bands of the
 * plane sit side by side in each row of the input buffer, each with its
 * own kH - 1 halo rows; the zero columns between bands are the padding
 * the taps read. A row whose inputs do not fit the 256-byte window
 * splits into column tiles instead, each packed as a channel of its own.
 */
struct DepthwiseTiling
{
    int64_t colTiles = 1; ///< column tiles per plane row
    int64_t tileOut = 0;  ///< outputs per column tile
    int64_t bands = 1;    ///< R: bands side by side in one row tile
    int64_t bandRows = 0; ///< output rows per band: the kernel's row loop
    int64_t bandBytes = 0; ///< S: input bytes per band
};

/**
 * Depthwise convolution over channels x (inH, inW) planes with the
 * graph's semantics: one kH x kW filter per channel, one stride for
 * both dimensions, and padH / padW zero rows / columns on each side.
 */
struct DepthwiseConfig
{
    int64_t channels = 1;
    int64_t inH = 0;
    int64_t inW = 256;
    int64_t kH = 3;
    int64_t kW = 3;
    int64_t stride = 2; ///< 1 or 2 (both spatial dimensions)
    int64_t padH = 0;
    int64_t padW = 0;
    int shift16 = 7;    ///< requantization shift
    int unrollRows = 1;

    int64_t outH() const { return (inH + 2 * padH - kH) / stride + 1; }
    int64_t outW() const { return (inW + 2 * padW - kW) / stride + 1; }
    int64_t macs() const { return channels * outH() * outW() * kH * kW; }

    /** vtmpy instructions per filter row: three taps each. */
    int64_t tapGroups() const { return (kW + 2) / 3; }

    /** Outputs per row tile: 256 at stride 1, 128 at stride 2. */
    int64_t tileLanes() const { return stride == 1 ? 256 : 128; }

    /**
     * The same bytes, run as one row per channel when the plane is one
     * column wide: (C, H, 1) is (C, 1, H), and a kH x 1 filter over it
     * is a 1 x kH filter along the row. Any other plane is its own view.
     */
    DepthwiseConfig rowView() const;

    /** The row-tile layout of this plane (call on the rowView()). */
    DepthwiseTiling tiling() const;

    /** Row tiles the kernel runs over all channels. */
    int64_t rowTiles() const;

    /** Output lanes that hold outputs, as a share of the row tiles'. */
    double laneFill() const;
};

/**
 * Depthwise kernel built on vtmpy. It runs the rowView() of its config,
 * whose bytes in and out are those of the config itself.
 */
class DepthwiseKernel
{
  public:
    explicit DepthwiseKernel(const DepthwiseConfig &config);

    const dsp::Program &program() const { return prog_; }
    const KernelBuffers &buffers() const { return buffers_; }
    /** The view the kernel runs. */
    const DepthwiseConfig &config() const { return config_; }

    /** (C, inH, inW) planes -> padded, banded 384-byte buffer rows. */
    std::vector<uint8_t> packInput(const uint8_t *chw) const;

    /** (C, kH, kW) filters -> one coefficient word per three taps of a
     *  filter row, repeated for every column tile of a channel. */
    std::vector<uint8_t> packWeights(const int8_t *filters) const;

    /** Raw output -> (C, outH, outW). */
    std::vector<uint8_t> unpackOutput(const uint8_t *packed) const;

    /** Exact plane-level reference: the graph's zero padding, a 16-bit
     *  wrap per vtmpy group, VASRHUB epilogue. */
    static std::vector<uint8_t> reference(const uint8_t *chw,
                                          const int8_t *filters,
                                          const DepthwiseConfig &config);

  private:
    /** Kernel channels: planes times column tiles. */
    int64_t kernelChannels() const;
    /** Bytes from one input buffer row to the next. */
    int64_t rowBytes() const;
    /** Input buffer rows per kernel channel. */
    int64_t bufferRows() const;
    /** Byte offset of output (c, y, x) in the raw output buffer. */
    int64_t outputOffset(int64_t c, int64_t y, int64_t x) const;

    DepthwiseConfig config_;
    DepthwiseTiling tiling_;
    dsp::Program prog_;
    KernelBuffers buffers_;
};

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_CONV_H
