#include "kernels/conv.h"

#include <algorithm>

#include "common/logging.h"
#include "common/round.h"
#include "tensor/quant.h"

namespace gcd2::kernels {

namespace {

using common::ceilDiv;
using dsp::Opcode;
using dsp::makeLoad;
using dsp::makeMovi;
using dsp::makeVasr;
using dsp::makeVload;
using dsp::makeVmpa;
using dsp::makeVsplatw;
using dsp::makeVstore;
using dsp::sreg;
using dsp::vreg;

/** Host im2col shared by packing and the reference. */
std::vector<uint8_t>
im2colHost(const uint8_t *nchw, const ConvShape &s)
{
    const int64_t m = s.outH() * s.outW();
    const int64_t k = s.inC * s.kH * s.kW;
    std::vector<uint8_t> out(static_cast<size_t>(m * k), 0);
    for (int64_t oy = 0; oy < s.outH(); ++oy) {
        for (int64_t ox = 0; ox < s.outW(); ++ox) {
            const int64_t row = oy * s.outW() + ox;
            for (int64_t c = 0; c < s.inC; ++c) {
                for (int64_t ky = 0; ky < s.kH; ++ky) {
                    for (int64_t kx = 0; kx < s.kW; ++kx) {
                        const int64_t iy = oy * s.strideH + ky - s.padH;
                        const int64_t ix = ox * s.strideW + kx - s.padW;
                        if (iy < 0 || iy >= s.inH || ix < 0 || ix >= s.inW)
                            continue;
                        const int64_t col =
                            (c * s.kH + ky) * s.kW + kx;
                        out[static_cast<size_t>(row * k + col)] =
                            nchw[(c * s.inH + iy) * s.inW + ix];
                    }
                }
            }
        }
    }
    return out;
}

/** OIHW filters to the K x N weight matrix of the im2col matmul. */
std::vector<int8_t>
filtersToMatrix(const int8_t *oihw, const ConvShape &s)
{
    const int64_t k = s.inC * s.kH * s.kW;
    std::vector<int8_t> out(static_cast<size_t>(k * s.outC));
    for (int64_t n = 0; n < s.outC; ++n)
        for (int64_t c = 0; c < s.inC; ++c)
            for (int64_t ky = 0; ky < s.kH; ++ky)
                for (int64_t kx = 0; kx < s.kW; ++kx) {
                    const int64_t kk = (c * s.kH + ky) * s.kW + kx;
                    out[static_cast<size_t>(kk * s.outC + n)] =
                        oihw[((n * s.inC + c) * s.kH + ky) * s.kW + kx];
                }
    return out;
}

/** The (outH*outW) x outC row-major matmul output as NCHW planes. */
std::vector<uint8_t>
toPlanes(const std::vector<uint8_t> &hwc, const ConvShape &s)
{
    const int64_t m = s.outH() * s.outW();
    std::vector<uint8_t> out(static_cast<size_t>(m * s.outC));
    for (int64_t row = 0; row < m; ++row)
        for (int64_t n = 0; n < s.outC; ++n)
            out[static_cast<size_t>(n * m + row)] =
                hwc[static_cast<size_t>(row * s.outC + n)];
    return out;
}

} // namespace

ConvKernel::ConvKernel(const ConvShape &shape, const MatMulConfig &config)
    : shape_(shape), matmul_(shape.matmulShape(), config)
{
    GCD2_REQUIRE(shape.inC > 0 && shape.inH > 0 && shape.inW > 0 &&
                     shape.outC > 0,
                 "conv shape must be positive");
    GCD2_REQUIRE(shape.outH() > 0 && shape.outW() > 0,
                 "conv produces an empty output");
}

std::vector<uint8_t>
ConvKernel::im2col(const uint8_t *nchw) const
{
    return im2colHost(nchw, shape_);
}

std::vector<uint8_t>
ConvKernel::packInput(const uint8_t *nchw) const
{
    const auto patches = im2colHost(nchw, shape_);
    return matmul_.packInput(patches.data());
}

std::vector<uint8_t>
ConvKernel::packWeights(const int8_t *oihw) const
{
    const auto matrix = filtersToMatrix(oihw, shape_);
    return matmul_.packWeights(matrix.data());
}

std::vector<uint8_t>
ConvKernel::unpackOutput(const uint8_t *packed) const
{
    return toPlanes(matmul_.unpackOutput(packed), shape_);
}

uint64_t
ConvKernel::im2colCycles() const
{
    if (shape_.isPointwise())
        return 0;
    const int64_t patchBytes =
        shape_.outH() * shape_.outW() * shape_.inC * shape_.kH * shape_.kW;
    // Each patch byte flows through a load/permute/store pipeline with two
    // memory slots per packet: ~2 cycles per vector each way.
    return static_cast<uint64_t>(4 * (patchBytes / dsp::kVectorBytes) + 16);
}

std::vector<uint8_t>
ConvKernel::reference(const uint8_t *nchw, const int8_t *oihw,
                      const ConvShape &shape, const MatMulConfig &config)
{
    const auto patches = im2colHost(nchw, shape);
    const auto weights = filtersToMatrix(oihw, shape);
    return toPlanes(MatMulKernel::reference(patches.data(), weights.data(),
                                            shape.matmulShape(), config),
                    shape);
}

// Depthwise -------------------------------------------------------------

namespace {

/** Row buffer stride, at least: a 256-byte row tile + 128 zero bytes
 *  so the odd-phase and tap-group (shifted) vector loads stay in
 *  bounds. */
constexpr int64_t kDwMinRowBytes = 384;

/** Bytes one vtmpy pair filters. */
constexpr int64_t kDwTileBytes = 256;

/** Scalars s12..s31 hold filter coefficient words. */
constexpr int64_t kDwFilterRegs = 20;

} // namespace

DepthwiseConfig
DepthwiseConfig::rowView() const
{
    if (inW != 1 || kW != 1 || padW != 0 || inH == 1)
        return *this;
    DepthwiseConfig view = *this;
    view.inH = 1;
    view.inW = inH;
    view.kH = 1;
    view.kW = kH;
    view.padH = 0;
    view.padW = padH;
    return view;
}

DepthwiseTiling
DepthwiseConfig::tiling() const
{
    DepthwiseTiling t;
    const int64_t oh = outH();
    const int64_t ow = outW();
    int64_t maxBands = 1;
    if (padW + inW <= kDwTileBytes && ow <= tileLanes()) {
        // Every input byte a row's outputs read lies in one window;
        // reads past it see zero padding.
        t.tileOut = ow;
        t.bandBytes = inW + 2 * padW;
        if (stride == 2)
            t.bandBytes += t.bandBytes % 2; // bands start on an output lane
        maxBands = std::max<int64_t>(1, kDwTileBytes / t.bandBytes);
    } else {
        // vtmpy reads byte 256 of each tap group's window as zero, so a
        // tile stops short of the last output lane that would read it.
        t.tileOut = (kDwTileBytes - 3) / stride + 1;
        t.colTiles = ceilDiv(ow, t.tileOut);
        t.bandBytes = (t.tileOut - 1) * stride + kW;
    }
    t.bandRows = ceilDiv(oh, std::min(maxBands, oh));
    t.bandRows = ceilDiv(t.bandRows, unrollRows) * unrollRows;
    t.bands = ceilDiv(oh, t.bandRows);
    return t;
}

int64_t
DepthwiseConfig::rowTiles() const
{
    const DepthwiseTiling t = tiling();
    return channels * t.colTiles * t.bandRows;
}

double
DepthwiseConfig::laneFill() const
{
    return static_cast<double>(channels * outH() * outW()) /
           static_cast<double>(rowTiles() * tileLanes());
}

DepthwiseKernel::DepthwiseKernel(const DepthwiseConfig &config)
    : config_(config.rowView())
{
    GCD2_REQUIRE(config.channels > 0, "depthwise needs channels");
    GCD2_REQUIRE(config.kH >= 1 && config.kW >= 1,
                 "depthwise filter must be positive");
    GCD2_REQUIRE(config.padH >= 0 && config.padW >= 0,
                 "depthwise padding must be non-negative");
    GCD2_REQUIRE(config.stride == 1 || config.stride == 2,
                 "depthwise stride must be 1 or 2");
    GCD2_REQUIRE(config.inH + 2 * config.padH >= config.kH &&
                     config.inW + 2 * config.padW >= config.kW,
                 "depthwise produces an empty output");
    GCD2_REQUIRE(config.inH > 0 && config.inW > 0,
                 "depthwise plane must be non-empty");
    GCD2_REQUIRE(config.unrollRows >= 1 &&
                     config.outH() % config.unrollRows == 0,
                 "unrollRows must divide outH");
    GCD2_REQUIRE(config.stride == 2 || config.unrollRows == 1,
                 "stride-1 depthwise supports unrollRows == 1");
    tiling_ = config_.tiling();

    const int64_t stride = config_.stride;
    const int64_t groups = config_.tapGroups();
    const int64_t words = config_.kH * groups;
    const int64_t outRowBytes = config_.tileLanes();
    const int64_t rowStride = rowBytes();
    buffers_.inputBytes = kernelChannels() * bufferRows() * rowStride;
    buffers_.weightBytes = kernelChannels() * words * 4;
    buffers_.outputBytes = kernelChannels() * tiling_.bandRows * outRowBytes;
    LoopBuilder loops(prog_, buffers_, /*scratch=*/false);

    // Filter row dy, tap group g: coefficient word dy * groups + g and an
    // input offset of dy rows and 3g bytes. A channel hoists its words
    // into s12 on when they fit there; a larger filter loads each word
    // ahead of its vtmpy, rotating through the same scalars.
    const bool hoistWords = words <= kDwFilterRegs;
    auto coeff = [&](int64_t dy, int64_t g) {
        const int64_t w = dy * groups + g;
        const auto reg = sreg(12 + static_cast<int>(w % kDwFilterRegs));
        if (!hoistWords)
            prog_.push(makeLoad(Opcode::LOADW, reg, sreg(11), 4 * w));
        return reg;
    };
    auto tapOffset = [&](int64_t dy, int64_t g) {
        return dy * rowStride + 3 * g;
    };

    // One iteration of the row loop: unrollRows output rows of a tile,
    // read off the row input pointer r7 and stored at the row output
    // pointer r8.
    const int ur = config_.unrollRows;
    auto rows = [&] {
        if (stride == 2) {
            for (int u = 0; u < ur; ++u) {
                const int accBase = (u % 2 == 0) ? 2 : 6; // pairs v2:3 / v6:7
                const int inBase = (u % 2 == 0) ? 0 : 8;  // v0,v1 / v8,v9
                const int outReg = (u % 2 == 0) ? 4 : 10;
                prog_.push(makeVsplatw(vreg(accBase), sreg(0)));
                prog_.push(makeVsplatw(vreg(accBase + 1), sreg(0)));
                for (int64_t dy = 0; dy < config_.kH; ++dy) {
                    for (int64_t g = 0; g < groups; ++g) {
                        const auto w = coeff(dy, g);
                        const int64_t off =
                            static_cast<int64_t>(u) * 2 * rowStride +
                            tapOffset(dy, g);
                        prog_.push(makeVload(vreg(inBase), sreg(7), off));
                        prog_.push(
                            makeVload(vreg(inBase + 1), sreg(7), off + 128));
                        prog_.push(makeVmpa(Opcode::VTMPY, vreg(accBase),
                                            vreg(inBase), w));
                    }
                }
                prog_.push(makeVasr(Opcode::VASRHUB, vreg(outReg),
                                    vreg(accBase), config_.shift16));
                prog_.push(makeVstore(sreg(8), vreg(outReg),
                                      static_cast<int64_t>(u) * 128));
            }
            return;
        }
        // Stride 1: even-phase outputs from the aligned rows, odd-phase
        // outputs from the rows shifted one byte; byte-interleave both
        // requantized streams back into pixel order.
        prog_.push(makeVsplatw(vreg(2), sreg(0))); // even acc pair v2:3
        prog_.push(makeVsplatw(vreg(3), sreg(0)));
        prog_.push(makeVsplatw(vreg(6), sreg(0))); // odd acc pair v6:7
        prog_.push(makeVsplatw(vreg(7), sreg(0)));
        int step = 0;
        for (int64_t dy = 0; dy < config_.kH; ++dy) {
            for (int64_t g = 0; g < groups; ++g, ++step) {
                const auto w = coeff(dy, g);
                const int64_t off = tapOffset(dy, g);
                const int evenIn = (step % 2 == 0) ? 0 : 14; // v0:1 / v14:15
                const int oddIn = (step % 2 == 0) ? 8 : 16;  // v8:9 / v16:17
                prog_.push(makeVload(vreg(evenIn), sreg(7), off));
                prog_.push(makeVload(vreg(evenIn + 1), sreg(7), off + 128));
                prog_.push(
                    makeVmpa(Opcode::VTMPY, vreg(2), vreg(evenIn), w));
                prog_.push(makeVload(vreg(oddIn), sreg(7), off + 1));
                prog_.push(makeVload(vreg(oddIn + 1), sreg(7), off + 129));
                prog_.push(makeVmpa(Opcode::VTMPY, vreg(6), vreg(oddIn), w));
            }
        }
        prog_.push(makeVasr(Opcode::VASRHUB, vreg(4), vreg(2),
                            config_.shift16)); // even bytes e0..e127
        prog_.push(makeVasr(Opcode::VASRHUB, vreg(10), vreg(6),
                            config_.shift16)); // odd bytes o0..o127
        prog_.push(makeVshuff(Opcode::VSHUFF, vreg(12), vreg(4), vreg(10),
                              /*laneLog2=*/0)); // pixel order, pair v12:13
        prog_.push(makeVstore(sreg(8), vreg(12), 0));
        prog_.push(makeVstore(sreg(8), vreg(13), 128));
    };

    // Channel loop (r5) over the channel input base r9, output base r10
    // and weight pointer r11; row loop (r6) over r7 / r8.
    prog_.push(makeMovi(sreg(0), 0));
    loops.loop(
        LoopInit::imm(kernelChannels()),
        {{9, LoopInit::reg(kRegInput), bufferRows() * rowStride},
         {10, LoopInit::reg(kRegOutput), tiling_.bandRows * outRowBytes},
         {11, LoopInit::reg(kRegWeights), words * 4}},
        [&] {
            // Hoist the channel's filter coefficient words.
            for (int64_t w = 0; hoistWords && w < words; ++w)
                prog_.push(makeLoad(Opcode::LOADW,
                                    sreg(12 + static_cast<int>(w)), sreg(11),
                                    4 * w));
            loops.loop(LoopInit::imm(tiling_.bandRows / ur),
                       {{7, LoopInit::reg(9), stride * rowStride * ur},
                        {8, LoopInit::reg(10), outRowBytes * ur}},
                       rows);
        });
}

int64_t
DepthwiseKernel::kernelChannels() const
{
    return config_.channels * tiling_.colTiles;
}

int64_t
DepthwiseKernel::rowBytes() const
{
    // The last tap group's odd-phase loads end at byte
    // 3 (groups - 1) + 256.
    const int64_t reach = 3 * (config_.tapGroups() - 1) + kDwTileBytes + 1;
    return std::max(kDwMinRowBytes,
                    common::roundUp(reach, dsp::kVectorBytes));
}

int64_t
DepthwiseKernel::bufferRows() const
{
    return (tiling_.bandRows - 1) * config_.stride + config_.kH;
}

int64_t
DepthwiseKernel::outputOffset(int64_t c, int64_t y, int64_t x) const
{
    const DepthwiseTiling &t = tiling_;
    const int64_t channel = c * t.colTiles + x / t.tileOut;
    const int64_t band = y / t.bandRows;
    const int64_t lane = band * t.bandBytes / config_.stride + x % t.tileOut;
    return (channel * t.bandRows + y % t.bandRows) * config_.tileLanes() +
           lane;
}

std::vector<uint8_t>
DepthwiseKernel::packInput(const uint8_t *chw) const
{
    const DepthwiseConfig &c = config_;
    const DepthwiseTiling &t = tiling_;
    const int64_t rows = bufferRows();
    // A band holds at most one buffer row.
    const int64_t rowStride = rowBytes();
    const int64_t span = std::min(t.bandBytes, rowStride);
    std::vector<uint8_t> out(static_cast<size_t>(buffers_.inputBytes), 0);
    for (int64_t ch = 0; ch < c.channels; ++ch)
        for (int64_t tile = 0; tile < t.colTiles; ++tile) {
            const int64_t rowBase = (ch * t.colTiles + tile) * rows;
            const int64_t x0 = tile * t.tileOut * c.stride - c.padW;
            for (int64_t band = 0; band < t.bands; ++band)
                for (int64_t r = 0; r < rows; ++r) {
                    const int64_t y =
                        band * t.bandRows * c.stride + r - c.padH;
                    if (y < 0 || y >= c.inH)
                        continue;
                    for (int64_t q = 0; q < span; ++q) {
                        const int64_t x = x0 + q;
                        if (x < 0 || x >= c.inW)
                            continue;
                        out[static_cast<size_t>(
                            (rowBase + r) * rowStride +
                            band * t.bandBytes + q)] =
                            chw[(ch * c.inH + y) * c.inW + x];
                    }
                }
        }
    return out;
}

std::vector<uint8_t>
DepthwiseKernel::packWeights(const int8_t *filters) const
{
    const DepthwiseConfig &c = config_;
    const int64_t groups = c.tapGroups();
    std::vector<uint8_t> out(static_cast<size_t>(buffers_.weightBytes), 0);
    for (int64_t k = 0; k < kernelChannels(); ++k) {
        const int64_t ch = k / tiling_.colTiles;
        for (int64_t dy = 0; dy < c.kH; ++dy)
            for (int64_t tap = 0; tap < c.kW; ++tap)
                out[static_cast<size_t>(
                    ((k * c.kH + dy) * groups + tap / 3) * 4 + tap % 3)] =
                    static_cast<uint8_t>(filters[(ch * c.kH + dy) * c.kW +
                                                 tap]);
    }
    return out;
}

std::vector<uint8_t>
DepthwiseKernel::unpackOutput(const uint8_t *packed) const
{
    const int64_t outH = config_.outH();
    const int64_t outW = config_.outW();
    std::vector<uint8_t> out(
        static_cast<size_t>(config_.channels * outH * outW));
    for (int64_t c = 0; c < config_.channels; ++c)
        for (int64_t y = 0; y < outH; ++y)
            for (int64_t x = 0; x < outW; ++x)
                out[static_cast<size_t>((c * outH + y) * outW + x)] =
                    packed[outputOffset(c, y, x)];
    return out;
}

std::vector<uint8_t>
DepthwiseKernel::reference(const uint8_t *chw, const int8_t *filters,
                           const DepthwiseConfig &config)
{
    const int64_t outH = config.outH();
    const int64_t outW = config.outW();
    std::vector<uint8_t> out(
        static_cast<size_t>(config.channels * outH * outW));
    auto inAt = [&](int64_t c, int64_t y, int64_t x) -> int32_t {
        if (y < 0 || y >= config.inH || x < 0 || x >= config.inW)
            return 0; // zero padding
        return chw[(c * config.inH + y) * config.inW + x];
    };
    for (int64_t c = 0; c < config.channels; ++c) {
        for (int64_t y = 0; y < outH; ++y) {
            for (int64_t x = 0; x < outW; ++x) {
                // One 16-bit wraparound per vtmpy: three taps of a row.
                int16_t acc = 0;
                for (int64_t dy = 0; dy < config.kH; ++dy) {
                    const int64_t iy = config.stride * y + dy - config.padH;
                    for (int64_t g = 0; g < config.kW; g += 3) {
                        int32_t groupSum = 0;
                        for (int64_t tap = g;
                             tap < std::min(g + 3, config.kW); ++tap)
                            groupSum +=
                                inAt(c, iy,
                                     config.stride * x + tap - config.padW) *
                                filters[(c * config.kH + dy) * config.kW +
                                        tap];
                        acc = static_cast<int16_t>(acc + groupSum);
                    }
                }
                out[static_cast<size_t>((c * outH + y) * outW + x)] =
                    static_cast<uint8_t>(std::clamp<int64_t>(
                        tensor::roundShift(acc, config.shift16), 0, 255));
            }
        }
    }
    return out;
}

} // namespace gcd2::kernels
