/**
 * @file
 * Conv2D (im2col + matmul) and depthwise (vtmpy) kernel correctness.
 */
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "common/rng.h"
#include "kernels/conv.h"
#include "kernels/runner.h"
#include "kernels/unroll.h"

namespace gcd2::kernels {
namespace {

struct ConvOperands
{
    std::vector<uint8_t> input;  // NCHW
    std::vector<int8_t> filters; // OIHW
};

ConvOperands
makeConvOperands(const ConvShape &shape, uint64_t seed)
{
    Rng rng(seed);
    ConvOperands ops;
    ops.input = rng.uint8Vector(
        static_cast<size_t>(shape.inC * shape.inH * shape.inW));
    ops.filters = rng.int8Vector(
        static_cast<size_t>(shape.outC * shape.inC * shape.kH * shape.kW));
    return ops;
}

void
expectConvMatches(const ConvShape &shape, MatMulScheme scheme,
                  uint64_t seed)
{
    MatMulConfig config;
    config.scheme = scheme;
    config.shiftWordHalf = 8;
    config.shiftHalfByte = 4;
    const ConvKernel kernel(shape, config);
    const ConvOperands ops = makeConvOperands(shape, seed);

    const auto input = kernel.packInput(ops.input.data());
    const auto weights = kernel.packWeights(ops.filters.data());
    const KernelRunResult raw =
        runKernel(kernel.program(), kernel.buffers(), input, weights, {},
                  /*validate=*/true);
    const auto got = kernel.unpackOutput(raw.output.data());
    const auto expect = ConvKernel::reference(ops.input.data(),
                                              ops.filters.data(), shape,
                                              config);
    EXPECT_EQ(got, expect) << schemeName(scheme);
}

TEST(ConvTest, PointwiseConvMatchesReference)
{
    ConvShape shape;
    shape.inC = 16;
    shape.inH = 8;
    shape.inW = 8;
    shape.outC = 24;
    for (MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy})
        expectConvMatches(shape, scheme, 11);
}

TEST(ConvTest, ThreeByThreeStridedPaddedConvMatchesReference)
{
    ConvShape shape;
    shape.inC = 8;
    shape.inH = 14;
    shape.inW = 14;
    shape.outC = 12;
    shape.kH = 3;
    shape.kW = 3;
    shape.strideH = 2;
    shape.strideW = 2;
    shape.padH = 1;
    shape.padW = 1;
    for (MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy})
        expectConvMatches(shape, scheme, 13);
}

TEST(ConvTest, SevenBySevenInputStemMatchesReference)
{
    // ResNet-style stem: 3 input channels, 7x7 kernel, stride 2.
    ConvShape shape;
    shape.inC = 3;
    shape.inH = 16;
    shape.inW = 16;
    shape.outC = 8;
    shape.kH = 7;
    shape.kW = 7;
    shape.strideH = 2;
    shape.strideW = 2;
    shape.padH = 3;
    shape.padW = 3;
    expectConvMatches(shape, MatMulScheme::Vrmpy, 17);
}

TEST(ConvTest, ShapeArithmetic)
{
    ConvShape shape;
    shape.inC = 64;
    shape.inH = 56;
    shape.inW = 56;
    shape.outC = 64;
    shape.kH = 1;
    shape.kW = 1;
    EXPECT_TRUE(shape.isPointwise());
    EXPECT_EQ(shape.outH(), 56);
    EXPECT_EQ(shape.matmulShape().m, 56 * 56);
    EXPECT_EQ(shape.matmulShape().k, 64);
    EXPECT_EQ(shape.macs(), 56LL * 56 * 64 * 64);

    const ConvKernel pointwise(shape, MatMulConfig{});
    EXPECT_EQ(pointwise.im2colCycles(), 0u);

    shape.kH = shape.kW = 3;
    shape.padH = shape.padW = 1;
    EXPECT_FALSE(shape.isPointwise());
    const ConvKernel padded(shape, MatMulConfig{});
    EXPECT_GT(padded.im2colCycles(), 0u);
}

class DepthwiseStride : public ::testing::TestWithParam<int>
{
};

TEST_P(DepthwiseStride, MatchesReferenceAcrossWidths)
{
    for (int64_t inW : {64, 200, 256}) {
        DepthwiseConfig config;
        config.stride = GetParam();
        config.channels = 3;
        config.inH = 9;
        config.inW = inW;
        config.shift16 = 5;

        Rng rng(static_cast<uint64_t>(inW) * 10 +
                static_cast<uint64_t>(config.stride));
        const auto input = rng.uint8Vector(static_cast<size_t>(
            config.channels * config.inH * config.inW));
        const auto filters =
            rng.int8Vector(static_cast<size_t>(config.channels * 9));

        const DepthwiseKernel kernel(config);
        const auto raw = runKernel(kernel.program(), kernel.buffers(),
                                   kernel.packInput(input.data()),
                                   kernel.packWeights(filters.data()), {},
                                   /*validate=*/true);
        EXPECT_EQ(kernel.unpackOutput(raw.output.data()),
                  DepthwiseKernel::reference(input.data(), filters.data(),
                                             config))
            << "stride " << config.stride << " width " << inW;
    }
}

INSTANTIATE_TEST_SUITE_P(Strides, DepthwiseStride, ::testing::Values(1, 2),
                         [](const auto &info) {
                             return "stride" +
                                    std::to_string(info.param);
                         });

TEST(DepthwiseTest, StrideOneCostsMoreThanStrideTwoPerOutputRow)
{
    // The even/odd double pass roughly doubles the per-tile work but also
    // produces twice the outputs: cycles per output element stay similar.
    auto cyclesFor = [](int stride) {
        DepthwiseConfig config;
        config.stride = stride;
        config.channels = 2;
        config.inH = stride == 2 ? 11 : 7;
        config.inW = 256;
        const DepthwiseKernel kernel(config);
        const auto raw = runKernel(kernel.program(), kernel.buffers(), {},
                                   {}, {});
        return static_cast<double>(raw.stats.cycles) /
               static_cast<double>(config.outH() * config.outW() *
                                   config.channels);
    };
    const double perOut1 = cyclesFor(1);
    const double perOut2 = cyclesFor(2);
    EXPECT_LT(perOut1, 2.0 * perOut2);
    EXPECT_GT(perOut1, 0.5 * perOut2);
}

TEST(DepthwiseTest, MatchesReference)
{
    DepthwiseConfig config;
    config.channels = 6;
    config.inH = 11;
    config.inW = 200;
    config.shift16 = 6;

    Rng rng(23);
    const auto input = rng.uint8Vector(
        static_cast<size_t>(config.channels * config.inH * config.inW));
    const auto filters =
        rng.int8Vector(static_cast<size_t>(config.channels * 9));

    const DepthwiseKernel kernel(config);
    const auto packedIn = kernel.packInput(input.data());
    const auto packedW = kernel.packWeights(filters.data());
    const KernelRunResult raw =
        runKernel(kernel.program(), kernel.buffers(), packedIn, packedW,
                  {}, /*validate=*/true);
    const auto got = kernel.unpackOutput(raw.output.data());
    const auto expect = DepthwiseKernel::reference(
        input.data(), filters.data(), config);
    EXPECT_EQ(got, expect);
}

TEST(DepthwiseTest, UnrolledRowsStayCorrect)
{
    DepthwiseConfig config;
    config.channels = 3;
    config.inH = 19; // outH = 9, not divisible by 2
    config.inW = 128;
    EXPECT_THROW((DepthwiseKernel{[&] {
                     auto c = config;
                     c.unrollRows = 2;
                     return c;
                 }()}),
                 FatalError);

    config.inH = 21; // outH = 10
    config.unrollRows = 2;
    Rng rng(29);
    const auto input = rng.uint8Vector(
        static_cast<size_t>(config.channels * config.inH * config.inW));
    const auto filters =
        rng.int8Vector(static_cast<size_t>(config.channels * 9));
    const DepthwiseKernel kernel(config);
    const auto raw = runKernel(kernel.program(), kernel.buffers(),
                               kernel.packInput(input.data()),
                               kernel.packWeights(filters.data()), {},
                               true);
    EXPECT_EQ(kernel.unpackOutput(raw.output.data()),
              DepthwiseKernel::reference(input.data(), filters.data(),
                                         config));
}

/** Run a depthwise kernel on seeded planes; returns (got, expected). */
std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
runDepthwise(const DepthwiseConfig &config, uint64_t seed)
{
    Rng rng(seed);
    const auto input = rng.uint8Vector(
        static_cast<size_t>(config.channels * config.inH * config.inW));
    const auto filters = rng.int8Vector(
        static_cast<size_t>(config.channels * config.kH * config.kW));
    const DepthwiseKernel kernel(config);
    const auto raw = runKernel(kernel.program(), kernel.buffers(),
                               kernel.packInput(input.data()),
                               kernel.packWeights(filters.data()), {},
                               /*validate=*/true);
    return {kernel.unpackOutput(raw.output.data()),
            DepthwiseKernel::reference(input.data(), filters.data(),
                                       config)};
}

/** (stride, (kH, kW)), with the graph's "same" padding of (k - 1) / 2. */
class DepthwiseGrid
    : public ::testing::TestWithParam<std::tuple<int, std::tuple<int, int>>>
{
};

TEST_P(DepthwiseGrid, BandedPlanesMatchReferenceAtEveryWidth)
{
    const int stride = std::get<0>(GetParam());
    const auto [kH, kW] = std::get<1>(GetParam());
    for (int64_t inW = 1; inW <= 256; ++inW) {
        DepthwiseConfig config;
        config.channels = 2;
        config.inH = 7;
        config.inW = inW;
        config.kH = kH;
        config.kW = kW;
        config.stride = stride;
        config.padH = (kH - 1) / 2;
        config.padW = (kW - 1) / 2;
        config.shift16 = 6;
        const auto [got, expect] = runDepthwise(
            config, static_cast<uint64_t>(inW * 100 + kW * 10 + stride));
        ASSERT_EQ(got, expect) << "width " << inW;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Filters, DepthwiseGrid,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(std::make_tuple(3, 3),
                                         std::make_tuple(1, 1),
                                         std::make_tuple(1, 3),
                                         std::make_tuple(1, 5),
                                         std::make_tuple(1, 15))),
    [](const auto &info) {
        const auto &filter = std::get<1>(info.param);
        return "stride" + std::to_string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<0>(filter)) + "x" +
               std::to_string(std::get<1>(filter));
    });

TEST(DepthwiseTest, WidthOnePlanesRunAsOneRow)
{
    for (int64_t stride : {1, 2}) {
        for (int64_t k : {3, 5, 15}) {
            for (int64_t inH = 1; inH <= 256; inH += 3) {
                DepthwiseConfig config;
                config.channels = 3;
                config.inH = inH;
                config.inW = 1;
                config.kH = k;
                config.kW = 1;
                config.stride = stride;
                config.padH = (k - 1) / 2;
                EXPECT_EQ(DepthwiseKernel(config).config().inH, 1);
                const auto [got, expect] =
                    runDepthwise(config, static_cast<uint64_t>(inH * k));
                ASSERT_EQ(got, expect)
                    << "stride " << stride << " k " << k << " height "
                    << inH;
            }
        }
    }
}

TEST(DepthwiseTest, LargeFiltersRunNatively)
{
    // 7x7 needs 21 coefficient words, one more than a channel hoists;
    // 1x133's last tap group reads past a 384-byte buffer row.
    for (const auto &[kH, kW] : {std::pair{7, 7}, std::pair{1, 133}}) {
        for (int64_t stride : {1, 2}) {
            for (int64_t inW : {5, 30, 100, 256}) {
                DepthwiseConfig config;
                config.channels = 2;
                config.inH = 9;
                config.inW = inW;
                config.kH = kH;
                config.kW = kW;
                config.stride = stride;
                config.padH = (kH - 1) / 2;
                config.padW = (kW - 1) / 2;
                const auto [got, expect] = runDepthwise(
                    config, static_cast<uint64_t>(inW * 10 + stride));
                ASSERT_EQ(got, expect) << kH << "x" << kW << " stride "
                                       << stride << " width " << inW;
            }
        }
    }
}

TEST(DepthwiseTest, ShortRowsShareOneRowTile)
{
    // 14x14, 3x3, pad 1: 16-byte rows, so all 14 output rows sit side by
    // side in one row tile per channel.
    DepthwiseConfig small;
    small.channels = 4;
    small.inH = small.inW = 14;
    small.stride = 1;
    small.padH = small.padW = 1;
    const DepthwiseTiling banded = small.tiling();
    EXPECT_EQ(banded.bands, 14);
    EXPECT_EQ(banded.bandRows, 1);
    EXPECT_EQ(small.rowTiles(), 4);
    EXPECT_NEAR(small.laneFill(), 14.0 * 14.0 / 256.0, 1e-12);

    // A 256-wide row with its padding outgrows the 256-byte window: two
    // column tiles, one band each.
    DepthwiseConfig wide = small;
    wide.inH = wide.inW = 256;
    const DepthwiseTiling tiled = wide.tiling();
    EXPECT_EQ(tiled.colTiles, 2);
    EXPECT_EQ(tiled.bands, 1);
    EXPECT_EQ(wide.rowTiles(), 4 * 2 * 256);
}

TEST(UnrollTest, ShapeClassification)
{
    EXPECT_EQ(classifyOutputShape(1024, 32), OutputShapeClass::Skinny);
    EXPECT_EQ(classifyOutputShape(32, 1024), OutputShapeClass::Fat);
    EXPECT_EQ(classifyOutputShape(128, 128), OutputShapeClass::NearSquare);
    EXPECT_EQ(classifyOutputShape(128, 256), OutputShapeClass::NearSquare);
}

TEST(UnrollTest, AdaptiveChoiceRespectsBudgets)
{
    // Fat output on vrmpy: wide column tiles but never beyond the
    // no-spill budget.
    const UnrollChoice fat =
        adaptiveUnroll(MatMulShape{32, 64, 2048}, MatMulScheme::Vrmpy);
    EXPECT_LE(fat.cols, 4);
    EXPECT_GT(fat.cols, 1);

    // Tiny output: never unroll past the problem size.
    const UnrollChoice tiny =
        adaptiveUnroll(MatMulShape{16, 4, 2}, MatMulScheme::Vmpy);
    EXPECT_LE(tiny.cols, 2);
    EXPECT_LE(tiny.k, 4);

    // Near-square lands on the paper's 4-4.
    const UnrollChoice square =
        adaptiveUnroll(MatMulShape{256, 256, 256}, MatMulScheme::Vmpy);
    EXPECT_EQ(square.cols, 4);
    EXPECT_EQ(square.k, 4);
}

TEST(UnrollTest, AdaptiveChoiceNeverSpills)
{
    // Every scheme's adaptive tile keeps its accumulators in the bank:
    // skinny, square and fat outputs, and tiny n and k.
    const MatMulShape shapes[] = {{2048, 256, 64}, {256, 256, 256},
                                  {32, 64, 2048},  {512, 512, 3},
                                  {512, 2, 512},   {16, 4, 2}};
    for (const MatMulScheme scheme :
         {MatMulScheme::Vmpy, MatMulScheme::Vmpa, MatMulScheme::Vrmpy})
        for (const MatMulShape &shape : shapes) {
            const UnrollChoice choice = adaptiveUnroll(shape, scheme);
            const MatMulKernel kernel(
                shape, withUnroll({.scheme = scheme}, choice));
            EXPECT_EQ(kernel.buffers().scratchBytes, 0)
                << schemeName(scheme) << " " << shape.m << "x" << shape.k
                << "x" << shape.n << " unroll " << choice.outer << "/"
                << choice.cols << "/" << choice.k;
        }
}

TEST(UnrollTest, AdaptiveBeatsNoUnrollOnNearSquare)
{
    const MatMulShape shape{128, 64, 64};
    Rng rng(5);
    const auto a =
        rng.uint8Vector(static_cast<size_t>(shape.m * shape.k));
    const auto w = rng.int8Vector(static_cast<size_t>(shape.k * shape.n));

    MatMulConfig base;
    base.scheme = MatMulScheme::Vrmpy;

    const MatMulKernel plain(shape, base);
    const MatMulKernel adaptive(
        shape, withUnroll(base, adaptiveUnroll(shape, base.scheme)));

    const auto plainRun = runMatMul(plain, a.data(), w.data());
    const auto adaptiveRun = runMatMul(adaptive, a.data(), w.data());
    EXPECT_EQ(plainRun.output, adaptiveRun.output);
    EXPECT_LT(adaptiveRun.stats.cycles, plainRun.stats.cycles);
}

} // namespace
} // namespace gcd2::kernels
