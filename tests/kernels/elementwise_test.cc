/**
 * @file
 * Elementwise kernel correctness, the generators' no-dead-code
 * invariant, and the division-vs-LUT equivalence that underpins the
 * paper's "other optimizations" pass.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/lint.h"
#include "analysis/schedule_check.h"
#include "common/rng.h"
#include "kernels/elementwise.h"
#include "kernels/runner.h"
#include "vliw/packer.h"

namespace gcd2::kernels {
namespace {

std::vector<uint8_t>
runElementwise(const ElementwiseKernel &kernel, const uint8_t *a,
               const uint8_t *b, dsp::TimingStats *statsOut = nullptr)
{
    const auto input = kernel.packInput(a);
    const auto second = kernel.packSecond(b);
    const KernelRunResult raw =
        runKernel(kernel.program(), kernel.buffers(), input, second, {},
                  /*validate=*/true);
    if (statsOut)
        *statsOut = raw.stats;
    return kernel.unpackOutput(raw.output.data());
}

class ElementwiseOps
    : public ::testing::TestWithParam<std::tuple<EwOp, int64_t, int>>
{
};

TEST_P(ElementwiseOps, SimulatorMatchesReference)
{
    const auto [op, length, unroll] = GetParam();
    EwConfig config;
    config.op = op;
    config.length = length;
    config.unroll = unroll;
    config.clampLo = 16;
    config.clampHi = 200;
    config.denominator = 7;
    if (op == EwOp::Lut) {
        config.table.resize(256);
        for (int v = 0; v < 256; ++v)
            config.table[static_cast<size_t>(v)] =
                static_cast<uint8_t>((v * 7 + 3) & 0xff);
    }

    Rng rng(static_cast<uint64_t>(length) * 31 + unroll);
    const auto a = rng.uint8Vector(static_cast<size_t>(length));
    const auto b = rng.uint8Vector(static_cast<size_t>(length));

    const ElementwiseKernel kernel(config);
    const auto got = runElementwise(kernel, a.data(), b.data());
    const auto expect =
        ElementwiseKernel::reference(a.data(), b.data(), config);
    EXPECT_EQ(got, expect);
}

TEST_P(ElementwiseOps, EmitsNoDeadCode)
{
    // The cost model simulates the generated program and the compile
    // serves it as is, so every instruction must feed a store or branch.
    const auto [op, length, unroll] = GetParam();
    EwConfig config;
    config.op = op;
    config.length = length;
    config.unroll = unroll;
    const ElementwiseKernel kernel(config);

    const std::vector<uint8_t> dead = analysis::deadInstructionMask(
        analysis::buildBlockGraph(kernel.program()));
    EXPECT_EQ(std::count(dead.begin(), dead.end(), 1), 0);

    const dsp::PackedProgram packed = vliw::pack(kernel.program());
    const analysis::ScheduleCheck check =
        analysis::checkSchedule(packed, analysis::LintDepth::Full);
    EXPECT_EQ(check.lint.deadStore, 0u);
    EXPECT_EQ(check.errors(), 0u);
}

std::string
ewParamName(
    const ::testing::TestParamInfo<std::tuple<EwOp, int64_t, int>> &info)
{
    return std::string(ewOpName(std::get<0>(info.param))) + "_len" +
           std::to_string(std::get<1>(info.param)) + "_u" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ElementwiseOps,
    ::testing::Combine(::testing::Values(EwOp::Add, EwOp::MaxPool,
                                         EwOp::AvgPool, EwOp::Clamp,
                                         EwOp::Requant, EwOp::Div,
                                         EwOp::DivLut, EwOp::Lut),
                       ::testing::Values<int64_t>(64, 128, 300, 1024),
                       ::testing::Values(1, 2, 4)),
    ewParamName);

TEST(ElementwiseTest, DivAndLutProduceIdenticalResults)
{
    // The paper's optimization: "replacing an expensive division operation
    // with a database lookup" must be result-preserving.
    EwConfig div;
    div.op = EwOp::Div;
    div.length = 512;
    div.denominator = 12;
    EwConfig lut = div;
    lut.op = EwOp::DivLut;

    Rng rng(17);
    const auto a = rng.uint8Vector(512);

    dsp::TimingStats divStats, lutStats;
    const auto divOut = runElementwise(ElementwiseKernel(div), a.data(),
                                       nullptr, &divStats);
    const auto lutOut = runElementwise(ElementwiseKernel(lut), a.data(),
                                       nullptr, &lutStats);
    EXPECT_EQ(divOut, lutOut);

    // ... and much faster: DIV occupies the multiply pipe for 24 cycles.
    EXPECT_LT(2 * lutStats.cycles, divStats.cycles);
}

TEST(ElementwiseTest, UnrollingReducesCycles)
{
    EwConfig narrow;
    narrow.op = EwOp::Add;
    narrow.length = 4096;
    narrow.unroll = 1;
    EwConfig wide = narrow;
    wide.unroll = 4;

    Rng rng(3);
    const auto a = rng.uint8Vector(4096);
    const auto b = rng.uint8Vector(4096);

    dsp::TimingStats narrowStats, wideStats;
    const auto outNarrow = runElementwise(ElementwiseKernel(narrow),
                                          a.data(), b.data(), &narrowStats);
    const auto outWide = runElementwise(ElementwiseKernel(wide), a.data(),
                                        b.data(), &wideStats);
    EXPECT_EQ(outNarrow, outWide);
    EXPECT_LT(wideStats.cycles, narrowStats.cycles);
}

TEST(ElementwiseTest, VectorLutBeatsScalarLookupLoop)
{
    // The "other optimizations" pass vectorizes byte-table lookups with
    // VLUT; the scalar lookup loop it replaces is far slower.
    EwConfig scalar;
    scalar.op = EwOp::DivLut;
    scalar.length = 2048;
    scalar.denominator = 9;
    EwConfig vec;
    vec.op = EwOp::Lut;
    vec.length = 2048;
    vec.table.resize(256);
    for (int v = 0; v < 256; ++v)
        vec.table[static_cast<size_t>(v)] = static_cast<uint8_t>(
            static_cast<int32_t>(static_cast<int8_t>(v)) / 9);

    Rng rng(7);
    const auto a = rng.uint8Vector(2048);
    dsp::TimingStats scalarStats, vecStats;
    const auto scalarOut = runElementwise(ElementwiseKernel(scalar),
                                          a.data(), nullptr, &scalarStats);
    const auto vecOut = runElementwise(ElementwiseKernel(vec), a.data(),
                                       nullptr, &vecStats);
    EXPECT_EQ(scalarOut, vecOut); // same table semantics
    EXPECT_GT(scalarStats.cycles, 10 * vecStats.cycles);
}

TEST(ElementwiseTest, PoolingHalvesLength)
{
    EwConfig config;
    config.op = EwOp::MaxPool;
    config.length = 256;
    const ElementwiseKernel kernel(config);
    EXPECT_EQ(kernel.outputLength(), 128);
}

} // namespace
} // namespace gcd2::kernels
