#include "baselines/kernel_compilers.h"

#include "common/logging.h"
#include "select/cost_model.h"
#include "vliw/packer.h"

namespace gcd2::baselines {

using kernels::ConvShape;
using kernels::MatMulScheme;
using kernels::UnrollStrategy;

const char *
kernelCompilerName(KernelCompiler compiler)
{
    switch (compiler) {
      case KernelCompiler::Halide:
        return "Halide";
      case KernelCompiler::Tvm:
        return "TVM";
      case KernelCompiler::Rake:
        return "RAKE";
      case KernelCompiler::GcdB:
        return "GCD_b";
      case KernelCompiler::Gcd2:
        return "GCD2";
    }
    return "?";
}

namespace {

struct CompilerProfile
{
    vliw::PackPolicy packing;
    UnrollStrategy unroll;
    bool selectsInstruction; // false: pinned to vrmpy lowering
};

CompilerProfile
profileOf(KernelCompiler compiler)
{
    switch (compiler) {
      case KernelCompiler::Halide:
        return {vliw::PackPolicy::InOrder, UnrollStrategy::None, false};
      case KernelCompiler::Tvm:
        return {vliw::PackPolicy::ListSched, UnrollStrategy::Mid, false};
      case KernelCompiler::Rake:
        return {vliw::PackPolicy::ListSched, UnrollStrategy::Mid2, true};
      case KernelCompiler::GcdB:
        return {vliw::PackPolicy::ListSched, UnrollStrategy::Adaptive,
                true};
      case KernelCompiler::Gcd2:
        return {vliw::PackPolicy::Sda, UnrollStrategy::Adaptive, true};
    }
    GCD2_PANIC("unknown compiler");
}

/** Static packet count of the kernel's tile program under the packer. */
size_t
staticPacketsOf(const kernels::MatMulShape &tileShape,
                MatMulScheme scheme, const kernels::UnrollChoice &choice,
                vliw::PackPolicy packing)
{
    kernels::MatMulConfig config;
    config.scheme = scheme;
    config = kernels::withUnroll(config, choice);
    const kernels::MatMulKernel kernel(tileShape, config);
    vliw::PackOptions opts;
    opts.policy = packing;
    return vliw::pack(kernel.program(), opts).packets.size();
}

} // namespace

KernelCompileResult
compileConv(const ConvShape &shape, KernelCompiler compiler)
{
    const CompilerProfile profile = profileOf(compiler);

    select::CostModelOptions options;
    options.packOptions.policy = profile.packing;
    options.unroll = profile.unroll;
    select::CostModel model(options);

    const kernels::MatMulShape mm = shape.matmulShape();
    const uint64_t im2col =
        shape.isPointwise()
            ? 0
            : static_cast<uint64_t>(4 * (mm.m * mm.k / 128) + 16);

    std::vector<MatMulScheme> candidates;
    if (profile.selectsInstruction) {
        candidates = {MatMulScheme::Vmpy, MatMulScheme::Vmpa,
                      MatMulScheme::Vrmpy};
    } else {
        candidates = {MatMulScheme::Vrmpy};
    }

    KernelCompileResult best;
    best.cycles = UINT64_MAX;
    for (MatMulScheme scheme : candidates) {
        const select::NodeExecStats stats =
            model.matmulStats(mm, scheme, im2col);
        if (stats.cycles < best.cycles) {
            best.scheme = scheme;
            best.cycles = stats.cycles;
            best.dynamicPackets = stats.packets;
        }
    }

    // Static packet count of the chosen kernel's inner tile.
    kernels::UnrollChoice choice{1, 1, 1};
    switch (profile.unroll) {
      case UnrollStrategy::None:
        break;
      case UnrollStrategy::Outer:
        choice = kernels::UnrollChoice{4, 1, 1};
        break;
      case UnrollStrategy::Mid:
        choice = kernels::UnrollChoice{1, 4, 1};
        break;
      case UnrollStrategy::Mid2:
        choice = kernels::UnrollChoice{1, 2, 1};
        break;
      case UnrollStrategy::Adaptive:
      case UnrollStrategy::Exhaustive:
        choice = kernels::adaptiveUnroll(mm, best.scheme);
        break;
    }
    const kernels::MatMulShape tile =
        kernels::unrollTile(best.scheme, choice, mm.k);
    best.staticPackets =
        staticPacketsOf(tile, best.scheme, choice, profile.packing);

    kernels::MatMulConfig config;
    config.scheme = best.scheme;
    config = kernels::withUnroll(config, choice);
    best.staticInstructions =
        kernels::MatMulKernel(tile, config).program().code.size();
    return best;
}

const std::vector<ConvShape> &
resnetConvKernels()
{
    auto make = [](int64_t inC, int64_t hw, int64_t outC, int64_t k,
                   int64_t stride, int64_t pad) {
        ConvShape shape;
        shape.inC = inC;
        shape.inH = hw;
        shape.inW = hw;
        shape.outC = outC;
        shape.kH = shape.kW = k;
        shape.strideH = shape.strideW = stride;
        shape.padH = shape.padW = pad;
        return shape;
    };
    // The first 8 unique Conv2D operators of ResNet-50 in execution
    // order (stem, stage-1 bottleneck, stage-2 entry); Table III's three
    // representative kernels are C0, C1, and C7.
    static const std::vector<ConvShape> kKernels = {
        make(3, 224, 64, 7, 2, 3),    // C0: 7x7 stem
        make(64, 56, 64, 1, 1, 0),    // C1: 1x1 reduce
        make(64, 56, 64, 3, 1, 1),    // C2: 3x3
        make(64, 56, 256, 1, 1, 0),   // C3: 1x1 expand
        make(256, 56, 64, 1, 1, 0),   // C4: 1x1 reduce
        make(256, 56, 512, 1, 2, 0),  // C5: shortcut projection
        make(256, 56, 128, 1, 2, 0),  // C6: stage-2 1x1 reduce
        make(128, 28, 128, 3, 1, 1),  // C7: stage-2 3x3
    };
    return kKernels;
}

} // namespace gcd2::baselines
