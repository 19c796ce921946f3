#include "kernels/elementwise.h"

#include <algorithm>

#include "common/logging.h"

namespace gcd2::kernels {

namespace {

using dsp::Opcode;
using dsp::makeAddi;
using dsp::makeBinary;
using dsp::makeJumpNz;
using dsp::makeLoad;
using dsp::makeMov;
using dsp::makeMovi;
using dsp::makeStore;
using dsp::makeVecBinary;
using dsp::makeVload;
using dsp::makeVlut;
using dsp::makeVshuff;
using dsp::makeVsplatw;
using dsp::makeVstore;
using dsp::sreg;
using dsp::vreg;

constexpr int kRegCtr = 5;
constexpr int kRegIn = 6;
constexpr int kRegSecond = 7;
constexpr int kRegOut = 8;

int64_t
roundUp(int64_t v, int64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

uint32_t
byteSplat(int v)
{
    const uint32_t b = static_cast<uint32_t>(v) & 0xff;
    return b | (b << 8) | (b << 16) | (b << 24);
}

} // namespace

const char *
ewOpName(EwOp op)
{
    switch (op) {
      case EwOp::Add:
        return "add";
      case EwOp::MaxPool:
        return "maxpool";
      case EwOp::AvgPool:
        return "avgpool";
      case EwOp::Clamp:
        return "clamp";
      case EwOp::Requant:
        return "requant";
      case EwOp::Div:
        return "div";
      case EwOp::DivLut:
        return "div_lut";
      case EwOp::Lut:
        return "lut";
    }
    return "?";
}

ElementwiseKernel::ElementwiseKernel(const EwConfig &config)
    : config_(config)
{
    GCD2_REQUIRE(config.length > 0, "elementwise length must be positive");
    GCD2_REQUIRE(config.unroll >= 1, "unroll must be >= 1");
    GCD2_REQUIRE(config.denominator > 0, "denominator must be positive");

    if (config_.op == EwOp::Div || config_.op == EwOp::DivLut)
        generateScalarDiv();
    else
        generateVector();
}

int64_t
ElementwiseKernel::outputLength() const
{
    return (config_.op == EwOp::MaxPool || config_.op == EwOp::AvgPool)
               ? config_.length / 2
               : config_.length;
}

void
ElementwiseKernel::generateVector()
{
    const bool pooling =
        config_.op == EwOp::MaxPool || config_.op == EwOp::AvgPool;
    const int64_t bytesPerIterIn =
        (pooling ? 256 : 128) * config_.unroll;
    paddedLen_ = roundUp(config_.length, bytesPerIterIn);
    const int64_t iters = paddedLen_ / bytesPerIterIn;

    buffers_.inputBytes = paddedLen_;
    buffers_.weightBytes = config_.op == EwOp::Add
                               ? paddedLen_
                               : (config_.op == EwOp::Lut ? 256 : 0);
    buffers_.outputBytes = pooling ? paddedLen_ / 2 : paddedLen_;
    buffers_.scratchBytes = 0;
    declareKernelNoalias(prog_, buffers_, /*scratch=*/false);

    // Setup emits only what the loop reads (the dead-store lint holds
    // every generator to this): r0 feeds Requant's zero splat, the
    // second pointer only Add's operand and Lut's table.
    if (config_.op == EwOp::Requant)
        prog_.push(makeMovi(sreg(0), 0));
    prog_.push(makeMovi(sreg(kRegCtr), iters));
    prog_.push(makeMov(sreg(kRegIn), sreg(kRegInput)));
    if (config_.op == EwOp::Add || config_.op == EwOp::Lut)
        prog_.push(makeMov(sreg(kRegSecond), sreg(kRegWeights)));
    prog_.push(makeMov(sreg(kRegOut), sreg(kRegOutput)));

    // Loop-invariant constant vectors.
    if (config_.op == EwOp::Lut) {
        // The 256-byte lookup table lives in the pair v30:v31.
        prog_.push(makeVload(vreg(30), sreg(kRegSecond), 0));
        prog_.push(makeVload(vreg(31), sreg(kRegSecond), 128));
    } else if (config_.op == EwOp::Clamp) {
        prog_.push(makeMovi(sreg(9),
                            static_cast<int64_t>(byteSplat(config_.clampLo))));
        prog_.push(makeVsplatw(vreg(30), sreg(9)));
        prog_.push(makeMovi(sreg(10),
                            static_cast<int64_t>(byteSplat(config_.clampHi))));
        prog_.push(makeVsplatw(vreg(31), sreg(10)));
    } else if (config_.op == EwOp::Requant) {
        prog_.push(makeVsplatw(vreg(29), sreg(0)));
    }

    const int loop = prog_.newLabel();
    prog_.bindLabel(loop);
    for (int u = 0; u < config_.unroll; ++u) {
        // Rotate temp banks so unrolled iterations are independent: eight
        // 3-register banks for the 1-in-1-out ops, four 6-register banks
        // (pair-aligned) for pooling.
        const bool pooling2 =
            config_.op == EwOp::MaxPool || config_.op == EwOp::AvgPool;
        const int base = pooling2 ? (u % 4) * 6 : (u % 8) * 3;
        const int64_t inOff =
            static_cast<int64_t>(u) * (pooling ? 256 : 128);
        const int64_t outOff = static_cast<int64_t>(u) * 128;
        switch (config_.op) {
          case EwOp::Add:
            prog_.push(makeVload(vreg(base), sreg(kRegIn), inOff));
            prog_.push(makeVload(vreg(base + 1), sreg(kRegSecond), inOff));
            prog_.push(makeVecBinary(Opcode::VAVGB, vreg(base + 2),
                                     vreg(base), vreg(base + 1)));
            prog_.push(makeVstore(sreg(kRegOut), vreg(base + 2), outOff));
            break;
          case EwOp::MaxPool:
          case EwOp::AvgPool: {
            prog_.push(makeVload(vreg(base), sreg(kRegIn), inOff));
            prog_.push(makeVload(vreg(base + 1), sreg(kRegIn),
                                 inOff + 128));
            prog_.push(makeVshuff(Opcode::VDEAL, vreg(base + 2),
                                  vreg(base), vreg(base + 1), 0));
            const Opcode combine = config_.op == EwOp::MaxPool
                                       ? Opcode::VMAXUB
                                       : Opcode::VAVGB;
            prog_.push(makeVecBinary(combine, vreg(base + 4),
                                     vreg(base + 2), vreg(base + 3)));
            prog_.push(makeVstore(sreg(kRegOut), vreg(base + 4), outOff));
            break;
          }
          case EwOp::Requant:
            prog_.push(makeVload(vreg(base), sreg(kRegIn), inOff));
            prog_.push(makeVecBinary(Opcode::VAVGB, vreg(base + 1),
                                     vreg(base), vreg(29)));
            prog_.push(makeVstore(sreg(kRegOut), vreg(base + 1), outOff));
            break;
          case EwOp::Clamp:
            prog_.push(makeVload(vreg(base), sreg(kRegIn), inOff));
            prog_.push(makeVecBinary(Opcode::VMAXUB, vreg(base + 1),
                                     vreg(base), vreg(30)));
            prog_.push(makeVecBinary(Opcode::VMINUB, vreg(base + 2),
                                     vreg(base + 1), vreg(31)));
            prog_.push(makeVstore(sreg(kRegOut), vreg(base + 2), outOff));
            break;
          case EwOp::Lut:
            prog_.push(makeVload(vreg(base), sreg(kRegIn), inOff));
            prog_.push(makeVlut(vreg(base + 1), vreg(30), vreg(base)));
            prog_.push(makeVstore(sreg(kRegOut), vreg(base + 1), outOff));
            break;
          case EwOp::Div:
          case EwOp::DivLut:
            GCD2_PANIC("scalar ops use generateScalarDiv");
        }
    }
    prog_.push(makeAddi(sreg(kRegIn), sreg(kRegIn), bytesPerIterIn));
    if (config_.op == EwOp::Add)
        prog_.push(makeAddi(sreg(kRegSecond), sreg(kRegSecond),
                            bytesPerIterIn));
    prog_.push(makeAddi(sreg(kRegOut), sreg(kRegOut),
                        static_cast<int64_t>(config_.unroll) * 128));
    prog_.push(makeAddi(sreg(kRegCtr), sreg(kRegCtr), -1));
    prog_.push(makeJumpNz(sreg(kRegCtr), loop));
}

void
ElementwiseKernel::generateScalarDiv()
{
    paddedLen_ = roundUp(config_.length, config_.unroll);
    const int64_t iters = paddedLen_ / config_.unroll;

    buffers_.inputBytes = paddedLen_;
    buffers_.weightBytes = config_.op == EwOp::DivLut ? 256 : 0;
    buffers_.outputBytes = paddedLen_;
    buffers_.scratchBytes = 0;
    declareKernelNoalias(prog_, buffers_, /*scratch=*/false);

    const bool lut = config_.op == EwOp::DivLut;
    prog_.push(makeMovi(sreg(kRegCtr), iters));
    prog_.push(makeMov(sreg(kRegIn), sreg(kRegInput)));
    if (lut)
        prog_.push(makeMov(sreg(kRegSecond), sreg(kRegWeights))); // LUT base
    prog_.push(makeMov(sreg(kRegOut), sreg(kRegOutput)));
    if (lut)
        prog_.push(makeMovi(sreg(12), 0xff)); // byte zero-extension mask
    else
        prog_.push(makeMovi(sreg(11), config_.denominator));

    const int loop = prog_.newLabel();
    prog_.bindLabel(loop);
    for (int u = 0; u < config_.unroll; ++u) {
        // Rotate over four scalar temp banks.
        const int t = 13 + 4 * (u % 4);
        prog_.push(makeLoad(Opcode::LOADB, sreg(t), sreg(kRegIn), u));
        if (!lut) {
            prog_.push(makeBinary(Opcode::DIV, sreg(t + 1), sreg(t),
                                  sreg(11)));
            prog_.push(makeStore(Opcode::STOREB, sreg(kRegOut),
                                 sreg(t + 1), u));
        } else {
            // Zero-extend the byte, index the 256-entry lookup table.
            prog_.push(makeBinary(Opcode::AND, sreg(t + 1), sreg(t),
                                  sreg(12)));
            prog_.push(makeBinary(Opcode::ADD, sreg(t + 2),
                                  sreg(kRegSecond), sreg(t + 1)));
            prog_.push(makeLoad(Opcode::LOADB, sreg(t + 3), sreg(t + 2),
                                0));
            prog_.push(makeStore(Opcode::STOREB, sreg(kRegOut),
                                 sreg(t + 3), u));
        }
    }
    prog_.push(makeAddi(sreg(kRegIn), sreg(kRegIn), config_.unroll));
    prog_.push(makeAddi(sreg(kRegOut), sreg(kRegOut), config_.unroll));
    prog_.push(makeAddi(sreg(kRegCtr), sreg(kRegCtr), -1));
    prog_.push(makeJumpNz(sreg(kRegCtr), loop));
}

std::vector<uint8_t>
ElementwiseKernel::packInput(const uint8_t *data) const
{
    std::vector<uint8_t> out(static_cast<size_t>(buffers_.inputBytes), 0);
    std::copy(data, data + config_.length, out.begin());
    return out;
}

std::vector<uint8_t>
ElementwiseKernel::packSecond(const uint8_t *b) const
{
    if (config_.op == EwOp::Add) {
        GCD2_REQUIRE(b != nullptr, "Add needs a second operand");
        std::vector<uint8_t> out(static_cast<size_t>(buffers_.weightBytes),
                                 0);
        std::copy(b, b + config_.length, out.begin());
        return out;
    }
    if (config_.op == EwOp::Lut) {
        std::vector<uint8_t> table(256);
        for (int v = 0; v < 256; ++v)
            table[static_cast<size_t>(v)] =
                config_.table.empty() ? static_cast<uint8_t>(v)
                                      : config_.table[static_cast<size_t>(v)];
        return table;
    }
    if (config_.op == EwOp::DivLut) {
        // lut[v] = sign-extended(v) / denom: exactly what the DIV variant
        // computes, so both produce identical outputs.
        std::vector<uint8_t> lut(256);
        for (int v = 0; v < 256; ++v) {
            const auto sv = static_cast<int32_t>(static_cast<int8_t>(v));
            lut[static_cast<size_t>(v)] =
                static_cast<uint8_t>(sv / config_.denominator);
        }
        return lut;
    }
    return {};
}

std::vector<uint8_t>
ElementwiseKernel::unpackOutput(const uint8_t *packed) const
{
    return std::vector<uint8_t>(packed, packed + outputLength());
}

std::vector<uint8_t>
ElementwiseKernel::reference(const uint8_t *a, const uint8_t *b,
                             const EwConfig &config)
{
    const int64_t len = config.length;
    std::vector<uint8_t> out;
    switch (config.op) {
      case EwOp::Add:
        GCD2_REQUIRE(b != nullptr, "Add needs a second operand");
        out.resize(static_cast<size_t>(len));
        for (int64_t i = 0; i < len; ++i)
            out[static_cast<size_t>(i)] = static_cast<uint8_t>(
                (static_cast<uint32_t>(a[i]) + b[i] + 1) >> 1);
        break;
      case EwOp::MaxPool:
        out.resize(static_cast<size_t>(len / 2));
        for (int64_t i = 0; i < len / 2; ++i)
            out[static_cast<size_t>(i)] = std::max(a[2 * i], a[2 * i + 1]);
        break;
      case EwOp::AvgPool:
        out.resize(static_cast<size_t>(len / 2));
        for (int64_t i = 0; i < len / 2; ++i)
            out[static_cast<size_t>(i)] = static_cast<uint8_t>(
                (static_cast<uint32_t>(a[2 * i]) + a[2 * i + 1] + 1) >> 1);
        break;
      case EwOp::Clamp:
        out.resize(static_cast<size_t>(len));
        for (int64_t i = 0; i < len; ++i)
            out[static_cast<size_t>(i)] = static_cast<uint8_t>(
                std::clamp<int>(a[i], config.clampLo, config.clampHi));
        break;
      case EwOp::Requant:
        out.resize(static_cast<size_t>(len));
        for (int64_t i = 0; i < len; ++i)
            out[static_cast<size_t>(i)] =
                static_cast<uint8_t>((static_cast<uint32_t>(a[i]) + 1) >> 1);
        break;
      case EwOp::Div:
      case EwOp::DivLut:
        out.resize(static_cast<size_t>(len));
        for (int64_t i = 0; i < len; ++i) {
            const auto sv =
                static_cast<int32_t>(static_cast<int8_t>(a[i]));
            out[static_cast<size_t>(i)] =
                static_cast<uint8_t>(sv / config.denominator);
        }
        break;
      case EwOp::Lut:
        out.resize(static_cast<size_t>(len));
        for (int64_t i = 0; i < len; ++i)
            out[static_cast<size_t>(i)] =
                config.table.empty() ? a[i] : config.table[a[i]];
        break;
    }
    return out;
}

} // namespace gcd2::kernels
