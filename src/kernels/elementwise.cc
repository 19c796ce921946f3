#include "kernels/elementwise.h"

#include <algorithm>

#include "common/logging.h"
#include "common/round.h"

namespace gcd2::kernels {

namespace {

using common::roundUp;
using dsp::Opcode;
using dsp::makeBinary;
using dsp::makeLoad;
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

// The loop counter is r5; the pointer inductions follow it.
constexpr int kRegIn = 6;
constexpr int kRegSecond = 7;
constexpr int kRegOut = 8;

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

    generate();
}

int64_t
ElementwiseKernel::outputLength() const
{
    return (config_.op == EwOp::MaxPool || config_.op == EwOp::AvgPool)
               ? config_.length / 2
               : config_.length;
}

void
ElementwiseKernel::generate()
{
    const EwOp op = config_.op;
    const int unroll = config_.unroll;
    const bool scalar = op == EwOp::Div || op == EwOp::DivLut;
    const bool pooling = op == EwOp::MaxPool || op == EwOp::AvgPool;
    // Each unrolled step reads one byte (scalar ops), one vector, or a
    // vector pair (pooling), and writes one byte or one vector.
    const int64_t inStep =
        static_cast<int64_t>(unroll) * (scalar ? 1 : pooling ? 256 : 128);
    const int64_t outStep = static_cast<int64_t>(unroll) * (scalar ? 1 : 128);
    paddedLen_ = roundUp(config_.length, inStep);

    buffers_.inputBytes = paddedLen_;
    buffers_.weightBytes =
        op == EwOp::Add ? paddedLen_
                        : (op == EwOp::Lut || op == EwOp::DivLut ? 256 : 0);
    buffers_.outputBytes = pooling ? paddedLen_ / 2 : paddedLen_;
    LoopBuilder loops(prog_, buffers_, /*scratch=*/false);

    // Setup emits only what the loop reads (the dead-store lint holds
    // every generator to this): r0 feeds Requant's zero splat, the
    // second pointer only Add's operand and the lookup tables.
    if (op == EwOp::Requant)
        prog_.push(makeMovi(sreg(0), 0));

    // Loop-invariant constants.
    auto constants = [&] {
        switch (op) {
          case EwOp::Lut:
            // The 256-byte lookup table lives in the pair v30:v31.
            prog_.push(makeVload(vreg(30), sreg(kRegSecond), 0));
            prog_.push(makeVload(vreg(31), sreg(kRegSecond), 128));
            break;
          case EwOp::Clamp:
            prog_.push(makeMovi(
                sreg(9), static_cast<int64_t>(byteSplat(config_.clampLo))));
            prog_.push(makeVsplatw(vreg(30), sreg(9)));
            prog_.push(makeMovi(
                sreg(10), static_cast<int64_t>(byteSplat(config_.clampHi))));
            prog_.push(makeVsplatw(vreg(31), sreg(10)));
            break;
          case EwOp::Requant:
            prog_.push(makeVsplatw(vreg(29), sreg(0)));
            break;
          case EwOp::Div:
            prog_.push(makeMovi(sreg(11), config_.denominator));
            break;
          case EwOp::DivLut:
            prog_.push(makeMovi(sreg(12), 0xff)); // byte zero-extension mask
            break;
          case EwOp::Add:
          case EwOp::MaxPool:
          case EwOp::AvgPool:
            break;
        }
    };

    // Unrolled step u. Rotate temp banks so unrolled steps are
    // independent: eight 3-register banks for the 1-in-1-out vector ops,
    // four 6-register banks (pair-aligned) for pooling, four 4-register
    // scalar banks from s13 for the divisions.
    auto step = [&](int u) {
        const int base = pooling ? (u % 4) * 6 : (u % 8) * 3;
        const int t = 13 + 4 * (u % 4);
        const int64_t inOff = u * (inStep / unroll);
        const int64_t outOff = u * (outStep / unroll);
        switch (op) {
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
            const Opcode combine = op == EwOp::MaxPool ? Opcode::VMAXUB
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
            prog_.push(makeLoad(Opcode::LOADB, sreg(t), sreg(kRegIn), u));
            prog_.push(makeBinary(Opcode::DIV, sreg(t + 1), sreg(t),
                                  sreg(11)));
            prog_.push(makeStore(Opcode::STOREB, sreg(kRegOut), sreg(t + 1),
                                 u));
            break;
          case EwOp::DivLut:
            // Zero-extend the byte, index the 256-entry lookup table.
            prog_.push(makeLoad(Opcode::LOADB, sreg(t), sreg(kRegIn), u));
            prog_.push(makeBinary(Opcode::AND, sreg(t + 1), sreg(t),
                                  sreg(12)));
            prog_.push(makeBinary(Opcode::ADD, sreg(t + 2), sreg(kRegSecond),
                                  sreg(t + 1)));
            prog_.push(makeLoad(Opcode::LOADB, sreg(t + 3), sreg(t + 2), 0));
            prog_.push(makeStore(Opcode::STOREB, sreg(kRegOut), sreg(t + 3),
                                 u));
            break;
        }
    };
    auto body = [&] {
        for (int u = 0; u < unroll; ++u)
            step(u);
    };

    // The second pointer walks Add's operand and stays on a table.
    const LoopInit trips = LoopInit::imm(paddedLen_ / inStep);
    const Induction in{kRegIn, LoopInit::reg(kRegInput), inStep};
    const Induction out{kRegOut, LoopInit::reg(kRegOutput), outStep};
    if (op == EwOp::Add || op == EwOp::Lut || op == EwOp::DivLut)
        loops.loop(trips,
                   {in,
                    {kRegSecond, LoopInit::reg(kRegWeights),
                     op == EwOp::Add ? inStep : 0},
                    out},
                   constants, body);
    else
        loops.loop(trips, {in, out}, constants, body);
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
