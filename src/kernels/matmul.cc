#include "kernels/matmul.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "common/round.h"
#include "tensor/quant.h"

namespace gcd2::kernels {

namespace {

using common::roundUp;
using dsp::Opcode;
using dsp::Program;
using dsp::makeLoad;
using dsp::makeMovi;
using dsp::makeVasr;
using dsp::makeVecBinary;
using dsp::makeVload;
using dsp::makeVmpa;
using dsp::makeVmpy;
using dsp::makeVrmpy;
using dsp::makeVshuff;
using dsp::makeVsplatw;
using dsp::makeVstore;
using dsp::sreg;
using dsp::vreg;

// Scalar register allocation (beyond the ABI registers r1-r4 and the
// panel / tile / k loop counters r5-r7; r0 is zero).
constexpr int kRegAPanel = 8;
constexpr int kRegWTile = 9;
constexpr int kRegCPanel = 10;
constexpr int kRegCCol = 11;
constexpr int kRegAK = 12;
constexpr int kRegWK = 13;
constexpr int kRegKTrip = 22; // inner trip count, set once per panel

// The weight-word ring of LoopNestBuilder.
constexpr int kWeightRing[] = {14, 15, 16, 17, 18, 19, 20, 21,
                               23, 24, 25, 26, 27, 28, 29, 30};

// Vector register allocation: v0(:v1) and v30(:v31) are the first row
// panel's input ring, v2..v17 hold the accumulator bank, v18/v19 stage
// spilled accumulators, and v20..v29 hold the further row panels' input
// rings during the k loop and the epilogue's temporaries after it.
constexpr int kInputRing[] = {0, 30};
constexpr int kFirstAccReg = 2;
constexpr int kSpillStage = 18;
constexpr int kPanelRings = 20;    ///< input rings of row panels 1, 2, ...
constexpr int kPanelRingsEnd = 30; ///< one past the last of them

/** The largest ring of at most @p limit registers that divides @p items. */
int
ringDividing(int items, int limit)
{
    int ring = std::min(items, limit);
    while (items % ring != 0)
        --ring;
    return ring;
}

/**
 * Shared loop-nest emitter. The three schemes differ only in their
 * scheme-table row, the multiply, and the requantization epilogue; this
 * builder owns the panel, tile and k loops (emitted through LoopBuilder)
 * and every register the multiplies read or accumulate into.
 *
 * A tile is register-blocked over unrollOut row panels: one k loop
 * computes all of them. Each weight word is loaded once and feeds one
 * multiply per panel, each panel has its own input ring, and the
 * accumulator bank holds one column accumulator per (panel, column). The
 * epilogue runs per panel after the loop.
 *
 * The k loop is software-pipelined by one lookahead ring per operand: a
 * two-stage modulo schedule whose modulo variable expansion is the ring.
 * A load has a latency of 3 and the packer schedules one basic block, so
 * a load placed just before its multiply stalls it, and the first loads
 * of an iteration cannot move into the previous one. Instead, the W
 * weight words of an iteration (word t = u * accCols + c, at byte 4t of
 * the iteration's words: a tile's weights are packed k-major) rotate
 * through R scalars, the largest ring of at most 16 that divides W, and
 * the LOADW of word t is issued R - 1 words ahead of the multiplies that
 * read it. Each input vector (vmpa: pair) is loaded one step ahead:
 * into the other register of its panel's ring when unrollK is even, else
 * into the same register right after the multiplies that read it. A
 * prologue in the k loop's preheader loads the first window, and the
 * last steps of each iteration load the next iteration's first operands,
 * so the packer overlaps iteration i + 1's loads with iteration i's
 * multiplies; as the rings divide W and unrollK, every iteration runs the
 * same code. The last iteration's lookahead reads the next panel's or
 * tile's first words, or the pad past the last tile and panel: addresses
 * no load of its block reads, so even a one-iteration reduction runs the
 * same program as a deep one.
 */
class LoopNestBuilder
{
  public:
    struct Params
    {
        int64_t panels;       ///< outer trip count (already / unrollOut)
        int64_t colTiles;     ///< mid trip count
        int64_t kIters;       ///< inner trip count (already / unrollK)
        int unrollOut;        ///< row panels per tile
        int unrollK;          ///< reduction steps per inner iteration
        int64_t aPanelStride; ///< bytes per panel of packed A
        int64_t cPanelStride; ///< bytes per panel of packed C
        int units;            ///< output column units per tile
        int64_t aKStep;       ///< A pointer bytes per reduction step
        int inputVectors;     ///< vectors per input operand (1 or 2)
        int accCols;          ///< column accumulators per panel
        int accWidth;         ///< vectors per column accumulator (1 or 2)
    };

    LoopNestBuilder(Program &prog, const Params &params)
        : prog_(prog), p_(params), words_(params.unrollK * params.accCols),
          weightRing_(
              ringDividing(words_, static_cast<int>(std::size(kWeightRing)))),
          inputRing_(ringDividing(params.unrollK, 2))
    {
        GCD2_REQUIRE(inputReg(p_.unrollOut, 0) <= kPanelRingsEnd,
                     "unrollOut " << p_.unrollOut
                                  << ": more row panels than input rings");
    }

    /**
     * The kernel's buffers for packed operands of @p input, @p weights
     * and @p output bytes: the input and weights grow by the bytes the
     * last iteration's lookahead reads past them, so the runner's
     * segments and the noalias extents cover those reads, and scratch
     * holds the spilled accumulators (it ends where a panel past the
     * last would start).
     */
    KernelBuffers
    buffers(int64_t input, int64_t weights, int64_t output) const
    {
        return {input + p_.aKStep,
                weights + 4 * static_cast<int64_t>(weightRing_ - 1), output,
                std::max<int64_t>(0, spillOff(p_.unrollOut, 0))};
    }

    /**
     * Emit the full nest through @p loops. @p mul(acc, in, w) is the
     * multiply of one weight word into accumulator register acc;
     * @p epilogue(o, unit) requantizes output column unit `unit` of row
     * panel o into a vector register and returns it, and the nest stores
     * it (one vector per unit and panel).
     */
    template <typename MulFn, typename EpilogueFn>
    void
    emit(LoopBuilder &loops, MulFn mul, EpilogueFn epilogue)
    {
        prog_.push(makeMovi(sreg(0), 0));
        loops.loop(
            LoopInit::imm(p_.panels),
            {{kRegAPanel, LoopInit::reg(kRegInput),
              p_.aPanelStride * p_.unrollOut},
             {kRegCPanel, LoopInit::reg(kRegOutput),
              p_.cPanelStride * p_.unrollOut}},
            [&] {
                // The inner trip count is loop-invariant: materialize it
                // once per panel (in the panel head's free slot) and
                // reload the counter from the register inside the nest.
                // The value-flow analysis still certifies the trip count
                // (the MOV copies an absolute constant), and the idiom
                // exercises the register-trip path end to end.
                loops.loop(
                    LoopInit::imm(p_.colTiles),
                    {{kRegKTrip, LoopInit::imm(p_.kIters)},
                     {kRegWTile, LoopInit::reg(kRegWeights),
                      4 * words_ * p_.kIters},
                     {kRegCCol, LoopInit::reg(kRegCPanel),
                      p_.units * dsp::kVectorBytes}},
                    [&] {
                        emitReduction(loops, mul);
                        for (int o = 0; o < p_.unrollOut; ++o)
                            for (int unit = 0; unit < p_.units; ++unit)
                                prog_.push(makeVstore(
                                    sreg(kRegCCol), vreg(epilogue(o, unit)),
                                    unit * dsp::kVectorBytes +
                                        o * p_.cPanelStride));
                    });
            });
    }

    /*
     * The accumulator bank: slot o * accCols + c, column c of panel o,
     * accumulates in accWidth vectors from v2 on while they fit in
     * v2..v17, and in scratch beyond that, staged through v18(:v19)
     * around every update.
     */
    bool
    spilled(int o, int c) const
    {
        return slot(o, c) >= kAccRegCount / p_.accWidth;
    }

    int64_t
    spillOff(int o, int c) const
    {
        return static_cast<int64_t>(slot(o, c) -
                                    kAccRegCount / p_.accWidth) *
               128 * p_.accWidth;
    }

    /** The register holding panel @p o's column @p c accumulator; a
     *  spilled one is reloaded into the stage first. */
    int
    reloadAcc(int o, int c)
    {
        if (spilled(o, c))
            for (int i = 0; i < p_.accWidth; ++i)
                prog_.push(makeVload(vreg(kSpillStage + i),
                                     sreg(kRegScratch),
                                     spillOff(o, c) + 128 * i));
        return accReg(o, c);
    }

  private:
    /** The k loop: the operand window in the preheader, then unrollK
     *  steps of multiplies and lookahead loads. */
    template <typename MulFn>
    void
    emitReduction(LoopBuilder &loops, MulFn mul)
    {
        loops.loop(
            LoopInit::reg(kRegKTrip),
            {{kRegAK, LoopInit::reg(kRegAPanel), p_.aKStep * p_.unrollK},
             {kRegWK, LoopInit::reg(kRegWTile), 4 * words_}},
            [&] {
                loadInputs(0, kRegAPanel);
                loadWeightWindow(kRegWTile);
                zeroAccs();
            },
            [&] {
                for (int u = 0; u < p_.unrollK; ++u) {
                    if (inputRing_ > 1)
                        loadInputs(u + 1, kRegAK);
                    for (int c = 0; c < p_.accCols; ++c) {
                        const int t = u * p_.accCols + c;
                        loadWeight(t + weightRing_ - 1, kRegWK);
                        const int w = kWeightRing[t % weightRing_];
                        for (int o = 0; o < p_.unrollOut; ++o) {
                            prog_.push(
                                mul(reloadAcc(o, c), inputReg(o, u), w));
                            if (spilled(o, c))
                                storeSpill(o, c);
                        }
                    }
                    if (inputRing_ == 1)
                        loadInputs(u + 1, kRegAK);
                }
            });
    }

    /** Panel @p o's ring register for input step @p s. */
    int
    inputReg(int o, int s) const
    {
        const int entry = s % inputRing_;
        return o == 0 ? kInputRing[entry]
                      : kPanelRings +
                            ((o - 1) * inputRing_ + entry) * p_.inputVectors;
    }

    /** Load input step @p s of every panel off @p base (s = unrollK: the
     *  next iteration's step 0) into the panels' ring registers. */
    void
    loadInputs(int s, int base)
    {
        for (int o = 0; o < p_.unrollOut; ++o)
            for (int i = 0; i < p_.inputVectors; ++i)
                prog_.push(makeVload(vreg(inputReg(o, s) + i), sreg(base),
                                     o * p_.aPanelStride + s * p_.aKStep +
                                         128 * i));
    }

    /** Load weight word @p t off @p base (t >= W: the next iteration's
     *  word t - W) into its ring register. */
    void
    loadWeight(int t, int base)
    {
        prog_.push(makeLoad(Opcode::LOADW,
                            sreg(kWeightRing[t % weightRing_]), sreg(base),
                            4 * static_cast<int64_t>(t)));
    }

    /** The first R - 1 weight words of the tile at @p base. */
    void
    loadWeightWindow(int base)
    {
        for (int t = 0; t + 1 < weightRing_; ++t)
            loadWeight(t, base);
    }

    int slot(int o, int c) const { return o * p_.accCols + c; }

    int
    accReg(int o, int c) const
    {
        return spilled(o, c) ? kSpillStage
                             : kFirstAccReg + p_.accWidth * slot(o, c);
    }

    void
    zeroAccs()
    {
        for (int o = 0; o < p_.unrollOut; ++o)
            for (int c = 0; c < p_.accCols; ++c) {
                const int reg = accReg(o, c);
                for (int i = 0; i < p_.accWidth; ++i)
                    prog_.push(makeVsplatw(vreg(reg + i), sreg(0)));
                if (spilled(o, c))
                    storeSpill(o, c);
            }
    }

    void
    storeSpill(int o, int c)
    {
        for (int i = 0; i < p_.accWidth; ++i)
            prog_.push(makeVstore(sreg(kRegScratch), vreg(kSpillStage + i),
                                  spillOff(o, c) + 128 * i));
    }

    Program &prog_;
    Params p_;
    int words_;      ///< W: weight words per k-iteration
    int weightRing_; ///< R
    int inputRing_;  ///< per panel: 2 when unrollK is even, else 1
};

} // namespace

MatMulKernel::MatMulKernel(const MatMulShape &shape,
                           const MatMulConfig &config)
    : shape_(shape), config_(config)
{
    GCD2_REQUIRE(shape.m > 0 && shape.k > 0 && shape.n > 0,
                 "matmul shape must be positive");
    GCD2_REQUIRE(config.unrollOut >= 1 && config.unrollCols >= 1 &&
                     config.unrollK >= 1,
                 "unroll factors must be >= 1");
    generate();
}

void
MatMulKernel::generate()
{
    const MatMulSchemeInfo &info = schemeInfo(config_.scheme);
    const int64_t panelRows = info.panelRows();
    const int cols = info.colsPerUnit * config_.unrollCols;
    const int64_t quantum = kQuantum(config_.scheme, config_.unrollK);
    mp_ = roundUp(shape_.m, panelRows * config_.unrollOut);
    kp_ = roundUp(shape_.k, quantum);
    np_ = roundUp(shape_.n, cols);

    LoopNestBuilder nest(
        prog_, {.panels = mp_ / (panelRows * config_.unrollOut),
                .colTiles = np_ / cols,
                .kIters = kp_ / quantum,
                .unrollOut = config_.unrollOut,
                .unrollK = config_.unrollK,
                .aPanelStride = panelRows * kp_,
                .cPanelStride = panelRows * np_,
                .units = config_.unrollCols,
                .aKStep = info.inputStepBytes,
                .inputVectors = info.inputVectors,
                .accCols = cols,
                .accWidth = info.accWidth});
    buffers_ =
        nest.buffers(mp_ * kp_, np_ * kp_ * info.bytesPerWeight, mp_ * np_);
    LoopBuilder loops(prog_, buffers_, /*scratch=*/true);

    switch (config_.scheme) {
      case MatMulScheme::Vmpy:
        nest.emit(
            loops,
            // One activation column vector feeds all tile columns.
            [](int acc, int in, int w) {
                return makeVmpy(Opcode::VMPYACC, vreg(acc), vreg(in),
                                sreg(w));
            },
            // Epilogue: reorder even/odd products, requantize.
            [&](int o, int j) {
                const int shuffBase = (j % 2 == 0) ? 20 : 24;
                const int asrDst = (j % 2 == 0) ? 22 : 26;
                const int src = nest.reloadAcc(o, j);
                prog_.push(makeVshuff(Opcode::VSHUFF, vreg(shuffBase),
                                      vreg(src), vreg(src + 1),
                                      /*laneLog2=*/1));
                prog_.push(makeVasr(Opcode::VASRHUB, vreg(asrDst),
                                    vreg(shuffBase), config_.shift16));
                return asrDst;
            });
        break;
      case MatMulScheme::Vmpa:
        nest.emit(
            loops,
            [](int acc, int in, int w) {
                return makeVmpa(Opcode::VMPA, vreg(acc), vreg(in), sreg(w));
            },
            [&](int o, int cp) {
                const bool alt = (cp % 2 != 0);
                const int fold0 = alt ? 22 : 20;
                const int fold1 = alt ? 23 : 21;
                const int shuffBase = alt ? 28 : 24;
                const int asrDst = alt ? 27 : 26;

                // Fold the k-high half into the k-low half (paper: the
                // two output vectors "need to be further added").
                auto foldInto = [&](int c, int dst) {
                    const int src = nest.reloadAcc(o, c);
                    prog_.push(makeVecBinary(Opcode::VADDH, vreg(dst),
                                             vreg(src), vreg(src + 1)));
                };
                foldInto(2 * cp, fold0);
                foldInto(2 * cp + 1, fold1);
                prog_.push(makeVshuff(Opcode::VSHUFF, vreg(shuffBase),
                                      vreg(fold0), vreg(fold1),
                                      /*laneLog2=*/1));
                prog_.push(makeVasr(Opcode::VASRHUB, vreg(asrDst),
                                    vreg(shuffBase), config_.shift16));
                return asrDst;
            });
        break;
      case MatMulScheme::Vrmpy:
        nest.emit(
            loops,
            [](int acc, int in, int w) {
                return makeVrmpy(vreg(acc), vreg(in), sreg(w));
            },
            [&](int o, int q) {
                // Bring the four column accumulators into registers.
                int src[4];
                for (int i = 0; i < 4; ++i) {
                    const int c = 4 * q + i;
                    if (!nest.spilled(o, c)) {
                        src[i] = nest.reloadAcc(o, c);
                        continue;
                    }
                    // A spilled column loads straight into its own
                    // epilogue temporary.
                    prog_.push(makeVload(vreg(20 + i), sreg(kRegScratch),
                                         nest.spillOff(o, c)));
                    src[i] = 20 + i;
                }
                // Word-interleave column pairs, narrow to halfwords.
                prog_.push(makeVshuff(Opcode::VSHUFF, vreg(24), vreg(src[0]),
                                      vreg(src[1]), /*laneLog2=*/2));
                prog_.push(makeVshuff(Opcode::VSHUFF, vreg(26), vreg(src[2]),
                                      vreg(src[3]), /*laneLog2=*/2));
                prog_.push(makeVasr(Opcode::VASRWH, vreg(28), vreg(24),
                                    config_.shiftWordHalf));
                prog_.push(makeVasr(Opcode::VASRWH, vreg(29), vreg(26),
                                    config_.shiftWordHalf));
                // Interleave 4-byte units -> full row-major halfword order,
                // then narrow to the 4-column uint8 output block.
                prog_.push(makeVshuff(Opcode::VSHUFF, vreg(24), vreg(28),
                                      vreg(29), /*laneLog2=*/2));
                prog_.push(makeVasr(Opcode::VASRHUB, vreg(22), vreg(24),
                                    config_.shiftHalfByte));
                return 22;
            });
        break;
    }
}

std::vector<uint8_t>
MatMulKernel::packInput(const uint8_t *rowMajor) const
{
    // Zero-extend the K dimension to kp, then apply the panel layout.
    std::vector<int8_t> extended(
        static_cast<size_t>(shape_.m * kp_), 0);
    for (int64_t r = 0; r < shape_.m; ++r)
        for (int64_t c = 0; c < shape_.k; ++c)
            extended[static_cast<size_t>(r * kp_ + c)] =
                static_cast<int8_t>(rowMajor[r * shape_.k + c]);

    std::vector<int8_t> packed;
    tensor::packMatrix(extended.data(), shape_.m, kp_,
                       schemeLayout(config_.scheme), packed);
    std::vector<uint8_t> out(static_cast<size_t>(buffers_.inputBytes), 0);
    GCD2_ASSERT(packed.size() <= out.size(), "input packing overflow");
    std::copy(packed.begin(), packed.end(),
              reinterpret_cast<int8_t *>(out.data()));
    return out;
}

std::vector<uint8_t>
MatMulKernel::packWeights(const int8_t *rowMajor) const
{
    // Column tiles of `cols` columns, each k-major in 4-byte words: the
    // word of (k-step g, column c) sits at word g * cols + c of its tile,
    // so the kernel walks a tile's words in order and the next tile's
    // follow. A word holds kPerStep weights of bytesPerWeight bytes each
    // (vmpy: one k, its byte replicated into the 4-splat operand of one
    // LOADW; vmpa/vrmpy: four k).
    const MatMulSchemeInfo &info = schemeInfo(config_.scheme);
    std::vector<uint8_t> out(static_cast<size_t>(buffers_.weightBytes), 0);
    const int64_t cols =
        static_cast<int64_t>(info.colsPerUnit) * config_.unrollCols;
    const int64_t steps = kp_ / info.kPerStep;
    for (int64_t k = 0; k < shape_.k; ++k) {
        for (int64_t n = 0; n < shape_.n; ++n) {
            const int64_t word =
                n / cols * cols * steps + k / info.kPerStep * cols + n % cols;
            std::fill_n(out.begin() + word * 4 +
                            k % info.kPerStep * info.bytesPerWeight,
                        info.bytesPerWeight,
                        static_cast<uint8_t>(rowMajor[k * shape_.n + n]));
        }
    }
    return out;
}

std::vector<uint8_t>
MatMulKernel::unpackOutput(const uint8_t *packed) const
{
    std::vector<int8_t> rowMajor;
    tensor::unpackMatrix(reinterpret_cast<const int8_t *>(packed), shape_.m,
                         np_, schemeLayout(config_.scheme), rowMajor);
    std::vector<uint8_t> out(
        static_cast<size_t>(shape_.m * shape_.n));
    for (int64_t r = 0; r < shape_.m; ++r)
        for (int64_t c = 0; c < shape_.n; ++c)
            out[static_cast<size_t>(r * shape_.n + c)] =
                static_cast<uint8_t>(rowMajor[r * np_ + c]);
    return out;
}

std::vector<uint8_t>
MatMulKernel::reference(const uint8_t *a, const int8_t *w,
                        const MatMulShape &shape, const MatMulConfig &config)
{
    std::vector<uint8_t> out(static_cast<size_t>(shape.m * shape.n));
    for (int64_t m = 0; m < shape.m; ++m) {
        for (int64_t n = 0; n < shape.n; ++n) {
            auto aAt = [&](int64_t k) {
                return k < shape.k
                           ? static_cast<int32_t>(a[m * shape.k + k])
                           : 0;
            };
            auto wAt = [&](int64_t k) {
                return k < shape.k
                           ? static_cast<int32_t>(w[k * shape.n + n])
                           : 0;
            };
            uint8_t result = 0;
            switch (config.scheme) {
              case MatMulScheme::Vmpy: {
                // 16-bit accumulator, one wraparound per product.
                int16_t acc = 0;
                for (int64_t k = 0; k < shape.k; ++k)
                    acc = static_cast<int16_t>(acc + aAt(k) * wAt(k));
                result = static_cast<uint8_t>(std::clamp<int64_t>(
                    tensor::roundShift(acc, config.shift16), 0, 255));
                break;
              }
              case MatMulScheme::Vmpa: {
                // Two 16-bit accumulators (k-even pairs and k-odd pairs),
                // each wrapping once per instruction (two products), then
                // folded with a wrapping VADDH.
                int16_t lo = 0, hi = 0;
                for (int64_t k = 0; k < roundUp(shape.k, 4); k += 4) {
                    lo = static_cast<int16_t>(lo + aAt(k) * wAt(k) +
                                              aAt(k + 1) * wAt(k + 1));
                    hi = static_cast<int16_t>(hi + aAt(k + 2) * wAt(k + 2) +
                                              aAt(k + 3) * wAt(k + 3));
                }
                const auto acc = static_cast<int16_t>(lo + hi);
                result = static_cast<uint8_t>(std::clamp<int64_t>(
                    tensor::roundShift(acc, config.shift16), 0, 255));
                break;
              }
              case MatMulScheme::Vrmpy: {
                // 32-bit accumulator, VASRWH then VASRHUB epilogue.
                int32_t acc = 0;
                for (int64_t k = 0; k < shape.k; ++k)
                    acc += aAt(k) * wAt(k);
                const int16_t half = tensor::sat16(
                    tensor::roundShift(acc, config.shiftWordHalf));
                result = static_cast<uint8_t>(std::clamp<int64_t>(
                    tensor::roundShift(half, config.shiftHalfByte), 0,
                    255));
                break;
              }
            }
            out[static_cast<size_t>(m * shape.n + n)] = result;
        }
    }
    return out;
}

} // namespace gcd2::kernels
