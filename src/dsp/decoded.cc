#include "dsp/decoded.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <mutex>

#include "common/fnv.h"
#include "common/logging.h"
#include "dsp/alias.h"
#include "dsp/deps.h"
#include "dsp/schedule_checks.h"

namespace gcd2::dsp {

namespace {

// Fingerprinting ------------------------------------------------------

void
hashProgram(const PackedProgram &packed, common::FnvPair &fnv)
{
    hashProgramCode(packed.program, fnv);
    fnv.value(uint64_t{0xcafe});
    for (const Packet &packet : packed.packets) {
        fnv.value(static_cast<uint64_t>(packet.insts.size()));
        for (size_t idx : packet.insts)
            fnv.value(static_cast<uint64_t>(idx));
    }
    fnv.value(uint64_t{0xf00d});
    for (size_t target : packed.labelPacket)
        fnv.value(static_cast<uint64_t>(target));
}

// Decoding ------------------------------------------------------------

/** Do the vector registers written by @p inst overlap its vector source
 *  registers in a way the fast lane loops do not model (their snapshot
 *  semantics differ from the interpreter's lane-ordered read/write
 *  interleaving)? Conservative: a true here only costs speed, never
 *  correctness -- the instruction runs through executeInstruction. */
bool
needsFallback(const Instruction &inst)
{
    const int d = inst.dst[0].idx;
    const int s0 = inst.src[0].idx;
    switch (inst.op) {
      case Opcode::VMPY:
      case Opcode::VMPYACC:
        return s0 == d || s0 == d + 1;
      case Opcode::VMPA:
      case Opcode::VTMPY:
        return std::max(d, s0) <= std::min(d, s0) + 1;
      case Opcode::VRMPY:
      case Opcode::VMPYE:
      case Opcode::VMPYIW:
        return s0 == d;
      case Opcode::VASRHB:
      case Opcode::VASRHUB:
      case Opcode::VASRWH:
        return d == s0 || d == s0 + 1;
      case Opcode::VSHUFF:
      case Opcode::VDEAL:
      case Opcode::VSHUFFE:
      case Opcode::VSHUFFO:
        // The fast permutes run byte, halfword or word lanes only.
        return inst.imm < 0 || inst.imm > 2;
      case Opcode::VLUT:
        // Only the table pair (s0, s0+1) is read cross-lane; the index
        // vector (src[1]) is read lane-aligned, so a destination equal to
        // it stays on the fast path.
        return d == s0 || d == s0 + 1;
      default:
        return false;
    }
}

// Execution -----------------------------------------------------------

/** Mutable state threaded through the dispatch table. */
struct St
{
    RegisterFile &regs;
    Memory &mem;
    ExecStats &stats;
    const Instruction *rawCode;
};

using ExecFn = int32_t (*)(const DecodedInst &, St &);

/** Dispatch slot for instructions executed through the interpreter. */
constexpr size_t kFallbackSlot = static_cast<size_t>(Opcode::kNumOpcodes);

/** Signed scalar byte j of a packed 4-byte multiplier operand, as a
 *  uint16_t lane: products with it wrap mod 2^16 exactly like the
 *  interpreter's int16_t sums. */
inline uint16_t
weightLane(uint32_t r, int j)
{
    return static_cast<uint16_t>(static_cast<int8_t>((r >> (8 * j)) & 0xff));
}

int32_t
execFallback(const DecodedInst &di, St &st)
{
    // executeInstruction counts the instruction itself; the dispatch loop
    // already counted it, so undo the double increment. Fallback is only
    // taken for vector aliasing cases, never branches.
    --st.stats.instructions;
    executeInstruction(st.rawCode[di.rawIndex], st.regs, st.mem, st.stats);
    return DecodedInst::kNotBranch;
}

// --- Scalar ALU -------------------------------------------------------

int32_t
execNop(const DecodedInst &, St &)
{
    return -1;
}

int32_t
execMovi(const DecodedInst &di, St &st)
{
    st.regs.scalar[di.d] = static_cast<uint32_t>(di.imm);
    return -1;
}

int32_t
execMov(const DecodedInst &di, St &st)
{
    st.regs.scalar[di.d] = st.regs.scalar[di.s0];
    return -1;
}

int32_t
execAdd(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] + sr[di.s1];
    return -1;
}

int32_t
execAddi(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] + static_cast<uint32_t>(di.imm);
    return -1;
}

int32_t
execSub(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] - sr[di.s1];
    return -1;
}

int32_t
execMul(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] * sr[di.s1];
    return -1;
}

int32_t
execShl(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] << (di.imm & 31);
    return -1;
}

int32_t
execShra(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = static_cast<uint32_t>(static_cast<int32_t>(sr[di.s0]) >>
                                     (di.imm & 31));
    return -1;
}

int32_t
execAnd(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] & sr[di.s1];
    return -1;
}

int32_t
execOr(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] | sr[di.s1];
    return -1;
}

int32_t
execXor(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = sr[di.s0] ^ sr[di.s1];
    return -1;
}

int32_t
execDiv(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    const auto denom = static_cast<int32_t>(sr[di.s1]);
    GCD2_REQUIRE(denom != 0, "division by zero");
    sr[di.d] =
        static_cast<uint32_t>(static_cast<int32_t>(sr[di.s0]) / denom);
    return -1;
}

int32_t
execCombine4(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    const uint32_t b = sr[di.s0] & 0xff;
    sr[di.d] = b | (b << 8) | (b << 16) | (b << 24);
    return -1;
}

// --- Scalar memory ----------------------------------------------------

int32_t
execLoadb(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = static_cast<uint32_t>(static_cast<int32_t>(
        static_cast<int8_t>(st.mem.load8(sr[di.s0] + di.imm))));
    st.stats.bytesLoaded += 1;
    return -1;
}

int32_t
execLoadw(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    sr[di.d] = st.mem.load32(sr[di.s0] + di.imm);
    st.stats.bytesLoaded += 4;
    return -1;
}

int32_t
execStoreb(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    st.mem.store8(sr[di.s0] + di.imm,
                  static_cast<uint8_t>(sr[di.s1] & 0xff));
    st.stats.bytesStored += 1;
    return -1;
}

int32_t
execStorew(const DecodedInst &di, St &st)
{
    auto &sr = st.regs.scalar;
    st.mem.store32(sr[di.s0] + di.imm, sr[di.s1]);
    st.stats.bytesStored += 4;
    return -1;
}

// --- Control flow -----------------------------------------------------

// Branch targets are pre-resolved packet indices; kBadTarget (label id out
// of range) is only diagnosed at the end of the packet, and only if this
// branch is the packet's last taken one -- matching the reference loop.

int32_t
execJump(const DecodedInst &di, St &st)
{
    ++st.stats.branchesTaken;
    return di.target;
}

int32_t
execJumpNz(const DecodedInst &di, St &st)
{
    if (st.regs.scalar[di.s0] == 0)
        return DecodedInst::kNotBranch;
    ++st.stats.branchesTaken;
    return di.target;
}

// --- Vector memory / moves --------------------------------------------

int32_t
execVload(const DecodedInst &di, St &st)
{
    st.mem.loadBlock(st.regs.scalar[di.s0] + di.imm,
                     st.regs.vector[di.d].data(), kVectorBytes);
    st.stats.bytesLoaded += kVectorBytes;
    return -1;
}

int32_t
execVstore(const DecodedInst &di, St &st)
{
    st.mem.storeBlock(st.regs.scalar[di.s0] + di.imm,
                      st.regs.vector[di.s1].data(), kVectorBytes);
    st.stats.bytesStored += kVectorBytes;
    return -1;
}

int32_t
execVmov(const DecodedInst &di, St &st)
{
    st.regs.vector[di.d] = st.regs.vector[di.s0];
    return -1;
}

int32_t
execVsplatw(const DecodedInst &di, St &st)
{
    const int32_t v = static_cast<int32_t>(st.regs.scalar[di.s0]);
    int32_t out[kVectorWords];
    for (int i = 0; i < kVectorWords; ++i)
        out[i] = v;
    std::memcpy(st.regs.vector[di.d].data(), out, kVectorBytes);
    return -1;
}

// --- Vector integer ALU -----------------------------------------------

// Byte-lane ops snapshot both sources so the lane loop carries no alias
// hazard and vectorizes; lane-aligned ops are snapshot-equivalent to the
// interpreter's in-order execution even when dst == src.

int32_t
execVaddb(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto a = vr[di.s0];
    const auto b = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = static_cast<uint8_t>(a[i] + b[i]);
    return -1;
}

int32_t
execVaddh(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    int16_t a[kVectorHalves], b[kVectorHalves], o[kVectorHalves];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(b, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < kVectorHalves; ++i)
        o[i] = static_cast<int16_t>(a[i] + b[i]);
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

int32_t
execVaddw(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    // uint32_t lanes: HVX word arithmetic wraps modulo 2^32, which is
    // defined for unsigned and undefined for int32_t.
    uint32_t a[kVectorWords], b[kVectorWords], o[kVectorWords];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(b, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < kVectorWords; ++i)
        o[i] = a[i] + b[i];
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

int32_t
execVsubh(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    int16_t a[kVectorHalves], b[kVectorHalves], o[kVectorHalves];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(b, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < kVectorHalves; ++i)
        o[i] = static_cast<int16_t>(a[i] - b[i]);
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

int32_t
execVsubw(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    uint32_t a[kVectorWords], b[kVectorWords], o[kVectorWords];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(b, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < kVectorWords; ++i)
        o[i] = a[i] - b[i];
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

int32_t
execVmaxb(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto a = vr[di.s0];
    const auto b = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = static_cast<uint8_t>(std::max(static_cast<int8_t>(a[i]),
                                             static_cast<int8_t>(b[i])));
    return -1;
}

int32_t
execVminb(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto a = vr[di.s0];
    const auto b = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = static_cast<uint8_t>(std::min(static_cast<int8_t>(a[i]),
                                             static_cast<int8_t>(b[i])));
    return -1;
}

int32_t
execVmaxub(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto a = vr[di.s0];
    const auto b = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = std::max(a[i], b[i]);
    return -1;
}

int32_t
execVminub(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto a = vr[di.s0];
    const auto b = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = std::min(a[i], b[i]);
    return -1;
}

int32_t
execVavgb(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto a = vr[di.s0];
    const auto b = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = static_cast<uint8_t>(
            (static_cast<uint32_t>(a[i]) + b[i] + 1) >> 1);
    return -1;
}

// --- SIMD multiplies --------------------------------------------------

int32_t
execVmpy(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const bool acc = di.op == Opcode::VMPYACC;
    // Source byte 2h is the low byte of halfword h and byte 2h+1 its high
    // byte, so the lane loop reads halfwords. Even halves take weight
    // bytes 0/1 and odd halves 2/3; stepping h by 2 keeps each weight
    // fixed per statement. uint16_t lanes wrap exactly like the int16_t
    // sums of the interpreter.
    uint16_t a[kVectorHalves], lo[kVectorHalves], hi[kVectorHalves];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(lo, vr[di.d].data(), kVectorBytes);
    std::memcpy(hi, vr[di.d + 1].data(), kVectorBytes);
    const uint16_t keep = acc ? 0xffff : 0; // VMPY overwrites the pair
    const uint32_t w = st.regs.scalar[di.s1];
    const auto w0 = weightLane(w, 0);
    const auto w1 = weightLane(w, 1);
    const auto w2 = weightLane(w, 2);
    const auto w3 = weightLane(w, 3);
    for (int h = 0; h < kVectorHalves; h += 2) {
        lo[h] = static_cast<uint16_t>((lo[h] & keep) + (a[h] & 0xff) * w0);
        hi[h] = static_cast<uint16_t>((hi[h] & keep) + (a[h] >> 8) * w1);
        lo[h + 1] = static_cast<uint16_t>((lo[h + 1] & keep) +
                                          (a[h + 1] & 0xff) * w2);
        hi[h + 1] = static_cast<uint16_t>((hi[h + 1] & keep) +
                                          (a[h + 1] >> 8) * w3);
    }
    std::memcpy(vr[di.d].data(), lo, kVectorBytes);
    std::memcpy(vr[di.d + 1].data(), hi, kVectorBytes);
    return -1;
}

int32_t
execVmpa(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    // Halfword lanes as in execVmpy: each output half sums the two bytes
    // of the same source half, low byte by the first weight of its pair.
    uint16_t x0[kVectorHalves], x1[kVectorHalves];
    std::memcpy(x0, vr[di.s0].data(), kVectorBytes);
    std::memcpy(x1, vr[di.s0 + 1].data(), kVectorBytes);
    const uint32_t w = st.regs.scalar[di.s1];
    const auto w0 = weightLane(w, 0);
    const auto w1 = weightLane(w, 1);
    const auto w2 = weightLane(w, 2);
    const auto w3 = weightLane(w, 3);
    uint16_t lo[kVectorHalves], hi[kVectorHalves];
    std::memcpy(lo, vr[di.d].data(), kVectorBytes);
    std::memcpy(hi, vr[di.d + 1].data(), kVectorBytes);
    for (int r = 0; r < kVectorHalves; ++r) {
        lo[r] = static_cast<uint16_t>(lo[r] + (x0[r] & 0xff) * w0 +
                                      (x0[r] >> 8) * w1);
        hi[r] = static_cast<uint16_t>(hi[r] + (x1[r] & 0xff) * w2 +
                                      (x1[r] >> 8) * w3);
    }
    std::memcpy(vr[di.d].data(), lo, kVectorBytes);
    std::memcpy(vr[di.d + 1].data(), hi, kVectorBytes);
    return -1;
}

int32_t
execVrmpy(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    // A byte times a signed weight byte fits int16_t, so the four
    // products of each word are formed in halfword lanes (as in
    // execVmpy), the low-byte and high-byte products in separate arrays.
    // Each word of those arrays then holds two int16_t products, which
    // 32-bit lanes sign-extend and add with shifts alone.
    uint16_t x[kVectorHalves];
    std::memcpy(x, vr[di.s0].data(), kVectorBytes);
    const uint32_t w = st.regs.scalar[di.s1];
    const auto w0 = weightLane(w, 0);
    const auto w1 = weightLane(w, 1);
    const auto w2 = weightLane(w, 2);
    const auto w3 = weightLane(w, 3);
    uint16_t lowProd[kVectorHalves], highProd[kVectorHalves];
    for (int h = 0; h < kVectorHalves; h += 2) {
        lowProd[h] = static_cast<uint16_t>((x[h] & 0xff) * w0);
        highProd[h] = static_cast<uint16_t>((x[h] >> 8) * w1);
        lowProd[h + 1] = static_cast<uint16_t>((x[h + 1] & 0xff) * w2);
        highProd[h + 1] = static_cast<uint16_t>((x[h + 1] >> 8) * w3);
    }
    int32_t lowPair[kVectorWords], highPair[kVectorWords];
    std::memcpy(lowPair, lowProd, kVectorBytes);
    std::memcpy(highPair, highProd, kVectorBytes);
    // uint32_t accumulator: HVX word sums wrap modulo 2^32.
    uint32_t acc[kVectorWords];
    std::memcpy(acc, vr[di.d].data(), kVectorBytes);
    const auto lowHalf = [](int32_t v) {
        return static_cast<int32_t>(static_cast<uint32_t>(v) << 16) >> 16;
    };
    for (int i = 0; i < kVectorWords; ++i)
        acc[i] += static_cast<uint32_t>(
            lowHalf(lowPair[i]) + (lowPair[i] >> 16) +
            lowHalf(highPair[i]) + (highPair[i] >> 16));
    std::memcpy(vr[di.d].data(), acc, kVectorBytes);
    return -1;
}

int32_t
execVtmpy(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    // Halfword lanes as in execVmpy; one extra half per source holds the
    // third tap of the last lane (the next register's byte 0 for the low
    // source, zero for the high one), so every lane reads x[r], x[r + 1].
    uint16_t x0[kVectorHalves + 1], x1[kVectorHalves + 1];
    std::memcpy(x0, vr[di.s0].data(), kVectorBytes);
    std::memcpy(x1, vr[di.s0 + 1].data(), kVectorBytes);
    x0[kVectorHalves] = vr[di.s0 + 1][0];
    x1[kVectorHalves] = 0;
    const uint32_t w = st.regs.scalar[di.s1];
    const auto w0 = weightLane(w, 0);
    const auto w1 = weightLane(w, 1);
    const auto w2 = weightLane(w, 2);
    uint16_t lo[kVectorHalves], hi[kVectorHalves];
    std::memcpy(lo, vr[di.d].data(), kVectorBytes);
    std::memcpy(hi, vr[di.d + 1].data(), kVectorBytes);
    for (int r = 0; r < kVectorHalves; ++r) {
        lo[r] = static_cast<uint16_t>(lo[r] + (x0[r] & 0xff) * w0 +
                                      (x0[r] >> 8) * w1 +
                                      (x0[r + 1] & 0xff) * w2);
        hi[r] = static_cast<uint16_t>(hi[r] + (x1[r] & 0xff) * w0 +
                                      (x1[r] >> 8) * w1 +
                                      (x1[r + 1] & 0xff) * w2);
    }
    std::memcpy(vr[di.d].data(), lo, kVectorBytes);
    std::memcpy(vr[di.d + 1].data(), hi, kVectorBytes);
    return -1;
}

int32_t
execVmpye(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const auto mult =
        static_cast<int16_t>(st.regs.scalar[di.s1] & 0xffff);
    int16_t a[kVectorHalves];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    int32_t o[kVectorWords];
    for (int i = 0; i < kVectorWords; ++i)
        o[i] = static_cast<int32_t>(a[2 * i]) * mult;
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

int32_t
execVmpyiw(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const uint32_t mult = st.regs.scalar[di.s1];
    uint32_t a[kVectorWords];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    for (int i = 0; i < kVectorWords; ++i)
        a[i] *= mult;
    std::memcpy(vr[di.d].data(), a, kVectorBytes);
    return -1;
}

// --- Vector shift / narrowing -----------------------------------------

/** The interpreter's roundShift by a loop-invariant shift, for lanes of
 *  at most 32 bits: (v + 2^(s-1)) >> s == (v >> s) + bit s-1 of v for
 *  s >= 1, so no lane needs the wider add. Shifts of 32 and more are not
 *  represented (every lane of up to 32 bits rounds to 0 there). */
struct LaneRound
{
    int shift;    ///< arithmetic shift, 0 for a non-positive imm
    int roundAt;  ///< bit position of the rounding bit
    int roundBit; ///< 1 when rounding applies, else 0

    explicit LaneRound(int imm)
        : shift(std::max(imm, 0)), roundAt(std::max(imm - 1, 0)),
          roundBit(imm > 0 ? 1 : 0)
    {
    }

    int32_t
    operator()(int32_t v) const
    {
        return (v >> shift) + ((v >> roundAt) & roundBit);
    }
};

int32_t
execVasrhb(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const int shift = static_cast<int>(di.imm);
    const bool unsignedOut = di.op == Opcode::VASRHUB;
    int16_t in[kVectorBytes];
    std::memcpy(in, vr[di.s0].data(), kVectorBytes);
    std::memcpy(in + kVectorHalves, vr[di.s0 + 1].data(), kVectorBytes);
    uint8_t o[kVectorBytes];
    if (shift >= 16) {
        // roundShift of any int16_t by 16..63 bits is 0.
        std::memset(o, 0, sizeof(o));
    } else {
        // int16_t lanes: a rounded int16_t shift stays in range, and the
        // clamped value's low byte is what the interpreter's sat8/usat8
        // produce.
        const LaneRound round(shift);
        const int16_t lo = unsignedOut ? 0 : INT8_MIN;
        const int16_t hi = unsignedOut ? UINT8_MAX : INT8_MAX;
        for (int i = 0; i < kVectorBytes; ++i)
            o[i] = static_cast<uint8_t>(std::clamp(
                static_cast<int16_t>(round(in[i])), lo, hi));
    }
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

int32_t
execVasrwh(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    const int shift = static_cast<int>(di.imm);
    int32_t in[kVectorHalves];
    std::memcpy(in, vr[di.s0].data(), kVectorBytes);
    std::memcpy(in + kVectorWords, vr[di.s0 + 1].data(), kVectorBytes);
    int16_t o[kVectorHalves];
    if (shift >= 32) {
        // roundShift of any int32_t by 32..63 bits is 0.
        std::memset(o, 0, sizeof(o));
    } else {
        const LaneRound round(shift);
        for (int i = 0; i < kVectorHalves; ++i)
            o[i] = static_cast<int16_t>(
                std::clamp(round(in[i]), INT16_MIN, INT16_MAX));
    }
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    return -1;
}

// --- Vector permutes --------------------------------------------------

// The interpreter already stages shuffles through temporaries, so these
// are snapshot-equivalent for any operand aliasing. Each runs in lanes of
// the permuted size (imm 0/1/2: bytes, halfwords, words; needsFallback
// sends any other size to the interpreter), so the lane loops are plain
// interleaves and de-interleaves of fixed-width elements.

template <typename T>
void
shuffLanes(const DecodedInst &di, RegisterFile &regs)
{
    constexpr int n = kVectorBytes / static_cast<int>(sizeof(T));
    auto &vr = regs.vector;
    T a[n], b[n], o[2 * n];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(b, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < n; ++i) {
        o[2 * i] = a[i];
        o[2 * i + 1] = b[i];
    }
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    std::memcpy(vr[di.d + 1].data(), o + n, kVectorBytes);
}

template <typename T>
void
dealLanes(const DecodedInst &di, RegisterFile &regs)
{
    constexpr int n = kVectorBytes / static_cast<int>(sizeof(T));
    auto &vr = regs.vector;
    T in[2 * n], o[2 * n];
    std::memcpy(in, vr[di.s0].data(), kVectorBytes);
    std::memcpy(in + n, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < n; ++i) {
        o[i] = in[2 * i];
        o[n + i] = in[2 * i + 1];
    }
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
    std::memcpy(vr[di.d + 1].data(), o + n, kVectorBytes);
}

template <typename T>
void
shuffEoLanes(const DecodedInst &di, RegisterFile &regs)
{
    constexpr int n = kVectorBytes / static_cast<int>(sizeof(T));
    auto &vr = regs.vector;
    const int pick = (di.op == Opcode::VSHUFFE) ? 0 : 1;
    T a[n], b[n], o[n];
    std::memcpy(a, vr[di.s0].data(), kVectorBytes);
    std::memcpy(b, vr[di.s1].data(), kVectorBytes);
    for (int i = 0; i < n / 2; ++i) {
        o[2 * i] = a[2 * i + pick];
        o[2 * i + 1] = b[2 * i + pick];
    }
    std::memcpy(vr[di.d].data(), o, kVectorBytes);
}

/** Call @p fn with a value of the permuted lane type (imm 0/1/2). */
template <typename Fn>
int32_t
byLaneWidth(const DecodedInst &di, Fn fn)
{
    switch (di.imm) {
      case 0:
        fn(uint8_t{});
        break;
      case 1:
        fn(uint16_t{});
        break;
      default:
        fn(uint32_t{});
        break;
    }
    return -1;
}

int32_t
execVshuff(const DecodedInst &di, St &st)
{
    return byLaneWidth(di, [&](auto lane) {
        shuffLanes<decltype(lane)>(di, st.regs);
    });
}

int32_t
execVdeal(const DecodedInst &di, St &st)
{
    return byLaneWidth(di, [&](auto lane) {
        dealLanes<decltype(lane)>(di, st.regs);
    });
}

int32_t
execVshuffEo(const DecodedInst &di, St &st)
{
    return byLaneWidth(di, [&](auto lane) {
        shuffEoLanes<decltype(lane)>(di, st.regs);
    });
}

int32_t
execVlut(const DecodedInst &di, St &st)
{
    auto &vr = st.regs.vector;
    // Concatenate the table pair so every uint8 index hits it directly --
    // no per-lane high/low branch.
    uint8_t table[2 * kVectorBytes];
    std::memcpy(table, vr[di.s0].data(), kVectorBytes);
    std::memcpy(table + kVectorBytes, vr[di.s0 + 1].data(), kVectorBytes);
    const auto idx = vr[di.s1];
    auto &o = vr[di.d];
    for (int i = 0; i < kVectorBytes; ++i)
        o[i] = table[idx[i]];
    return -1;
}

/** Dispatch table: one slot per opcode plus the aliasing fallback. */
constexpr std::array<ExecFn, kFallbackSlot + 1>
buildExecTable()
{
    std::array<ExecFn, kFallbackSlot + 1> table{};
    auto set = [&](Opcode op, ExecFn fn) {
        table[static_cast<size_t>(op)] = fn;
    };
    set(Opcode::NOP, execNop);
    set(Opcode::MOVI, execMovi);
    set(Opcode::MOV, execMov);
    set(Opcode::ADD, execAdd);
    set(Opcode::ADDI, execAddi);
    set(Opcode::SUB, execSub);
    set(Opcode::MUL, execMul);
    set(Opcode::SHL, execShl);
    set(Opcode::SHRA, execShra);
    set(Opcode::AND, execAnd);
    set(Opcode::OR, execOr);
    set(Opcode::XOR, execXor);
    set(Opcode::DIV, execDiv);
    set(Opcode::COMBINE4, execCombine4);
    set(Opcode::LOADB, execLoadb);
    set(Opcode::LOADW, execLoadw);
    set(Opcode::STOREB, execStoreb);
    set(Opcode::STOREW, execStorew);
    set(Opcode::JUMP, execJump);
    set(Opcode::JUMPNZ, execJumpNz);
    set(Opcode::VLOAD, execVload);
    set(Opcode::VSTORE, execVstore);
    set(Opcode::VMOV, execVmov);
    set(Opcode::VSPLATW, execVsplatw);
    set(Opcode::VADDB, execVaddb);
    set(Opcode::VADDH, execVaddh);
    set(Opcode::VADDW, execVaddw);
    set(Opcode::VSUBH, execVsubh);
    set(Opcode::VSUBW, execVsubw);
    set(Opcode::VMAXB, execVmaxb);
    set(Opcode::VMINB, execVminb);
    set(Opcode::VMAXUB, execVmaxub);
    set(Opcode::VMINUB, execVminub);
    set(Opcode::VAVGB, execVavgb);
    set(Opcode::VMPY, execVmpy);
    set(Opcode::VMPYACC, execVmpy);
    set(Opcode::VMPA, execVmpa);
    set(Opcode::VRMPY, execVrmpy);
    set(Opcode::VTMPY, execVtmpy);
    set(Opcode::VMPYE, execVmpye);
    set(Opcode::VMPYIW, execVmpyiw);
    set(Opcode::VASRHB, execVasrhb);
    set(Opcode::VASRHUB, execVasrhb);
    set(Opcode::VASRWH, execVasrwh);
    set(Opcode::VSHUFF, execVshuff);
    set(Opcode::VDEAL, execVdeal);
    set(Opcode::VSHUFFE, execVshuffEo);
    set(Opcode::VSHUFFO, execVshuffEo);
    set(Opcode::VLUT, execVlut);
    table[kFallbackSlot] = execFallback;
    return table;
}

constexpr std::array<ExecFn, kFallbackSlot + 1> kExecTable =
    buildExecTable();

} // namespace

DecodeKey
fingerprintProgram(const PackedProgram &packed)
{
    common::FnvPair fnv;
    hashProgram(packed, fnv);
    DecodeKey key;
    key.h0 = fnv.first();
    key.h1 = fnv.second();
    key.instructions = packed.program.code.size();
    key.packets = packed.packets.size();
    return key;
}

std::shared_ptr<const DecodedProgram>
DecodedProgram::build(const PackedProgram &packed)
{
    return build(packed, fingerprintProgram(packed));
}

std::shared_ptr<const DecodedProgram>
DecodedProgram::build(const PackedProgram &packed, const DecodeKey &key)
{
    // Decode indexes the raw code through packet membership, so the
    // structural rows of the shared invariant table (every instruction
    // in exactly one packet, indices in range, label map shape) are a
    // precondition here -- run them, not a private re-implementation.
    // Full-depth legality (slots, hard deps) stays with the validating
    // simulator entry points; decode does not need it for memory safety.
    runScheduleChecks(
        packed, CheckDepth::Structure,
        [](common::DiagCode code, int64_t node, const std::string &msg) {
            GCD2_PANIC("cannot decode packed program: invariant '"
                       << common::diagCodeName(code) << "' violated"
                       << (node >= 0 ? " at instruction " +
                                           std::to_string(node)
                                     : std::string())
                       << ": " << msg);
        });

    const Program &prog = packed.program;
    AliasAnalysis alias(prog);

    auto dec = std::make_shared<DecodedProgram>();
    dec->rawCode = prog.code;
    dec->key = key;
    dec->packets.reserve(packed.packets.size());

    size_t total = 0;
    for (const Packet &packet : packed.packets)
        total += packet.insts.size();
    dec->insts.reserve(total);

    for (const Packet &packet : packed.packets) {
        DecodedPacket dp;
        dp.begin = static_cast<uint32_t>(dec->insts.size());
        // delay[k]: extra cycles instruction k waits on in-packet soft
        // producers before its own pipeline begins (paper Fig. 4).
        std::vector<int> delay(packet.insts.size(), 0);
        for (size_t k = 0; k < packet.insts.size(); ++k) {
            const size_t idx = packet.insts[k];
            const Instruction &inst = prog.code[idx];
            for (size_t m = 0; m < k; ++m) {
                const size_t earlier = packet.insts[m];
                const Dependency dep = classifyDependency(
                    prog.code[earlier], inst, alias.mayAlias(earlier, idx));
                if (dep.kind == DepKind::Soft && dep.penalty > 0)
                    delay[k] = std::max(delay[k], delay[m] + dep.penalty);
            }

            DecodedInst di;
            di.op = inst.op;
            di.exec = needsFallback(inst)
                          ? static_cast<uint8_t>(kFallbackSlot)
                          : static_cast<uint8_t>(inst.op);
            di.d = inst.dst[0].idx;
            di.s0 = inst.src[0].idx;
            di.s1 = inst.src[1].idx;
            di.latency = inst.info().latency;
            di.delay = delay[k];
            di.rawIndex = static_cast<uint32_t>(idx);
            di.imm = inst.imm;
            const RegMasks masks = regMasks(inst);
            di.writeMask = masks.writes;
            dp.readMask |= masks.reads;
            if (inst.isBranch()) {
                const auto label = static_cast<size_t>(inst.imm);
                di.target =
                    label < packed.labelPacket.size()
                        ? static_cast<int32_t>(packed.labelPacket[label])
                        : DecodedInst::kBadTarget;
            }
            dec->insts.push_back(di);
        }
        dp.end = static_cast<uint32_t>(dec->insts.size());
        dec->packets.push_back(dp);
    }
    return dec;
}

TimingStats
runDecoded(const DecodedProgram &dec, RegisterFile &regs, Memory &mem,
           ExecStats &xstats, uint64_t maxPackets)
{
    TimingStats stats;
    const uint64_t loadedBefore = xstats.bytesLoaded;
    const uint64_t storedBefore = xstats.bytesStored;

    // Cycle each register's value becomes readable by a later packet.
    std::array<uint64_t, kNumRegUids> ready{};
    uint64_t issue = 0;
    uint64_t lastIssue = 0;
    uint64_t completion = 0;
    bool first = true;

    St st{regs, mem, xstats, dec.rawCode.data()};
    const size_t numPackets = dec.packets.size();
    const DecodedPacket *packets = dec.packets.data();
    const DecodedInst *insts = dec.insts.data();

    // Runaway guard hoisted out of the hot loop: the inner loop runs a
    // chunk of the remaining packet budget, so on overflow exactly
    // maxPackets packets have executed before the panic -- identical to a
    // per-packet check.
    constexpr uint64_t kPacketCheckInterval = 4096;
    uint64_t budget = maxPackets;
    size_t pc = 0;
    while (pc < numPackets) {
        GCD2_ASSERT(budget > 0, "packed program exceeded " << maxPackets
                                                           << " packets");
        uint64_t chunk = std::min(budget, kPacketCheckInterval);
        budget -= chunk;
        while (chunk-- > 0 && pc < numPackets) {
            const DecodedPacket &pk = packets[pc];

            // Issue no earlier than one cycle after the previous packet,
            // and no earlier than every cross-packet source's readiness.
            issue = first ? 0 : lastIssue + 1;
            uint64_t m = pk.readMask;
            while (m != 0) {
                const int uid = std::countr_zero(m);
                m &= m - 1;
                issue = std::max(issue, ready[static_cast<size_t>(uid)]);
            }
            stats.stallCycles += issue - (first ? 0 : lastIssue + 1);
            first = false;
            lastIssue = issue;

            ++stats.packetsExecuted;
            stats.instructionsExecuted += pk.end - pk.begin;

            int32_t taken = DecodedInst::kNotBranch;
            for (uint32_t i = pk.begin; i < pk.end; ++i) {
                const DecodedInst &di = insts[i];
                const uint64_t done =
                    issue + static_cast<uint64_t>(di.delay) +
                    static_cast<uint64_t>(di.latency);
                completion = std::max(completion, done);
                uint64_t w = di.writeMask;
                while (w != 0) {
                    ready[static_cast<size_t>(std::countr_zero(w))] = done;
                    w &= w - 1;
                }
                stats.stallCycles += static_cast<uint64_t>(di.delay);

                ++xstats.instructions;
                const int32_t t = kExecTable[di.exec](di, st);
                if (t != DecodedInst::kNotBranch)
                    taken = t;
            }

            if (taken == DecodedInst::kNotBranch) {
                ++pc;
            } else {
                GCD2_ASSERT(taken != DecodedInst::kBadTarget,
                            "branch to unknown label");
                pc = static_cast<size_t>(taken);
            }
        }
    }

    stats.cycles = completion;
    stats.bytesLoaded = xstats.bytesLoaded - loadedBefore;
    stats.bytesStored = xstats.bytesStored - storedBefore;
    return stats;
}

std::shared_ptr<const DecodedProgram>
DecodeCache::lookupOrDecode(const PackedProgram &packed)
{
    const DecodeKey key = fingerprintProgram(packed);
    return lru_.lookupOrCompute(
        key, [&] { return DecodedProgram::build(packed, key); });
}

DecodeCache &
DecodeCache::global()
{
    static DecodeCache cache;
    return cache;
}

} // namespace gcd2::dsp
