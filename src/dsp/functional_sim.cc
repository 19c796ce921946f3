#include "dsp/functional_sim.h"

#include <algorithm>

namespace gcd2::dsp {

namespace {

int8_t
sat8(int32_t v)
{
    return static_cast<int8_t>(std::clamp(v, -128, 127));
}

uint8_t
usat8(int32_t v)
{
    return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

int16_t
sat16(int64_t v)
{
    return static_cast<int16_t>(std::clamp<int64_t>(v, INT16_MIN, INT16_MAX));
}

/** Round-then-arithmetic-shift used by the narrowing shifts. */
int64_t
roundShift(int64_t v, int shift)
{
    if (shift <= 0)
        return v;
    return (v + (int64_t{1} << (shift - 1))) >> shift;
}

} // namespace

int
executeInstruction(const Instruction &inst, RegisterFile &regs_,
                   Memory &mem_, ExecStats &stats_)
{
    ++stats_.instructions;

    auto &sr = regs_.scalar;
    auto &vr = regs_.vector;

    const int d = inst.dst[0].idx;
    const int s0 = inst.src[0].idx;
    const int s1 = inst.src[1].idx;
    const int64_t imm = inst.imm;

    // Scalar byte j of a 4-byte multiplier operand.
    auto scalarByte = [&](int reg, int j) {
        return static_cast<int8_t>((sr[reg] >> (8 * j)) & 0xff);
    };
    auto ubyte = [&](int reg, int lane) {
        return static_cast<int32_t>(vr[reg][lane]);
    };

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::MOVI:
        sr[d] = static_cast<uint32_t>(imm);
        break;
      case Opcode::MOV:
        sr[d] = sr[s0];
        break;
      case Opcode::ADD:
        sr[d] = sr[s0] + sr[s1];
        break;
      case Opcode::ADDI:
        sr[d] = sr[s0] + static_cast<uint32_t>(imm);
        break;
      case Opcode::SUB:
        sr[d] = sr[s0] - sr[s1];
        break;
      case Opcode::MUL:
        sr[d] = sr[s0] * sr[s1];
        break;
      case Opcode::SHL:
        sr[d] = sr[s0] << (imm & 31);
        break;
      case Opcode::SHRA:
        sr[d] = static_cast<uint32_t>(
            static_cast<int32_t>(sr[s0]) >> (imm & 31));
        break;
      case Opcode::AND:
        sr[d] = sr[s0] & sr[s1];
        break;
      case Opcode::OR:
        sr[d] = sr[s0] | sr[s1];
        break;
      case Opcode::XOR:
        sr[d] = sr[s0] ^ sr[s1];
        break;
      case Opcode::DIV: {
        const auto denom = static_cast<int32_t>(sr[s1]);
        GCD2_REQUIRE(denom != 0, "division by zero");
        sr[d] = static_cast<uint32_t>(static_cast<int32_t>(sr[s0]) / denom);
        break;
      }
      case Opcode::COMBINE4: {
        const uint32_t b = sr[s0] & 0xff;
        sr[d] = b | (b << 8) | (b << 16) | (b << 24);
        break;
      }

      case Opcode::LOADB:
        sr[d] = static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int8_t>(mem_.load8(sr[s0] + imm))));
        stats_.bytesLoaded += 1;
        break;
      case Opcode::LOADW:
        sr[d] = mem_.load32(sr[s0] + imm);
        stats_.bytesLoaded += 4;
        break;
      case Opcode::STOREB:
        mem_.store8(sr[s0] + imm, static_cast<uint8_t>(sr[s1] & 0xff));
        stats_.bytesStored += 1;
        break;
      case Opcode::STOREW:
        mem_.store32(sr[s0] + imm, sr[s1]);
        stats_.bytesStored += 4;
        break;

      case Opcode::JUMP:
        ++stats_.branchesTaken;
        return static_cast<int>(imm);
      case Opcode::JUMPNZ:
        if (sr[s0] != 0) {
            ++stats_.branchesTaken;
            return static_cast<int>(imm);
        }
        break;

      case Opcode::VLOAD:
        mem_.loadBlock(sr[s0] + imm, vr[d].data(), kVectorBytes);
        stats_.bytesLoaded += kVectorBytes;
        break;
      case Opcode::VSTORE:
        mem_.storeBlock(sr[s0] + imm, vr[s1].data(), kVectorBytes);
        stats_.bytesStored += kVectorBytes;
        break;
      case Opcode::VMOV:
        vr[d] = vr[s0];
        break;
      case Opcode::VSPLATW:
        for (int i = 0; i < kVectorWords; ++i)
            regs_.setVecWord(d, i, static_cast<int32_t>(sr[s0]));
        break;

      case Opcode::VADDB:
        for (int i = 0; i < kVectorBytes; ++i)
            vr[d][i] = static_cast<uint8_t>(vr[s0][i] + vr[s1][i]);
        break;
      case Opcode::VADDH:
        for (int i = 0; i < kVectorHalves; ++i)
            regs_.setVecHalf(d, i, static_cast<int16_t>(
                regs_.vecHalf(s0, i) + regs_.vecHalf(s1, i)));
        break;
      case Opcode::VADDW:
        // 32-bit lanes wrap modulo 2^32 (HVX semantics): compute in
        // uint32_t, where overflow is defined, and cast back.
        for (int i = 0; i < kVectorWords; ++i)
            regs_.setVecWord(d, i, static_cast<int32_t>(
                static_cast<uint32_t>(regs_.vecWord(s0, i)) +
                static_cast<uint32_t>(regs_.vecWord(s1, i))));
        break;
      case Opcode::VSUBH:
        for (int i = 0; i < kVectorHalves; ++i)
            regs_.setVecHalf(d, i, static_cast<int16_t>(
                regs_.vecHalf(s0, i) - regs_.vecHalf(s1, i)));
        break;
      case Opcode::VSUBW:
        for (int i = 0; i < kVectorWords; ++i)
            regs_.setVecWord(d, i, static_cast<int32_t>(
                static_cast<uint32_t>(regs_.vecWord(s0, i)) -
                static_cast<uint32_t>(regs_.vecWord(s1, i))));
        break;
      case Opcode::VMAXB:
        for (int i = 0; i < kVectorBytes; ++i)
            vr[d][i] = static_cast<uint8_t>(
                std::max(static_cast<int8_t>(vr[s0][i]),
                         static_cast<int8_t>(vr[s1][i])));
        break;
      case Opcode::VMINB:
        for (int i = 0; i < kVectorBytes; ++i)
            vr[d][i] = static_cast<uint8_t>(
                std::min(static_cast<int8_t>(vr[s0][i]),
                         static_cast<int8_t>(vr[s1][i])));
        break;
      case Opcode::VMAXUB:
        for (int i = 0; i < kVectorBytes; ++i)
            vr[d][i] = std::max(vr[s0][i], vr[s1][i]);
        break;
      case Opcode::VMINUB:
        for (int i = 0; i < kVectorBytes; ++i)
            vr[d][i] = std::min(vr[s0][i], vr[s1][i]);
        break;
      case Opcode::VAVGB:
        for (int i = 0; i < kVectorBytes; ++i)
            vr[d][i] = static_cast<uint8_t>(
                (static_cast<uint32_t>(vr[s0][i]) + vr[s1][i] + 1) >> 1);
        break;

      case Opcode::VMPY:
      case Opcode::VMPYACC: {
        // Fig. 1 (a): lane i multiplies by scalar byte (i mod 4); even
        // products land in the low pair register, odd in the high one.
        const bool acc = inst.op == Opcode::VMPYACC;
        for (int i = 0; i < kVectorBytes; ++i) {
            const int32_t prod = ubyte(s0, i) * scalarByte(s1, i % 4);
            const int out = (i % 2 == 0) ? d : d + 1;
            const int lane = i / 2;
            const int16_t base = acc ? regs_.vecHalf(out, lane) : int16_t{0};
            regs_.setVecHalf(out, lane,
                             static_cast<int16_t>(base + prod));
        }
        break;
      }
      case Opcode::VMPA: {
        // Fig. 1 (b): element pairs from the two source vectors scaled by
        // the first-two / last-two scalar bytes, accumulated into the two
        // halves of the destination pair.
        for (int r = 0; r < kVectorHalves; ++r) {
            const int32_t lo = ubyte(s0, 2 * r) * scalarByte(s1, 0) +
                               ubyte(s0, 2 * r + 1) * scalarByte(s1, 1);
            const int32_t hi = ubyte(s0 + 1, 2 * r) * scalarByte(s1, 2) +
                               ubyte(s0 + 1, 2 * r + 1) * scalarByte(s1, 3);
            regs_.setVecHalf(d, r, static_cast<int16_t>(
                regs_.vecHalf(d, r) + lo));
            regs_.setVecHalf(d + 1, r, static_cast<int16_t>(
                regs_.vecHalf(d + 1, r) + hi));
        }
        break;
      }
      case Opcode::VRMPY:
        // Fig. 1 (c): each word lane accumulates a 4-element dot product.
        for (int i = 0; i < kVectorWords; ++i) {
            int32_t dot = 0;
            for (int j = 0; j < 4; ++j)
                dot += ubyte(s0, 4 * i + j) * scalarByte(s1, j);
            regs_.setVecWord(d, i, regs_.vecWord(d, i) + dot);
        }
        break;
      case Opcode::VTMPY:
        // 3-tap stride-2 filter over each source vector of the pair.
        for (int r = 0; r < kVectorHalves; ++r) {
            auto tap = [&](int srcReg, int nextReg) {
                const int32_t a = ubyte(srcReg, 2 * r);
                const int32_t b = ubyte(srcReg, 2 * r + 1);
                const int32_t c = (2 * r + 2 < kVectorBytes)
                                      ? ubyte(srcReg, 2 * r + 2)
                                      : (nextReg >= 0 ? ubyte(nextReg, 0)
                                                      : 0);
                return a * scalarByte(s1, 0) + b * scalarByte(s1, 1) +
                       c * scalarByte(s1, 2);
            };
            regs_.setVecHalf(d, r, static_cast<int16_t>(
                regs_.vecHalf(d, r) + tap(s0, s0 + 1)));
            regs_.setVecHalf(d + 1, r, static_cast<int16_t>(
                regs_.vecHalf(d + 1, r) + tap(s0 + 1, -1)));
        }
        break;
      case Opcode::VMPYE: {
        const auto mult = static_cast<int16_t>(sr[s1] & 0xffff);
        for (int i = 0; i < kVectorWords; ++i)
            regs_.setVecWord(d, i, static_cast<int32_t>(
                regs_.vecHalf(s0, 2 * i)) * mult);
        break;
      }
      case Opcode::VMPYIW: {
        const uint32_t mult = sr[s1];
        for (int i = 0; i < kVectorWords; ++i)
            regs_.setVecWord(d, i, static_cast<int32_t>(
                static_cast<uint32_t>(regs_.vecWord(s0, i)) * mult));
        break;
      }

      case Opcode::VASRHB:
      case Opcode::VASRHUB: {
        const int shift = static_cast<int>(imm);
        const bool unsignedOut = inst.op == Opcode::VASRHUB;
        for (int i = 0; i < kVectorBytes; ++i) {
            const int reg = (i < kVectorHalves) ? s0 : s0 + 1;
            const int lane = i % kVectorHalves;
            const auto shifted = static_cast<int32_t>(
                roundShift(regs_.vecHalf(reg, lane), shift));
            vr[d][i] = unsignedOut
                           ? usat8(shifted)
                           : static_cast<uint8_t>(sat8(shifted));
        }
        break;
      }
      case Opcode::VASRWH: {
        const int shift = static_cast<int>(imm);
        for (int i = 0; i < kVectorHalves; ++i) {
            const int reg = (i < kVectorWords) ? s0 : s0 + 1;
            const int lane = i % kVectorWords;
            regs_.setVecHalf(d, i, sat16(
                roundShift(regs_.vecWord(reg, lane), shift)));
        }
        break;
      }

      case Opcode::VSHUFF: {
        const int lane = 1 << imm;
        const int perVec = kVectorBytes / lane;
        std::array<uint8_t, 2 * kVectorBytes> out;
        for (int i = 0; i < perVec; ++i) {
            std::memcpy(out.data() + (2 * i) * lane,
                        vr[s0].data() + i * lane, lane);
            std::memcpy(out.data() + (2 * i + 1) * lane,
                        vr[s1].data() + i * lane, lane);
        }
        std::memcpy(vr[d].data(), out.data(), kVectorBytes);
        std::memcpy(vr[d + 1].data(), out.data() + kVectorBytes,
                    kVectorBytes);
        break;
      }
      case Opcode::VDEAL: {
        const int lane = 1 << imm;
        const int perVec = kVectorBytes / lane;
        std::array<uint8_t, 2 * kVectorBytes> in;
        std::memcpy(in.data(), vr[s0].data(), kVectorBytes);
        std::memcpy(in.data() + kVectorBytes, vr[s1].data(), kVectorBytes);
        std::array<uint8_t, 2 * kVectorBytes> out;
        for (int i = 0; i < perVec; ++i) {
            std::memcpy(out.data() + i * lane,
                        in.data() + (2 * i) * lane, lane);
            std::memcpy(out.data() + (perVec + i) * lane,
                        in.data() + (2 * i + 1) * lane, lane);
        }
        std::memcpy(vr[d].data(), out.data(), kVectorBytes);
        std::memcpy(vr[d + 1].data(), out.data() + kVectorBytes,
                    kVectorBytes);
        break;
      }
      case Opcode::VSHUFFE:
      case Opcode::VSHUFFO: {
        const int lane = 1 << imm;
        const int perVec = kVectorBytes / lane;
        const int pick = (inst.op == Opcode::VSHUFFE) ? 0 : 1;
        std::array<uint8_t, kVectorBytes> out;
        for (int i = 0; i < perVec / 2; ++i) {
            std::memcpy(out.data() + (2 * i) * lane,
                        vr[s0].data() + (2 * i + pick) * lane, lane);
            std::memcpy(out.data() + (2 * i + 1) * lane,
                        vr[s1].data() + (2 * i + pick) * lane, lane);
        }
        vr[d] = out;
        break;
      }

      case Opcode::VLUT:
        for (int i = 0; i < kVectorBytes; ++i) {
            const uint8_t idx = vr[s1][i];
            const int reg = (idx < kVectorBytes) ? s0 : s0 + 1;
            vr[d][i] = vr[reg][idx % kVectorBytes];
        }
        break;

      case Opcode::kNumOpcodes:
        GCD2_PANIC("invalid opcode");
    }
    return -1;
}

int
FunctionalSimulator::execute(const Instruction &inst)
{
    return executeInstruction(inst, regs_, mem_, stats_);
}

void
FunctionalSimulator::run(const Program &prog, uint64_t maxSteps)
{
    size_t pc = 0;
    // The step bound is checked once per chunk instead of once per
    // instruction so the hot loop stays branch-light; the inner loop is
    // clamped to the remaining budget, so on overflow the program state
    // (exactly maxSteps instructions executed, then a panic) is identical
    // to a per-step check.
    constexpr uint64_t kStepCheckInterval = 4096;
    uint64_t steps = 0;
    while (pc < prog.code.size()) {
        GCD2_ASSERT(steps < maxSteps,
                    "program exceeded " << maxSteps << " steps");
        const uint64_t chunkEnd =
            steps + std::min(kStepCheckInterval, maxSteps - steps);
        while (steps < chunkEnd && pc < prog.code.size()) {
            ++steps;
            const int takenLabel = execute(prog.code[pc]);
            if (takenLabel >= 0) {
                GCD2_ASSERT(static_cast<size_t>(takenLabel) <
                                prog.labels.size(),
                            "branch to unknown label " << takenLabel);
                pc = prog.labels[takenLabel];
                GCD2_ASSERT(pc != SIZE_MAX, "branch to unbound label");
            } else {
                ++pc;
            }
        }
    }
}

} // namespace gcd2::dsp
