/**
 * @file
 * Hard/soft dependency classification between DSP instructions.
 *
 * The paper's key architectural observation (Section IV-C): the VLIW
 * pipeline tolerates *soft* dependencies inside a packet -- the result is
 * still correct, but the packet stalls for some cycles -- whereas *hard*
 * dependencies make same-packet placement illegal. Soft dependencies can
 * only be RAW or WAR (paper, footnote 3). Examples from Fig. 4: a load (or
 * scalar arithmetic) feeding a consumer is soft; packing two such 3-cycle
 * instructions together costs 4 cycles instead of 3.
 *
 * Classification implemented here:
 *  - RAW where the producer writes a scalar register: Soft. Penalty 1 for
 *    ALU/shift/load producers (one extra overlap stage, matching Fig. 4),
 *    2 for the slower multiply pipeline.
 *  - RAW where the producer writes a vector register: Hard (no intra-packet
 *    forwarding path for 1024-bit results).
 *  - WAW: Hard.
 *  - WAR: Soft with penalty 0 (reads happen in the packet's read stage,
 *    before any write commits, so co-packing is free; across packets the
 *    ordering must still be respected).
 *  - Memory: store->load, load->store, store->store are Hard unless the
 *    caller proves the accesses disjoint.
 */
#ifndef GCD2_DSP_DEPS_H
#define GCD2_DSP_DEPS_H

#include <cstdint>

#include "dsp/isa.h"

namespace gcd2::dsp {

/** Dependency classes with respect to same-packet placement. */
enum class DepKind : uint8_t
{
    None, ///< no ordering constraint
    Soft, ///< same-packet placement allowed, costs `penalty` stall cycles
    Hard, ///< same-packet placement forbidden
};

/** A classified dependency edge. */
struct Dependency
{
    DepKind kind = DepKind::None;
    /** Stall cycles added when both ends share a packet (soft only). */
    int penalty = 0;
};

/** Unique id of a register (scalars then vectors). */
inline int
regUid(const Operand &op)
{
    return op.cls == RegClass::Scalar ? op.idx : kNumScalarRegs + op.idx;
}

/** Uid-mask of the scalar (forwardable) register file. */
inline constexpr uint64_t kScalarUidMask =
    (uint64_t{1} << kNumScalarRegs) - 1;
/** Uid-mask of the vector register file. */
inline constexpr uint64_t kVectorUidMask = ~kScalarUidMask;

/**
 * Fixed-capacity register-uid list. An instruction touches at most five
 * uids (paired destination, paired first source, second source), so the
 * accessor functions below can return by value without heap traffic --
 * they sit on every dependence-classification and dataflow hot path.
 */
class RegList
{
  public:
    void push(int uid) { uids_[count_++] = static_cast<int8_t>(uid); }

    const int8_t *begin() const { return uids_; }
    const int8_t *end() const { return uids_ + count_; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    int operator[](size_t i) const { return uids_[i]; }

  private:
    int8_t uids_[5] = {};
    uint8_t count_ = 0;
};

/** Register uids written by an instruction (including pair highs). */
RegList regWrites(const Instruction &inst);

/**
 * Register uids read by an instruction (sources, pair-source highs, and
 * read-modify-write destinations).
 */
RegList regReads(const Instruction &inst);

/** An instruction's register footprint as uid bit-masks. */
struct RegMasks
{
    uint64_t reads = 0;
    uint64_t writes = 0;
};

/**
 * Mask form of regReads/regWrites, computed in a handful of shifts --
 * the hot-path representation (classifyDependency, the IDG builders,
 * the co-pack model, and the decoder all work on these masks).
 */
inline RegMasks
regMasks(const Instruction &inst)
{
    const OpcodeInfo &meta = inst.info();
    RegMasks m;
    if (inst.dst[0].valid()) {
        const int uid = regUid(inst.dst[0]);
        uint64_t bits = uint64_t{1} << uid;
        if (meta.writesPair)
            bits |= uint64_t{1} << (uid + 1);
        m.writes = bits;
        if (meta.readsDst)
            m.reads |= bits;
    }
    if (inst.src[0].valid()) {
        const int uid = regUid(inst.src[0]);
        m.reads |= uint64_t{1} << uid;
        if (meta.readsPairSrc)
            m.reads |= uint64_t{1} << (uid + 1);
    }
    if (inst.src[1].valid())
        m.reads |= uint64_t{1} << regUid(inst.src[1]);
    return m;
}

/**
 * Classify the dependency of @p late on @p early (program order:
 * early first).
 *
 * @param memMayAlias whether the two instructions' memory accesses (if
 *        any) may touch overlapping addresses; callers that track base
 *        register versions can pass false for provably disjoint accesses.
 */
Dependency classifyDependency(const Instruction &early,
                              const Instruction &late, bool memMayAlias);

/** Byte footprint of a memory access (0 for non-memory opcodes). */
int memAccessBytes(const Instruction &inst);

} // namespace gcd2::dsp

#endif // GCD2_DSP_DEPS_H
