/**
 * @file
 * Global value flow: a flow-sensitive value-numbering / abstract-
 * interpretation pass over a BlockGraph (DESIGN.md section 17).
 *
 * Every (block, scalar register) pair is assigned a lattice value
 *
 *     bottom  <  affine  <  top
 *
 * where an affine value is `root + offset + sum_i stride_i * t_i`: a
 * symbolic base plus a constant plus one linear term per enclosing
 * counted loop, with t_i the (0-based) iteration index of loop i. Roots
 * are stable value numbers:
 *
 *  - 0..31: the value a scalar register held at *program entry* (the
 *    kernel buffer ABI roots, Program::noaliasRegs, live here);
 *  - kVfConstRoot: the literal zero base, so MOVI results compare as
 *    absolute constants;
 *  - kVfFirstDefRoot + i: the value produced by instruction i when it is
 *    not derivable as base-plus-constant (loads, multiplies, ...). A
 *    def-site root is an SSA-ish value number: two points sharing it saw
 *    the *same dynamic instance* of that def, because a def-site value
 *    cannot survive the head join of any loop containing its def (the
 *    entry path carries a different value, and mismatched joins widen to
 *    top).
 *
 * Loop structure is recognized syntactically -- backward JUMPNZ branches
 * whose body intervals are well nested, the only shape the kernel
 * generators emit -- and solved with the generic lattice engine
 * (analysis/dataflow.h): back-edge joins *fold* a constant per-iteration
 * delta into a linear term instead of widening, loop-exit edges
 * concretize terms with the loop's resolved trip count, and a head-in
 * change resets the body states so stale back-edge values never force a
 * spurious widening. Programs with forward branches, unconditional
 * jumps, or improper nesting fall back to the plain exact-or-top join:
 * still sound, just without induction terms.
 *
 * Trip counts fall out of the same analysis: the JUMPNZ counter's value
 * at the branch must be an absolute constant C plus a single own-loop
 * term of stride s < 0 with C >= 0 and s | C -- the loop then runs
 * exactly C / -s + 1 iterations (do-while shape). This is what
 * select::analyzeProgram consumes to certify register-trip counted
 * loops that the old last-write-must-be-MOVI idiom refused.
 *
 * Exactness (what makes Error-severity findings sound): a non-top
 * affine value is not an approximation -- on every execution reaching
 * its program point with loop iteration vector (t_1..t_k), the register
 * holds exactly root + offset + sum stride_i * t_i, because forward
 * joins require exact equality, back-edge joins require the exact
 * one-step advance, and counted do-while loops realize every iteration
 * vector in the box [0, trips_i).
 */
#ifndef GCD2_ANALYSIS_VALUEFLOW_H
#define GCD2_ANALYSIS_VALUEFLOW_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dataflow.h"

namespace gcd2::analysis {

/** Root id of the literal zero base (MOVI results). */
inline constexpr int kVfConstRoot = dsp::kNumScalarRegs;
/** First def-site root: kVfFirstDefRoot + instruction index. */
inline constexpr int kVfFirstDefRoot = dsp::kNumScalarRegs + 1;
/** Linear terms per value; more enclosing loops than this widens. */
inline constexpr int kVfMaxTerms = 4;

/** One linear component: + stride * t over iterations t of `loop`. */
struct VfTerm
{
    int loop = -1; ///< index into ValueFlow::loops
    int64_t stride = 0;

    bool operator==(const VfTerm &other) const
    {
        return loop == other.loop && stride == other.stride;
    }
};

/** Lattice value of one scalar register at one program point. */
struct VfValue
{
    enum class Kind : uint8_t { Bottom, Affine, Top };

    Kind kind = Kind::Bottom;
    int32_t root = 0;
    int64_t offset = 0;
    uint8_t numTerms = 0;
    std::array<VfTerm, kVfMaxTerms> terms{};

    static VfValue bottom() { return VfValue{}; }
    static VfValue top()
    {
        VfValue v;
        v.kind = Kind::Top;
        return v;
    }
    static VfValue base(int32_t root, int64_t offset = 0)
    {
        VfValue v;
        v.kind = Kind::Affine;
        v.root = root;
        v.offset = offset;
        return v;
    }

    bool isAffine() const { return kind == Kind::Affine; }
    /** Affine with no linear terms: one fixed address per execution. */
    bool isSingleton() const { return isAffine() && numTerms == 0; }

    /** Stride of the @p loop term, 0 when absent. */
    int64_t strideOf(int loop) const;
    /** Same root and identical term lists (offsets may differ). */
    bool sameShape(const VfValue &other) const;
    /** This value plus a constant (affine only; others unchanged). */
    VfValue plus(int64_t delta) const;
    /** Copy with the @p loop term added (sorted); top when full. */
    VfValue withTerm(int loop, int64_t stride) const;
    /** Copy with the @p loop term removed. */
    VfValue withoutTerm(int loop) const;

    bool operator==(const VfValue &other) const;
    bool operator!=(const VfValue &other) const
    {
        return !(*this == other);
    }

    /** "r3+128+8*t0" style rendering for diagnostics and tests. */
    std::string toString() const;
};

/** Plain (forward-edge) join: bottom is the identity, equal values are
 *  kept, anything else widens to top. */
VfValue vfJoin(const VfValue &a, const VfValue &b);

/** One recognized counted loop: body blocks [head, tail] inclusive. */
struct VfLoop
{
    int head = 0;           ///< loop-head block (the label target)
    int tail = 0;           ///< back-edge block (ends in the JUMPNZ)
    size_t startInst = 0;   ///< first body instruction
    size_t branchInst = 0;  ///< the backward JUMPNZ
    int cond = -1;          ///< scalar trip-counter register
    int parent = -1;        ///< innermost enclosing loop, -1 = none
    bool tripKnown = false; ///< trip count resolved to a constant
    uint64_t trips = 0;     ///< iterations of the body per loop entry
};

/** The solved value flow of one program. */
struct ValueFlow
{
    /** Recognized loops, outermost-first in program order. */
    std::vector<VfLoop> loops;
    /** Every branch is a backward JUMPNZ forming a well-nested loop
     *  with a unique head and tail; induction terms are live. */
    bool controlResolved = false;
    /** controlResolved, converged, and every loop has a compile-time
     *  trip count -- the precondition for execution-count arguments
     *  (trip certification, provable out-of-bounds). */
    bool tripsResolved = false;
    /** The fixpoint converged under the round cap (when false, every
     *  state is top and nothing may be concluded). */
    bool converged = true;
    int rounds = 0;
    /** Per block, per scalar register: value at block entry / exit. */
    std::vector<std::vector<VfValue>> in;
    std::vector<std::vector<VfValue>> out;
};

/** Run the value-flow analysis over @p graph. */
ValueFlow computeValueFlow(const BlockGraph &graph);

/**
 * Replay one block's scheduled instructions from its solved entry
 * state. Analyzers use this to read the value of any scalar operand
 * immediately before each instruction executes.
 */
class VfWalker
{
  public:
    VfWalker(const BlockGraph &graph, const ValueFlow &flow, int block);

    /** Reset every register to its entry base (analyzers use this to
     *  replay *unreachable* blocks, whose solved entry state is bottom,
     *  with block-local facts only). */
    void seedEntry();

    /** Value of scalar register @p reg before the current instruction. */
    const VfValue &reg(int reg) const;
    /** Value of @p op (top for non-scalar / malformed operands). */
    VfValue eval(const dsp::Operand &op) const;
    /** Apply instruction @p instIdx and advance. */
    void step(size_t instIdx);

  private:
    const BlockGraph &graph_;
    std::vector<VfValue> state_;
};

/**
 * Exact range [lo, hi] the value's offset-from-root takes across all
 * loop iterations (each term contributes stride * t, t in [0, trips)).
 * False when the value is not affine, a term's loop has no resolved
 * trip count, or the range overflows the guard bound.
 */
bool vfValueRange(const ValueFlow &flow, const VfValue &value,
                  int64_t &lo, int64_t &hi);

} // namespace gcd2::analysis

#endif // GCD2_ANALYSIS_VALUEFLOW_H
