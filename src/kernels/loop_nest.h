/**
 * @file
 * The scaffolding every kernel generator shares: the buffer ABI, the one
 * segment layout the runner places those buffers in, and the counted-loop
 * builder that emits every loop of every generator.
 *
 * A counted loop is always emitted in one order:
 *
 *     counter <- trips              (MOVI, or MOV from a register)
 *     reg     <- init               (one MOV / MOVI per induction)
 *     preheader()                   (optional)
 *   L:
 *     body()
 *     reg     += step               (one ADDI per nonzero step)
 *     counter += -1
 *     JUMPNZ counter, L
 *
 * The counter of a loop at nesting depth d is r5 + d, so the registers a
 * nest of depth D owns are r5..r(5 + D - 1) plus its inductions.
 */
#ifndef GCD2_KERNELS_LOOP_NEST_H
#define GCD2_KERNELS_LOOP_NEST_H

#include <array>
#include <cstdint>
#include <initializer_list>

#include "dsp/isa.h"

namespace gcd2::kernels {

/** Scalar register numbers of the kernel ABI (r0 is zero by convention). */
inline constexpr int kRegInput = 1;
inline constexpr int kRegWeights = 2;
inline constexpr int kRegOutput = 3;
inline constexpr int kRegScratch = 4;

/** Buffer segments, one per ABI register: kRegInput + i is segment i. */
inline constexpr int kBufferSegments = 4;

/**
 * Buffer sizes of a generated kernel. The harness sets r1 = input base,
 * r2 = weight base, r3 = output base, r4 = scratch base (spills), then
 * runs the program. All other registers are clobbered.
 */
struct KernelBuffers
{
    int64_t inputBytes = 0;
    int64_t weightBytes = 0;
    int64_t outputBytes = 0;
    int64_t scratchBytes = 0;

    /**
     * The runner's segment layout: | guard | input | weights | output |
     * scratch | guard |, every base aligned up to the vector width. Holds
     * the base of each segment (input, weights, output, scratch), then
     * the image size; segment i may address up to base i + 1 (scratch:
     * through the trailing guard vector).
     */
    std::array<int64_t, kBufferSegments + 1> segments() const;
};

/** A value set before a loop: an immediate (MOVI) or a register (MOV). */
struct LoopInit
{
    bool fromReg = false;
    int64_t value = 0;

    static constexpr LoopInit imm(int64_t v) { return {false, v}; }
    static constexpr LoopInit reg(int r) { return {true, r}; }
};

/** A scalar register set before a loop and advanced by @p step bytes at
 *  each back edge (a zero step keeps it loop-invariant). */
struct Induction
{
    int reg = 0;
    LoopInit init;
    int64_t step = 0;
};

/**
 * Emits a generator's counted loops into its program. Construction
 * declares the kernel ABI registers noalias, each with the extent its
 * segment has in KernelBuffers::segments(), so the bounds lint proves
 * accesses against exactly what the runner backs; @p scratch controls
 * whether r4 is declared (matmul spills; conv and elementwise never
 * touch scratch).
 */
class LoopBuilder
{
  public:
    LoopBuilder(dsp::Program &prog, const KernelBuffers &buffers,
                bool scratch);

    /** Emit a loop of @p trips iterations (see the file comment). */
    template <typename Preheader, typename Body>
    void
    loop(LoopInit trips, std::initializer_list<Induction> inductions,
         Preheader &&preheader, Body &&body)
    {
        open(trips, inductions);
        preheader();
        const int label = enter();
        body();
        close(inductions, label);
    }

    template <typename Body>
    void
    loop(LoopInit trips, std::initializer_list<Induction> inductions,
         Body &&body)
    {
        loop(trips, inductions, [] {}, body);
    }

  private:
    void open(LoopInit trips, std::initializer_list<Induction> inductions);
    int enter();
    void close(std::initializer_list<Induction> inductions, int label);
    void set(int reg, LoopInit init);

    dsp::Program &prog_;
    int depth_ = 0;
};

} // namespace gcd2::kernels

#endif // GCD2_KERNELS_LOOP_NEST_H
