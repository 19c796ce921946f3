#include "kernels/loop_nest.h"

#include "common/round.h"

namespace gcd2::kernels {

namespace {

using dsp::sreg;

/** The counter of a loop at nesting depth d is r5 + d. */
constexpr int kFirstCounterReg = 5;

} // namespace

std::array<int64_t, kBufferSegments + 1>
KernelBuffers::segments() const
{
    const int64_t sizes[] = {inputBytes, weightBytes, outputBytes,
                             scratchBytes + dsp::kVectorBytes};
    std::array<int64_t, kBufferSegments + 1> base{dsp::kVectorBytes};
    for (int i = 0; i < kBufferSegments; ++i)
        base[i + 1] = common::roundUp(base[i] + sizes[i], dsp::kVectorBytes);
    return base;
}

LoopBuilder::LoopBuilder(dsp::Program &prog, const KernelBuffers &buffers,
                         bool scratch)
    : prog_(prog)
{
    const auto base = buffers.segments();
    for (int i = 0; i < kBufferSegments - (scratch ? 0 : 1); ++i)
        prog_.declareNoalias(kRegInput + i, base[i + 1] - base[i]);
}

void
LoopBuilder::set(int reg, LoopInit init)
{
    prog_.push(init.fromReg
                   ? dsp::makeMov(sreg(reg),
                                  sreg(static_cast<int>(init.value)))
                   : dsp::makeMovi(sreg(reg), init.value));
}

void
LoopBuilder::open(LoopInit trips, std::initializer_list<Induction> inductions)
{
    set(kFirstCounterReg + depth_, trips);
    for (const Induction &induction : inductions)
        set(induction.reg, induction.init);
}

int
LoopBuilder::enter()
{
    const int label = prog_.newLabel();
    prog_.bindLabel(label);
    ++depth_;
    return label;
}

void
LoopBuilder::close(std::initializer_list<Induction> inductions, int label)
{
    --depth_;
    for (const Induction &induction : inductions)
        if (induction.step != 0)
            prog_.push(dsp::makeAddi(sreg(induction.reg),
                                     sreg(induction.reg), induction.step));
    const int counter = kFirstCounterReg + depth_;
    prog_.push(dsp::makeAddi(sreg(counter), sreg(counter), -1));
    prog_.push(dsp::makeJumpNz(sreg(counter), label));
}

} // namespace gcd2::kernels
