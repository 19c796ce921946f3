#include "analysis/valueflow.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace gcd2::analysis {

namespace {

bool
addOv(int64_t a, int64_t b, int64_t *out)
{
    return __builtin_add_overflow(a, b, out);
}

bool
mulOv(int64_t a, int64_t b, int64_t *out)
{
    return __builtin_mul_overflow(a, b, out);
}

/** Absolute compile-time constant: const root, no induction terms. */
bool
isAbsConst(const VfValue &v)
{
    return v.isSingleton() && v.root == kVfConstRoot;
}

} // namespace

// VfValue -------------------------------------------------------------

int64_t
VfValue::strideOf(int loop) const
{
    for (int i = 0; i < numTerms; ++i)
        if (terms[static_cast<size_t>(i)].loop == loop)
            return terms[static_cast<size_t>(i)].stride;
    return 0;
}

bool
VfValue::sameShape(const VfValue &other) const
{
    if (!isAffine() || !other.isAffine() || root != other.root ||
        numTerms != other.numTerms)
        return false;
    for (int i = 0; i < numTerms; ++i)
        if (!(terms[static_cast<size_t>(i)] ==
              other.terms[static_cast<size_t>(i)]))
            return false;
    return true;
}

VfValue
VfValue::plus(int64_t delta) const
{
    if (!isAffine())
        return *this;
    VfValue out = *this;
    if (addOv(offset, delta, &out.offset))
        return top();
    return out;
}

VfValue
VfValue::withTerm(int loop, int64_t stride) const
{
    if (!isAffine() || stride == 0)
        return *this;
    if (numTerms == kVfMaxTerms)
        return top();
    VfValue out = *this;
    int pos = 0;
    while (pos < out.numTerms &&
           out.terms[static_cast<size_t>(pos)].loop < loop)
        ++pos;
    for (int i = out.numTerms; i > pos; --i)
        out.terms[static_cast<size_t>(i)] =
            out.terms[static_cast<size_t>(i - 1)];
    out.terms[static_cast<size_t>(pos)] = VfTerm{loop, stride};
    ++out.numTerms;
    return out;
}

VfValue
VfValue::withoutTerm(int loop) const
{
    if (!isAffine())
        return *this;
    VfValue out = *this;
    int w = 0;
    for (int i = 0; i < out.numTerms; ++i)
        if (out.terms[static_cast<size_t>(i)].loop != loop)
            out.terms[static_cast<size_t>(w++)] =
                out.terms[static_cast<size_t>(i)];
    for (int i = w; i < out.numTerms; ++i)
        out.terms[static_cast<size_t>(i)] = VfTerm{};
    out.numTerms = static_cast<uint8_t>(w);
    return out;
}

bool
VfValue::operator==(const VfValue &other) const
{
    if (kind != other.kind)
        return false;
    if (kind != Kind::Affine)
        return true;
    return offset == other.offset && sameShape(other);
}

std::string
VfValue::toString() const
{
    if (kind == Kind::Bottom)
        return "bot";
    if (kind == Kind::Top)
        return "top";
    std::string s;
    if (root == kVfConstRoot) {
        s = std::to_string(offset);
    } else {
        // Appended piecewise: GCC 12 reports a false -Wrestrict on
        // `"literal" + std::string&&`.
        const bool reg = root < dsp::kNumScalarRegs;
        s = reg ? "r" : "def@";
        s += std::to_string(reg ? root : root - kVfFirstDefRoot);
        if (offset > 0)
            s += '+';
        if (offset != 0)
            s += std::to_string(offset);
    }
    for (int i = 0; i < numTerms; ++i) {
        const VfTerm &t = terms[static_cast<size_t>(i)];
        if (t.stride >= 0)
            s += "+";
        s += std::to_string(t.stride) + "*t" + std::to_string(t.loop);
    }
    return s;
}

VfValue
vfJoin(const VfValue &a, const VfValue &b)
{
    if (a.kind == VfValue::Kind::Bottom)
        return b;
    if (b.kind == VfValue::Kind::Bottom)
        return a;
    if (a.kind == VfValue::Kind::Top || b.kind == VfValue::Kind::Top)
        return VfValue::top();
    return a == b ? a : VfValue::top();
}

// Per-instruction transfer --------------------------------------------

namespace {

/** Apply instruction @p instIdx to the scalar register state. Only the
 *  derivable shapes (MOVI/MOV/ADDI, ADD/SUB against an absolute
 *  constant) stay affine; every other scalar def gets a fresh def-site
 *  root. Vector defs are not tracked. */
void
applyInst(std::vector<VfValue> &state, const dsp::Program &prog,
          size_t instIdx)
{
    const dsp::Instruction &inst = prog.code[instIdx];
    const dsp::Operand &dst = inst.dst[0];
    if (dst.cls != dsp::RegClass::Scalar || dst.idx < 0 ||
        dst.idx >= dsp::kNumScalarRegs)
        return;
    const size_t d = static_cast<size_t>(dst.idx);
    const auto scalarSrc = [&](int i) -> const VfValue * {
        const dsp::Operand &op = inst.src[static_cast<size_t>(i)];
        if (op.cls != dsp::RegClass::Scalar || op.idx < 0 ||
            op.idx >= dsp::kNumScalarRegs)
            return nullptr;
        return &state[static_cast<size_t>(op.idx)];
    };

    switch (inst.op) {
    case dsp::Opcode::MOVI:
        state[d] = VfValue::base(kVfConstRoot, inst.imm);
        return;
    case dsp::Opcode::MOV:
        if (const VfValue *s = scalarSrc(0)) {
            state[d] = *s;
            return;
        }
        break;
    case dsp::Opcode::ADDI:
        if (const VfValue *s = scalarSrc(0)) {
            state[d] = s->plus(inst.imm);
            return;
        }
        break;
    case dsp::Opcode::ADD: {
        const VfValue *a = scalarSrc(0);
        const VfValue *b = scalarSrc(1);
        if (a && b) {
            if (isAbsConst(*b)) {
                state[d] = a->plus(b->offset);
                return;
            }
            if (isAbsConst(*a)) {
                state[d] = b->plus(a->offset);
                return;
            }
        }
        break;
    }
    case dsp::Opcode::SUB: {
        const VfValue *a = scalarSrc(0);
        const VfValue *b = scalarSrc(1);
        int64_t neg = 0;
        if (a && b && isAbsConst(*b) &&
            !__builtin_sub_overflow(int64_t{0}, b->offset, &neg)) {
            state[d] = a->plus(neg);
            return;
        }
        break;
    }
    default:
        break;
    }
    state[d] = VfValue::base(
        kVfFirstDefRoot + static_cast<int32_t>(instIdx));
}

// Loop discovery ------------------------------------------------------

/**
 * Recognize the counted-loop control shape: every branch is a backward
 * JUMPNZ on a scalar register targeting a block head, and the resulting
 * [head, tail] body intervals are well nested with unique heads. Any
 * other control flow (unconditional jumps, forward branches,
 * conditional exits, straddling or head-sharing intervals) returns
 * false and the analysis runs in the plain exact-or-top join mode.
 */
bool
discoverLoops(const BlockGraph &graph, std::vector<VfLoop> &loops)
{
    const dsp::Program &prog = *graph.program;
    for (size_t b = 0; b < graph.numBlocks(); ++b) {
        const vliw::BasicBlock &block = graph.cfg.blocks[b];
        const dsp::Instruction &last = prog.code[block.end - 1];
        if (last.op == dsp::Opcode::JUMP)
            return false;
        if (last.op != dsp::Opcode::JUMPNZ)
            continue;
        if (last.src[0].cls != dsp::RegClass::Scalar ||
            last.src[0].idx < 0 ||
            last.src[0].idx >= dsp::kNumScalarRegs)
            return false;
        const size_t target =
            prog.labels[static_cast<size_t>(last.imm)];
        if (target >= prog.code.size() || target > block.end - 1)
            return false;
        const int head = graph.blockOf(target);
        GCD2_ASSERT(head >= 0, "loop target outside every block");
        VfLoop loop;
        loop.head = head;
        loop.tail = static_cast<int>(b);
        loop.startInst = graph.cfg.blocks[static_cast<size_t>(head)].begin;
        loop.branchInst = block.end - 1;
        loop.cond = last.src[0].idx;
        loops.push_back(loop);
    }

    // Outermost-first: by head ascending, containing interval first.
    std::sort(loops.begin(), loops.end(),
              [](const VfLoop &a, const VfLoop &b) {
                  if (a.head != b.head)
                      return a.head < b.head;
                  return a.tail > b.tail;
              });
    for (size_t i = 0; i < loops.size(); ++i)
        for (size_t j = i + 1; j < loops.size(); ++j) {
            if (loops[j].head == loops[i].head)
                return false; // shared head
            if (loops[j].head > loops[i].tail)
                continue; // disjoint
            if (loops[j].tail > loops[i].tail)
                return false; // straddling intervals
        }
    for (size_t i = 0; i < loops.size(); ++i) {
        loops[i].parent = -1;
        for (size_t j = 0; j < i; ++j)
            if (loops[j].head <= loops[i].head &&
                loops[i].tail <= loops[j].tail)
                loops[i].parent = static_cast<int>(j);
    }
    return true;
}

// The lattice problem -------------------------------------------------

struct ValueFlowProblem
{
    using State = std::vector<VfValue>;

    const BlockGraph &graph;
    std::vector<VfLoop> &loops;
    bool useLoops = false;
    /** Per block: innermost containing loop / loop tailed here / loop
     *  headed here, -1 when none. */
    std::vector<int> innerLoop;
    std::vector<int> tailLoop;
    std::vector<int> headLoop;

    ValueFlowProblem(const BlockGraph &g, std::vector<VfLoop> &l,
                     bool use)
        : graph(g), loops(l), useLoops(use)
    {
        const size_t n = graph.numBlocks();
        innerLoop.assign(n, -1);
        tailLoop.assign(n, -1);
        headLoop.assign(n, -1);
        if (!useLoops)
            return;
        for (size_t i = 0; i < loops.size(); ++i) {
            // Outermost-first order: inner loops overwrite.
            for (int b = loops[i].head; b <= loops[i].tail; ++b)
                innerLoop[static_cast<size_t>(b)] =
                    static_cast<int>(i);
            tailLoop[static_cast<size_t>(loops[i].tail)] =
                static_cast<int>(i);
            headLoop[static_cast<size_t>(loops[i].head)] =
                static_cast<int>(i);
        }
    }

    bool forward() const { return true; }
    State init() const
    {
        return State(static_cast<size_t>(dsp::kNumScalarRegs));
    }
    State boundary() const
    {
        State s(static_cast<size_t>(dsp::kNumScalarRegs));
        for (int r = 0; r < dsp::kNumScalarRegs; ++r)
            s[static_cast<size_t>(r)] = VfValue::base(r);
        return s;
    }
    bool equal(const State &a, const State &b) const { return a == b; }
    int resetEnd(int block) const
    {
        const int l = useLoops
                          ? headLoop[static_cast<size_t>(block)]
                          : -1;
        return l >= 0 ? loops[static_cast<size_t>(l)].tail : block;
    }

    bool contains(int loop, int block) const
    {
        const VfLoop &l = loops[static_cast<size_t>(loop)];
        return l.head <= block && block <= l.tail;
    }

    /**
     * Fold the back-edge value into the head accumulator for loop
     * @p loop. The accumulator holds the *entry-path* value (the engine
     * folds boundary and fall-through predecessors first, and it is
     * recomputed from scratch every round, so it never carries the
     * loop's own term):
     *
     *  - identical values are loop-invariant;
     *  - a constant offset delta on the same root and term list becomes
     *    the loop's induction term (first round the term forms);
     *  - a back value already carrying the loop's own term {loop, s}
     *    confirms it iff stripping the term leaves entry + s -- the
     *    head value H(t) = entry + s*t advanced one iteration is
     *    exactly H(t+1) = (entry + s) + s*t (the established-term
     *    fixpoint check);
     *  - anything else widens to top.
     */
    VfValue joinBackReg(const VfValue &base, const VfValue &back,
                        int loop) const
    {
        if (back.kind == VfValue::Kind::Bottom)
            return base;
        if (base.kind == VfValue::Kind::Bottom)
            return base; // no entry value yet; body is dead anyway
        if (base.kind == VfValue::Kind::Top ||
            back.kind == VfValue::Kind::Top ||
            base.strideOf(loop) != 0)
            return VfValue::top();
        const int64_t stride = back.strideOf(loop);
        if (stride != 0) {
            const VfValue expect = base.plus(stride);
            if (expect.isAffine() && back.withoutTerm(loop) == expect)
                return base.withTerm(loop, stride);
            return VfValue::top();
        }
        if (back == base)
            return base;
        int64_t delta = 0;
        if (back.sameShape(base) &&
            !__builtin_sub_overflow(back.offset, base.offset, &delta))
            return base.withTerm(loop, delta);
        return VfValue::top();
    }

    /** Leave loop @p loop: fold its term into the offset using the last
     *  iteration index (trips - 1); top when the trip count is unknown
     *  or the arithmetic overflows. */
    VfValue concretizeReg(const VfValue &v, int loop) const
    {
        if (!v.isAffine())
            return v;
        const int64_t stride = v.strideOf(loop);
        if (stride == 0)
            return v;
        const VfLoop &l = loops[static_cast<size_t>(loop)];
        if (!l.tripKnown || l.trips == 0 ||
            l.trips - 1 >
                static_cast<uint64_t>(
                    std::numeric_limits<int64_t>::max()))
            return VfValue::top();
        int64_t span = 0;
        if (mulOv(stride, static_cast<int64_t>(l.trips - 1), &span))
            return VfValue::top();
        VfValue out = v.withoutTerm(loop);
        if (addOv(out.offset, span, &out.offset))
            return VfValue::top();
        return out;
    }

    void joinEdge(State &acc, const State &src, int to, int from)
    {
        const size_t nregs = acc.size();
        if (useLoops && from >= 0) {
            const int lt = tailLoop[static_cast<size_t>(from)];
            if (lt >= 0 &&
                loops[static_cast<size_t>(lt)].head == to) {
                for (size_t r = 0; r < nregs; ++r)
                    acc[r] = joinBackReg(acc[r], src[r], lt);
                return;
            }
            int l = innerLoop[static_cast<size_t>(from)];
            if (l >= 0 && !contains(l, to)) {
                State adj = src;
                for (; l >= 0 && !contains(l, to);
                     l = loops[static_cast<size_t>(l)].parent)
                    for (size_t r = 0; r < nregs; ++r)
                        adj[r] = concretizeReg(adj[r], l);
                for (size_t r = 0; r < nregs; ++r)
                    acc[r] = vfJoin(acc[r], adj[r]);
                return;
            }
        }
        for (size_t r = 0; r < nregs; ++r)
            acc[r] = vfJoin(acc[r], src[r]);
    }

    /** Trip count of a do-while JUMPNZ whose counter holds @p v at the
     *  branch: an absolute constant C with a single own-loop term of
     *  stride s < 0, C >= 0, s | C runs C / -s + 1 iterations (the
     *  branch falls through when the counter hits zero); a literal zero
     *  runs once. Re-evaluated on every tail transfer so stale facts
     *  from earlier rounds never survive. */
    void resolveTrip(VfLoop &loop, int loopIdx, const State &state)
    {
        loop.tripKnown = false;
        loop.trips = 0;
        const VfValue &v = state[static_cast<size_t>(loop.cond)];
        if (!v.isAffine() || v.root != kVfConstRoot)
            return;
        if (v.numTerms == 0) {
            if (v.offset == 0) {
                loop.tripKnown = true;
                loop.trips = 1;
            }
            return;
        }
        if (v.numTerms != 1 || v.terms[0].loop != loopIdx)
            return;
        const int64_t stride = v.terms[0].stride;
        if (stride >= 0 || v.offset < 0 ||
            stride == std::numeric_limits<int64_t>::min())
            return;
        const int64_t step = -stride;
        if (v.offset % step != 0)
            return;
        loop.tripKnown = true;
        loop.trips = static_cast<uint64_t>(v.offset / step) + 1;
    }

    State transfer(int block, const State &in)
    {
        State state = in;
        const int lt =
            useLoops ? tailLoop[static_cast<size_t>(block)] : -1;
        for (size_t idx :
             graph.scheduled[static_cast<size_t>(block)]) {
            if (lt >= 0 &&
                idx == loops[static_cast<size_t>(lt)].branchInst)
                resolveTrip(loops[static_cast<size_t>(lt)], lt,
                            state);
            applyInst(state, *graph.program, idx);
        }
        return state;
    }
};

} // namespace

// Driver --------------------------------------------------------------

ValueFlow
computeValueFlow(const BlockGraph &graph)
{
    ValueFlow flow;
    const size_t numBlocks = graph.numBlocks();
    if (numBlocks == 0) {
        flow.controlResolved = true;
        flow.tripsResolved = true;
        return flow;
    }
    GCD2_ASSERT(graph.program != nullptr,
                "value flow needs the underlying program");

    const bool useLoops = discoverLoops(graph, flow.loops);
    if (!useLoops)
        flow.loops.clear();

    ValueFlowProblem problem(graph, flow.loops, useLoops);
    // Head states advance through a short finite chain per register
    // (bottom, affine, one term per enclosing loop, top) and each
    // advance costs one body resweep, so real kernels converge in a
    // handful of rounds; the cap is a backstop for adversarial inputs.
    LatticeResult<ValueFlowProblem::State> solved =
        solveLattice(graph, problem, 512);
    flow.rounds = solved.rounds;
    flow.converged = solved.converged;
    if (!solved.converged) {
        // No fixpoint: degrade every fact to unknown.
        flow.loops.clear();
        flow.controlResolved = false;
        flow.tripsResolved = false;
        flow.in.assign(numBlocks,
                       std::vector<VfValue>(
                           static_cast<size_t>(dsp::kNumScalarRegs),
                           VfValue::top()));
        flow.out = flow.in;
        return flow;
    }
    flow.in = std::move(solved.in);
    flow.out = std::move(solved.out);
    flow.controlResolved = useLoops;
    flow.tripsResolved = useLoops;
    for (const VfLoop &loop : flow.loops)
        if (!loop.tripKnown)
            flow.tripsResolved = false;
    return flow;
}

// VfWalker ------------------------------------------------------------

VfWalker::VfWalker(const BlockGraph &graph, const ValueFlow &flow,
                   int block)
    : graph_(graph)
{
    if (block >= 0 && static_cast<size_t>(block) < flow.in.size())
        state_ = flow.in[static_cast<size_t>(block)];
    else
        state_.assign(static_cast<size_t>(dsp::kNumScalarRegs),
                      VfValue::top());
}

void
VfWalker::seedEntry()
{
    state_.assign(static_cast<size_t>(dsp::kNumScalarRegs),
                  VfValue{});
    for (int r = 0; r < dsp::kNumScalarRegs; ++r)
        state_[static_cast<size_t>(r)] = VfValue::base(r);
}

const VfValue &
VfWalker::reg(int reg) const
{
    GCD2_ASSERT(reg >= 0 && reg < dsp::kNumScalarRegs,
                "scalar register out of range");
    return state_[static_cast<size_t>(reg)];
}

VfValue
VfWalker::eval(const dsp::Operand &op) const
{
    if (op.cls != dsp::RegClass::Scalar || op.idx < 0 ||
        op.idx >= dsp::kNumScalarRegs)
        return VfValue::top();
    return state_[static_cast<size_t>(op.idx)];
}

void
VfWalker::step(size_t instIdx)
{
    applyInst(state_, *graph_.program, instIdx);
}

bool
vfValueRange(const ValueFlow &flow, const VfValue &value, int64_t &lo,
             int64_t &hi)
{
    if (!value.isAffine())
        return false;
    int64_t l = value.offset;
    int64_t h = value.offset;
    for (int i = 0; i < value.numTerms; ++i) {
        const VfTerm &t = value.terms[static_cast<size_t>(i)];
        if (t.loop < 0 ||
            static_cast<size_t>(t.loop) >= flow.loops.size())
            return false;
        const VfLoop &loop = flow.loops[static_cast<size_t>(t.loop)];
        if (!loop.tripKnown || loop.trips == 0 ||
            loop.trips - 1 >
                static_cast<uint64_t>(
                    std::numeric_limits<int64_t>::max()))
            return false;
        int64_t span = 0;
        if (mulOv(t.stride, static_cast<int64_t>(loop.trips - 1),
                  &span))
            return false;
        if (span >= 0) {
            if (addOv(h, span, &h))
                return false;
        } else {
            if (addOv(l, span, &l))
                return false;
        }
    }
    lo = l;
    hi = h;
    return true;
}

} // namespace gcd2::analysis
