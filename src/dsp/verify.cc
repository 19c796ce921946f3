#include "dsp/verify.h"

#include <sstream>

#include "common/logging.h"

namespace gcd2::dsp {

namespace {

void
addIssue(std::vector<VerifyIssue> &issues, size_t idx, std::string msg)
{
    issues.push_back(VerifyIssue{idx, std::move(msg)});
}

} // namespace

std::vector<VerifyIssue>
verifyProgram(const Program &prog)
{
    std::vector<VerifyIssue> issues;

    // --- labels ----------------------------------------------------------
    for (size_t l = 0; l < prog.labels.size(); ++l) {
        if (prog.labels[l] == SIZE_MAX)
            addIssue(issues, SIZE_MAX,
                     "label L" + std::to_string(l) + " never bound");
        else if (prog.labels[l] > prog.code.size())
            addIssue(issues, SIZE_MAX,
                     "label L" + std::to_string(l) + " out of range");
    }

    // --- per-instruction shape -------------------------------------------
    for (size_t i = 0; i < prog.code.size(); ++i) {
        const Instruction &inst = prog.code[i];
        const OpcodeInfo &meta = inst.info();

        auto checkOperand = [&](const Operand &op, const char *what) {
            if (!op.valid())
                return;
            const int limit = op.cls == RegClass::Scalar ? kNumScalarRegs
                                                         : kNumVectorRegs;
            if (op.idx < 0 || op.idx >= limit)
                addIssue(issues, i,
                         std::string(what) + " register out of range");
        };
        checkOperand(inst.dst[0], "destination");
        checkOperand(inst.src[0], "source 0");
        checkOperand(inst.src[1], "source 1");

        if (meta.writesPair && inst.dst[0].valid() &&
            inst.dst[0].idx % 2 != 0)
            addIssue(issues, i, "pair destination must be even");
        if (meta.readsPairSrc && inst.src[0].valid() &&
            inst.src[0].idx % 2 != 0)
            addIssue(issues, i, "pair source must be even");

        if (inst.isBranch() &&
            (inst.imm < 0 ||
             static_cast<size_t>(inst.imm) >= prog.labels.size()))
            addIssue(issues, i, "branch to unknown label");
    }
    return issues;
}

void
requireVerified(const Program &prog)
{
    const auto issues = verifyProgram(prog);
    if (issues.empty())
        return;
    std::ostringstream oss;
    oss << "program verification failed:";
    for (const VerifyIssue &issue : issues) {
        oss << "\n  ";
        if (issue.instIndex != SIZE_MAX)
            oss << "[" << issue.instIndex << "] ";
        oss << issue.message;
    }
    GCD2_PANIC(oss.str());
}

} // namespace gcd2::dsp
