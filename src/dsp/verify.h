/**
 * @file
 * Static verification of DSP programs.
 *
 * Catches code-generation bugs before simulation: malformed operands,
 * unbound or out-of-range labels, vector-pair misalignment and branches
 * to unknown labels. Reads of never-written registers are the lint's
 * use-before-def analyzer (analysis::analyzeUseBeforeDef); kernel
 * validation (kernels::runKernel) runs both.
 */
#ifndef GCD2_DSP_VERIFY_H
#define GCD2_DSP_VERIFY_H

#include <string>
#include <vector>

#include "dsp/isa.h"

namespace gcd2::dsp {

/** One verification finding. */
struct VerifyIssue
{
    size_t instIndex;   ///< offending instruction (SIZE_MAX = program)
    std::string message;
};

/** Verify @p prog; returns all findings (empty = clean). */
std::vector<VerifyIssue> verifyProgram(const Program &prog);

/** Panics with a readable report if verification finds anything. */
void requireVerified(const Program &prog);

} // namespace gcd2::dsp

#endif // GCD2_DSP_VERIFY_H
