/**
 * @file
 * Program-verifier tests: dsp::verifyProgram's structural checks, the
 * use-before-def half of kernel validation (analysis::
 * analyzeUseBeforeDef), and kernels::requireValidKernel over every
 * kernel family the generators produce.
 */
#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "common/logging.h"
#include "dsp/verify.h"
#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "kernels/runner.h"

namespace gcd2::dsp {
namespace {

/** Error findings of the use-before-def analyzer; @p entryRegs, when
 *  given, replaces the noaliasRegs default. */
std::vector<common::Diag>
useBeforeDefErrors(const Program &prog,
                   const std::vector<int8_t> *entryRegs = nullptr)
{
    analysis::LintOptions options;
    options.entryDefinedRegs = entryRegs;
    std::vector<common::Diag> findings;
    analysis::analyzeUseBeforeDef(analysis::buildBlockGraph(prog), options,
                                  findings);
    std::erase_if(findings, [](const common::Diag &diag) {
        return diag.severity != common::DiagSeverity::Error;
    });
    return findings;
}

TEST(VerifyTest, CleanProgramPasses)
{
    Program prog;
    prog.noaliasRegs = {1, 2};
    prog.push(makeMovi(sreg(5), 4));
    prog.push(makeLoad(Opcode::LOADW, sreg(6), sreg(1), 0));
    prog.push(makeStore(Opcode::STOREW, sreg(2), sreg(6), 0));
    EXPECT_TRUE(verifyProgram(prog).empty());
    EXPECT_NO_THROW(requireVerified(prog));
}

TEST(VerifyTest, DetectsUnboundLabel)
{
    Program prog;
    const int label = prog.newLabel(); // never bound
    prog.push(makeJump(label));
    const auto issues = verifyProgram(prog);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("never bound"), std::string::npos);
    EXPECT_THROW(requireVerified(prog), PanicError);
}

TEST(VerifyTest, DetectsUseBeforeDef)
{
    Program prog;
    prog.push(makeAddi(sreg(5), sreg(6), 1)); // r6 never written
    const auto issues = useBeforeDefErrors(prog);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].message.find("r6"), std::string::npos);
    EXPECT_THROW(kernels::requireValidKernel(prog), PanicError);
}

TEST(VerifyTest, AbiRegistersCountAsInitialized)
{
    // LintOptions::entryDefinedRegs replaces the noaliasRegs default.
    Program prog;
    prog.push(makeAddi(sreg(5), sreg(3), 1));
    EXPECT_FALSE(useBeforeDefErrors(prog).empty());
    const std::vector<int8_t> abi = {3};
    EXPECT_TRUE(useBeforeDefErrors(prog, &abi).empty());
    // Kernel validation treats the whole ABI, r1..r4, as entry-defined.
    EXPECT_NO_THROW(kernels::requireValidKernel(prog));
}

TEST(VerifyTest, TracksInitializationAcrossBranches)
{
    // r7 is written before the loop; its use inside the loop is fine.
    Program prog;
    const int loop = prog.newLabel();
    prog.push(makeMovi(sreg(7), 3));
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(7), sreg(7), -1));
    prog.push(makeJumpNz(sreg(7), loop));
    EXPECT_TRUE(verifyProgram(prog).empty());
    EXPECT_TRUE(useBeforeDefErrors(prog).empty());
}

TEST(VerifyTest, VectorUseBeforeDefDetected)
{
    Program prog;
    prog.noaliasRegs = {1};
    prog.push(makeVstore(sreg(1), vreg(4), 0)); // v4 never written
    const auto issues = useBeforeDefErrors(prog);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].message.find("v4"), std::string::npos);
}

TEST(VerifyTest, AllGeneratedKernelsVerifyClean)
{
    for (auto scheme :
         {kernels::MatMulScheme::Vmpy, kernels::MatMulScheme::Vmpa,
          kernels::MatMulScheme::Vrmpy}) {
        for (int un : {1, 4, 12}) {
            kernels::MatMulConfig config;
            config.scheme = scheme;
            config.unrollCols = un;
            config.unrollK = 2;
            const kernels::MatMulKernel kernel({96, 40, 24}, config);
            EXPECT_NO_THROW(kernels::requireValidKernel(kernel.program()))
                << kernels::schemeName(scheme) << " un=" << un;
        }
    }

    for (int stride : {1, 2}) {
        kernels::DepthwiseConfig config;
        config.stride = stride;
        config.channels = 2;
        config.inH = 7;
        const kernels::DepthwiseKernel kernel(config);
        EXPECT_NO_THROW(kernels::requireValidKernel(kernel.program()));
    }

    for (auto op : {kernels::EwOp::Add, kernels::EwOp::MaxPool,
                    kernels::EwOp::Clamp, kernels::EwOp::Lut,
                    kernels::EwOp::Div, kernels::EwOp::DivLut}) {
        kernels::EwConfig config;
        config.op = op;
        config.length = 512;
        const kernels::ElementwiseKernel kernel(config);
        EXPECT_NO_THROW(kernels::requireValidKernel(kernel.program()))
            << kernels::ewOpName(op);
    }
}

} // namespace
} // namespace gcd2::dsp
