/**
 * @file
 * Served-schedule gate tests at Cheap depth (the schedule check table):
 * every packing policy's output checks clean, and seeded corruptions
 * (duplicated, dropped, or illegally co-packed instructions, broken
 * label maps) surface as structured findings.
 */
#include <gtest/gtest.h>

#include "analysis/schedule_check.h"
#include "vliw/packer.h"

namespace gcd2::vliw {
namespace {

using dsp::Opcode;
using dsp::PackedProgram;
using dsp::Program;
using dsp::makeAddi;
using dsp::makeBinary;
using dsp::makeJumpNz;
using dsp::makeLoad;
using dsp::makeMovi;
using dsp::makeStore;
using dsp::makeVecBinary;
using dsp::makeVload;
using dsp::sreg;
using dsp::vreg;

/** Fig. 5-style looped block: loads -> adds -> store -> counter. */
Program
loopProgram()
{
    Program prog;
    const int loop = prog.newLabel();
    prog.push(makeMovi(sreg(5), 4));
    prog.bindLabel(loop);
    prog.push(makeLoad(Opcode::LOADB, sreg(6), sreg(1), 0));
    prog.push(makeLoad(Opcode::LOADB, sreg(7), sreg(2), 0));
    prog.push(makeBinary(Opcode::ADD, sreg(9), sreg(6), sreg(7)));
    prog.push(makeStore(Opcode::STOREB, sreg(4), sreg(9), 0));
    prog.push(makeAddi(sreg(1), sreg(1), 1));
    prog.push(makeAddi(sreg(2), sreg(2), 1));
    prog.push(makeAddi(sreg(4), sreg(4), 1));
    prog.push(makeAddi(sreg(5), sreg(5), -1));
    prog.push(makeJumpNz(sreg(5), loop));
    return prog;
}

/** The Cheap served-schedule gate's findings on @p packed. */
std::vector<common::Diag>
gateFindings(const PackedProgram &packed)
{
    return analysis::checkSchedule(packed, analysis::LintDepth::Cheap)
        .diags;
}

size_t
errorCount(const std::vector<common::Diag> &findings)
{
    size_t n = 0;
    for (const common::Diag &d : findings) {
        EXPECT_EQ(d.pass, "schedule-check");
        if (d.severity == common::DiagSeverity::Error)
            ++n;
    }
    return n;
}

TEST(ScheduleAuditTest, EveryPolicyAuditsClean)
{
    const Program prog = loopProgram();
    for (PackPolicy policy :
         {PackPolicy::Sda, PackPolicy::SoftToHard, PackPolicy::SoftToNone,
          PackPolicy::InOrder, PackPolicy::ListSched}) {
        PackOptions opts;
        opts.policy = policy;
        const PackedProgram packed = pack(prog, opts);
        EXPECT_TRUE(gateFindings(packed).empty())
            << "policy " << packPolicyName(policy);
    }
}

TEST(ScheduleAuditTest, DuplicatedInstructionIsFlagged)
{
    PackedProgram packed = pack(loopProgram());
    const size_t dup = packed.packets.front().insts.front();
    packed.packets.back().insts.push_back(dup);
    const auto findings = gateFindings(packed);
    ASSERT_GE(errorCount(findings), 1u);
    bool mentioned = false;
    for (const common::Diag &d : findings)
        mentioned |= d.message.find("2 times") != std::string::npos;
    EXPECT_TRUE(mentioned);
}

TEST(ScheduleAuditTest, DroppedInstructionIsFlagged)
{
    PackedProgram packed = pack(loopProgram());
    for (auto &packet : packed.packets)
        if (packet.insts.size() > 1) {
            packet.insts.pop_back();
            break;
        }
    const auto findings = gateFindings(packed);
    ASSERT_GE(errorCount(findings), 1u);
    bool mentioned = false;
    for (const common::Diag &d : findings)
        mentioned |= d.message.find("0 times") != std::string::npos;
    EXPECT_TRUE(mentioned);
}

TEST(ScheduleAuditTest, CoPackedHardDependencyIsFlagged)
{
    // Scalar RAW is a *soft* (stall) dependency in this machine model;
    // vector RAW is hard and may never share a packet. Merge a vload's
    // packet with its consumer's and the auditor must object.
    Program prog;
    prog.push(makeVload(vreg(1), sreg(0), 128));
    prog.push(makeVecBinary(Opcode::VADDB, vreg(2), vreg(1), vreg(0)));
    prog.push(makeMovi(sreg(3), 7));
    prog.push(makeAddi(sreg(4), sreg(3), 1));
    PackedProgram packed = pack(prog);
    const size_t producer = 0; // the vload
    const size_t consumer = 1; // the vaddb reading v1
    size_t loadPacket = packed.packets.size();
    size_t usePacket = packed.packets.size();
    for (size_t p = 0; p < packed.packets.size(); ++p)
        for (size_t idx : packed.packets[p].insts) {
            if (idx == producer)
                loadPacket = p;
            if (idx == consumer)
                usePacket = p;
        }
    ASSERT_LT(loadPacket, packed.packets.size());
    ASSERT_LT(usePacket, packed.packets.size());
    ASSERT_NE(loadPacket, usePacket);

    auto &dst = packed.packets[loadPacket].insts;
    for (size_t idx : packed.packets[usePacket].insts)
        dst.push_back(idx);
    std::sort(dst.begin(), dst.end());
    packed.packets.erase(packed.packets.begin() +
                         static_cast<long>(usePacket));

    const auto findings = gateFindings(packed);
    ASSERT_GE(errorCount(findings), 1u);
    bool mentioned = false;
    for (const common::Diag &d : findings)
        mentioned |=
            d.message.find("hard dependency") != std::string::npos;
    EXPECT_TRUE(mentioned);
}

TEST(ScheduleAuditTest, CorruptLabelMapIsFlagged)
{
    PackedProgram packed = pack(loopProgram());
    ASSERT_FALSE(packed.labelPacket.empty());

    PackedProgram pastEnd = packed;
    pastEnd.labelPacket[0] = pastEnd.packets.size() + 5;
    bool mentioned = false;
    for (const common::Diag &d : gateFindings(pastEnd))
        mentioned |= d.message.find("past the last packet") !=
                     std::string::npos;
    EXPECT_TRUE(mentioned);

    // Pointing the label *after* packets holding labelled instructions
    // means those instructions run before their label.
    PackedProgram late = packed;
    late.labelPacket[0] = late.packets.size();
    mentioned = false;
    for (const common::Diag &d : gateFindings(late))
        mentioned |= d.message.find("before label") != std::string::npos;
    EXPECT_TRUE(mentioned);

    PackedProgram wrongSize = packed;
    wrongSize.labelPacket.clear();
    const auto findings = gateFindings(wrongSize);
    ASSERT_GE(errorCount(findings), 1u);
    EXPECT_NE(findings.back().message.find("label count"),
              std::string::npos);
}

} // namespace
} // namespace gcd2::vliw
