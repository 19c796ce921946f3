/**
 * @file
 * Mutation smoke check for the compilation auditors (CI: driven by
 * scripts/check_audit.py).
 *
 * Four modes, each printing machine-parseable lines on stdout:
 *
 *   corrupt-selection  seed selection-level corruptions (out-of-range
 *                      plan, dead-node plan, dishonest totalCost,
 *                      valid-but-suboptimal plans) and report how many
 *                      findings select::auditSelection raises for each;
 *   corrupt-schedule   seed schedule-level corruptions (duplicated /
 *                      dropped instructions, co-packed hard dependency,
 *                      overcommitted packet, same-packet write conflict,
 *                      broken label map) and report how many Errors the
 *                      Cheap served-schedule gate raises for each;
 *   clean-zoo          compile all ten evaluation models with the audit
 *                      pass enabled and report per-model Error/Warning
 *                      diagnostic counts (all must be zero);
 *   pbqp-zoo           compile all ten evaluation models with the PBQP
 *                      selection rung and the Deep audit, reporting
 *                      per-model findings plus the reduction-rule
 *                      counters (r0/r1/r2/rn).
 *
 * An auditor that misses a seeded corruption (findings=0) or flags a
 * clean compile is a regression the driver script turns into a CI
 * failure.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/schedule_check.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "select/audit.h"
#include "vliw/packer.h"

namespace {

using namespace gcd2;

void
reportSelection(const char *label, size_t findings)
{
    std::printf("corrupt-selection %s findings=%zu\n", label, findings);
}

int
runCorruptSelection()
{
    select::CostModel model;
    const graph::Graph g = models::buildModel(models::ModelId::WdsrB);
    select::PlanTable table(g, model);
    const select::Selection clean =
        select::selectGcd2Partitioned(table, 13).selection;

    select::SelectionAuditOptions full;
    full.checkNotWorseThanLocal = true;
    full.deep = true;

    // Control: the solver's own output must audit clean.
    reportSelection("control-clean",
                    select::auditSelection(table, clean, full).size());

    select::Selection outOfRange = clean;
    const graph::NodeId victim = table.freeNodes().front();
    outOfRange.planIndex[static_cast<size_t>(victim)] =
        static_cast<int>(table.plans(victim).size());
    reportSelection(
        "out-of-range-plan",
        select::auditSelection(table, outOfRange, full).size());

    select::Selection negative = clean;
    negative.planIndex[static_cast<size_t>(table.freeNodes().back())] = -1;
    reportSelection("missing-plan",
                    select::auditSelection(table, negative, full).size());

    select::Selection dishonest = clean;
    dishonest.totalCost += 4096;
    reportSelection("dishonest-cost",
                    select::auditSelection(table, dishonest, full).size());

    // Swap every free node to its most expensive plan and keep the
    // ledger honest: structurally fine, but the quality checks object.
    select::Selection suboptimal = clean;
    for (graph::NodeId id : table.freeNodes()) {
        const auto &plans = table.plans(id);
        size_t worst = 0;
        for (size_t p = 1; p < plans.size(); ++p)
            if (plans[p].cycles > plans[worst].cycles)
                worst = p;
        suboptimal.planIndex[static_cast<size_t>(id)] =
            static_cast<int>(worst);
    }
    suboptimal.totalCost = select::aggCost(table, suboptimal);
    reportSelection(
        "suboptimal-plans",
        select::auditSelection(table, suboptimal, full).size());
    return 0;
}

/** Run @p packed through the Cheap served-schedule gate and print its
 *  Error count. */
void
reportSchedule(const char *label, const dsp::PackedProgram &packed)
{
    const size_t findings =
        analysis::checkSchedule(packed, analysis::LintDepth::Cheap)
            .errors();
    std::printf("corrupt-schedule %s findings=%zu\n", label, findings);
}

/** A hand-packed program: each inner list is one packet. */
dsp::PackedProgram
packAs(dsp::Program prog, std::vector<std::vector<size_t>> packets)
{
    dsp::PackedProgram packed;
    for (std::vector<size_t> &insts : packets)
        packed.packets.push_back(dsp::Packet{std::move(insts)});
    packed.program = std::move(prog);
    return packed;
}

int
runCorruptSchedule()
{
    dsp::Program prog;
    const int loop = prog.newLabel();
    prog.push(dsp::makeMovi(dsp::sreg(5), 4));
    prog.bindLabel(loop);
    prog.push(dsp::makeVload(dsp::vreg(1), dsp::sreg(0), 128));
    prog.push(dsp::makeVecBinary(dsp::Opcode::VADDB, dsp::vreg(2),
                                 dsp::vreg(1), dsp::vreg(0)));
    prog.push(dsp::makeVstore(dsp::sreg(0), dsp::vreg(2), 256));
    prog.push(dsp::makeAddi(dsp::sreg(5), dsp::sreg(5), -1));
    prog.push(dsp::makeJumpNz(dsp::sreg(5), loop));
    const dsp::PackedProgram clean = vliw::pack(prog);

    reportSchedule("control-clean", clean);

    dsp::PackedProgram duplicated = clean;
    duplicated.packets.back().insts.push_back(
        duplicated.packets.front().insts.front());
    reportSchedule("duplicated-instruction", duplicated);

    dsp::PackedProgram dropped = clean;
    for (auto &packet : dropped.packets)
        if (!packet.insts.empty()) {
            packet.insts.pop_back();
            break;
        }
    reportSchedule("dropped-instruction", dropped);

    // Co-pack the vload with the vaddb that consumes v1: vector RAW is
    // a hard dependency and may never share a packet.
    dsp::PackedProgram merged = clean;
    size_t producerPacket = merged.packets.size();
    size_t consumerPacket = merged.packets.size();
    for (size_t p = 0; p < merged.packets.size(); ++p)
        for (size_t idx : merged.packets[p].insts) {
            if (idx == 1)
                producerPacket = p;
            if (idx == 2)
                consumerPacket = p;
        }
    if (producerPacket < merged.packets.size() &&
        consumerPacket < merged.packets.size() &&
        producerPacket != consumerPacket) {
        auto &dst = merged.packets[producerPacket].insts;
        for (size_t idx : merged.packets[consumerPacket].insts)
            dst.push_back(idx);
        std::sort(dst.begin(), dst.end());
        merged.packets.erase(merged.packets.begin() +
                             static_cast<long>(consumerPacket));
    }
    reportSchedule("co-packed-hard-dep", merged);

    dsp::PackedProgram badLabel = clean;
    badLabel.labelPacket[0] = badLabel.packets.size() + 7;
    reportSchedule("label-past-end", badLabel);

    // Three multiplies in one packet: the DSP has two multiply pipes.
    dsp::Program mults;
    mults.push(dsp::makeMovi(dsp::sreg(1), 2));
    mults.push(dsp::makeMovi(dsp::sreg(2), 3));
    for (int dst = 3; dst <= 5; ++dst)
        mults.push(dsp::makeBinary(dsp::Opcode::MUL, dsp::sreg(dst),
                                   dsp::sreg(1), dsp::sreg(2)));
    reportSchedule("overcommitted-packet",
                   packAs(std::move(mults), {{0, 1}, {2, 3, 4}}));

    // Two writes of r1 in one packet race in the write stage.
    dsp::Program writes;
    writes.push(dsp::makeMovi(dsp::sreg(1), 5));
    writes.push(dsp::makeMovi(dsp::sreg(1), 6));
    reportSchedule("write-conflict", packAs(std::move(writes), {{0, 1}}));
    return 0;
}

int
runCleanZoo()
{
    size_t compiled = 0;
    size_t failed = 0;
    for (const models::ModelInfo &info : models::allModels()) {
        const graph::Graph g = models::buildModel(info.id);
        runtime::CompileOptions opts; // audit defaults to Cheap, and the
                                      // GCD2_DEEP_AUDIT env escalates it
        const runtime::CompiledModel model = runtime::compile(g, opts);
        const size_t errors = model.report.diagnosticCount(
            common::DiagSeverity::Error);
        const size_t warnings = model.report.diagnosticCount(
            common::DiagSeverity::Warning);
        std::printf("clean-zoo model=%s errors=%zu warnings=%zu rung=%d\n",
                    info.name, errors, warnings,
                    model.report.selectionRung);
        ++compiled;
        if (errors > 0 || model.report.selectionRung != 0)
            ++failed;
    }
    std::printf("clean-zoo summary models=%zu flagged=%zu\n", compiled,
                failed);
    return failed == 0 ? 0 : 1;
}

int
runPbqpZoo()
{
    size_t compiled = 0;
    size_t failed = 0;
    for (const models::ModelInfo &info : models::allModels()) {
        const graph::Graph g = models::buildModel(info.id);
        runtime::CompileOptions opts;
        opts.selection = runtime::SelectionMode::Pbqp;
        opts.audit = runtime::AuditMode::Deep;
        const runtime::CompiledModel model = runtime::compile(g, opts);
        const size_t errors = model.report.diagnosticCount(
            common::DiagSeverity::Error);
        const size_t warnings = model.report.diagnosticCount(
            common::DiagSeverity::Warning);
        const runtime::PassReport *selection =
            model.report.pass("selection");
        std::printf("pbqp-zoo model=%s errors=%zu warnings=%zu rung=%d "
                    "r0=%llu r1=%llu r2=%llu rn=%llu cost=%llu\n",
                    info.name, errors, warnings,
                    model.report.selectionRung,
                    static_cast<unsigned long long>(
                        selection->counter("pbqp-r0")),
                    static_cast<unsigned long long>(
                        selection->counter("pbqp-r1")),
                    static_cast<unsigned long long>(
                        selection->counter("pbqp-r2")),
                    static_cast<unsigned long long>(
                        selection->counter("pbqp-rn")),
                    static_cast<unsigned long long>(
                        selection->counter("total-cost")));
        ++compiled;
        if (errors > 0 || model.report.selectionRung != 0 ||
            model.report.servedSelection != "pbqp")
            ++failed;
    }
    std::printf("pbqp-zoo summary models=%zu flagged=%zu\n", compiled,
                failed);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "corrupt-selection")
        return runCorruptSelection();
    if (mode == "corrupt-schedule")
        return runCorruptSchedule();
    if (mode == "clean-zoo")
        return runCleanZoo();
    if (mode == "pbqp-zoo")
        return runPbqpZoo();
    std::fprintf(
        stderr,
        "usage: %s corrupt-selection|corrupt-schedule|clean-zoo|pbqp-zoo\n",
        argv[0]);
    return 2;
}
