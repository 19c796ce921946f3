#include "dsp/timing_sim.h"

#include <algorithm>

#include "common/logging.h"
#include "dsp/decoded.h"
#include "dsp/deps.h"

namespace gcd2::dsp {

uint64_t
TimingSimulator::packetCost(const Program &prog, const Packet &packet,
                            const AliasAnalysis &alias, uint64_t *stallOut)
{
    // delay[k]: extra cycles instruction k waits on in-packet soft
    // producers before its own pipeline begins.
    std::vector<int> delay(packet.insts.size(), 0);
    int maxLatency = 0;
    uint64_t cost = 0;

    for (size_t k = 0; k < packet.insts.size(); ++k) {
        const size_t idx = packet.insts[k];
        const Instruction &inst = prog.code[idx];
        for (size_t m = 0; m < k; ++m) {
            const size_t earlier = packet.insts[m];
            const Dependency dep = classifyDependency(
                prog.code[earlier], inst, alias.mayAlias(earlier, idx));
            if (dep.kind == DepKind::Soft && dep.penalty > 0)
                delay[k] = std::max(delay[k], delay[m] + dep.penalty);
        }
        maxLatency = std::max(maxLatency, inst.info().latency);
        cost = std::max(cost,
                        static_cast<uint64_t>(delay[k] +
                                              inst.info().latency));
    }

    if (stallOut)
        *stallOut = cost - static_cast<uint64_t>(maxLatency);
    return cost;
}

TimingStats
TimingSimulator::run(const PackedProgram &packed, bool validate,
                     uint64_t maxPackets)
{
    if (validate)
        validatePackedProgram(packed);

    const std::shared_ptr<const DecodedProgram> dec =
        DecodeCache::global().lookupOrDecode(packed);
    return runDecoded(*dec, funcSim_.regs(), funcSim_.memory(),
                      funcSim_.mutableStats(), maxPackets);
}

TimingStats
TimingSimulator::runReference(const PackedProgram &packed, bool validate,
                              uint64_t maxPackets)
{
    if (validate)
        validatePackedProgram(packed);

    const Program &prog = packed.program;
    AliasAnalysis alias(prog);

    // Pipelined issue with register interlocks: packets issue at most one
    // per cycle and stall until every source register's producer has
    // written back; soft dependencies *inside* a packet add the Fig. 4
    // overlap penalty on top of the issue cycle. This reproduces the
    // paper's Fig. 4 numbers exactly (load + dependent add: 4 cycles
    // co-packed, 6 cycles split) while charging split soft dependencies
    // their real interlock cost.
    //
    // Precompute per-packet intra-packet delays (static per packet).
    std::vector<std::vector<int>> delays(packed.packets.size());
    for (size_t p = 0; p < packed.packets.size(); ++p) {
        const Packet &packet = packed.packets[p];
        auto &delay = delays[p];
        delay.assign(packet.insts.size(), 0);
        for (size_t k = 0; k < packet.insts.size(); ++k) {
            for (size_t m = 0; m < k; ++m) {
                const Dependency dep = classifyDependency(
                    prog.code[packet.insts[m]], prog.code[packet.insts[k]],
                    alias.mayAlias(packet.insts[m], packet.insts[k]));
                if (dep.kind == DepKind::Soft && dep.penalty > 0)
                    delay[k] = std::max(delay[k],
                                        delay[m] + dep.penalty);
            }
        }
    }

    TimingStats stats;
    const uint64_t loadedBefore = funcSim_.stats().bytesLoaded;
    const uint64_t storedBefore = funcSim_.stats().bytesStored;

    // Cycle each register's value becomes readable by a later packet.
    std::vector<uint64_t> ready(kNumScalarRegs + kNumVectorRegs, 0);
    uint64_t issue = 0;        // issue cycle of the current packet
    uint64_t lastIssue = 0;    // previous packet's issue cycle
    uint64_t completion = 0;   // latest write-back seen so far
    bool first = true;

    // Runaway guard hoisted out of the hot loop: the inner loop runs a
    // chunk of the remaining packet budget, so on overflow exactly
    // maxPackets packets have executed before the panic -- identical to a
    // per-packet check.
    constexpr uint64_t kPacketCheckInterval = 4096;
    uint64_t budget = maxPackets;
    size_t pc = 0;
    while (pc < packed.packets.size()) {
        GCD2_ASSERT(budget > 0, "packed program exceeded " << maxPackets
                                                           << " packets");
        uint64_t chunk = std::min(budget, kPacketCheckInterval);
        budget -= chunk;
        while (chunk-- > 0 && pc < packed.packets.size()) {
            const Packet &packet = packed.packets[pc];

            // Issue no earlier than one cycle after the previous packet,
            // and no earlier than every cross-packet source operand's
            // readiness.
            issue = first ? 0 : lastIssue + 1;
            for (size_t idx : packet.insts)
                for (int uid : regReads(prog.code[idx]))
                    issue =
                        std::max(issue, ready[static_cast<size_t>(uid)]);
            stats.stallCycles += issue - (first ? 0 : lastIssue + 1);
            first = false;
            lastIssue = issue;

            ++stats.packetsExecuted;
            stats.instructionsExecuted += packet.insts.size();

            int takenLabel = -1;
            const auto &delay = delays[pc];
            for (size_t k = 0; k < packet.insts.size(); ++k) {
                const size_t idx = packet.insts[k];
                const Instruction &inst = prog.code[idx];
                const uint64_t done =
                    issue + static_cast<uint64_t>(delay[k]) +
                    static_cast<uint64_t>(inst.info().latency);
                completion = std::max(completion, done);
                for (int uid : regWrites(inst))
                    ready[static_cast<size_t>(uid)] = done;
                stats.stallCycles += static_cast<uint64_t>(delay[k]);

                const int label = funcSim_.execute(inst);
                if (label >= 0)
                    takenLabel = label;
            }

            if (takenLabel >= 0) {
                GCD2_ASSERT(static_cast<size_t>(takenLabel) <
                                packed.labelPacket.size(),
                            "branch to unknown label " << takenLabel);
                pc = packed.labelPacket[takenLabel];
            } else {
                ++pc;
            }
        }
    }

    stats.cycles = completion;
    stats.bytesLoaded = funcSim_.stats().bytesLoaded - loadedBefore;
    stats.bytesStored = funcSim_.stats().bytesStored - storedBefore;
    return stats;
}

} // namespace gcd2::dsp
