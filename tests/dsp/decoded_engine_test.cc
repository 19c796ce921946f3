/**
 * @file
 * Differential tests for the pre-decoded execution engine (dsp/decoded.h).
 *
 * The decoded engine's contract is *bit identity* with the reference
 * interpreting loop: same architectural state (registers + memory), same
 * ExecStats, same TimingStats -- for every program, including operand
 * aliasing, branches with loops, and the exact runaway-guard overflow
 * behavior. These tests pin that contract with directed cases (paper
 * Fig. 4, aliased SIMD operands) and a seeded random-program fuzzer run
 * through every packing policy.
 */
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "dsp/decoded.h"
#include "dsp/timing_sim.h"
#include "vliw/packer.h"

namespace gcd2::dsp {
namespace {

constexpr size_t kMemBytes = 4096;
/** Base address kernels index from (r0); leaves guard room both sides. */
constexpr int64_t kBase = 512;

/** Build a trivially packed program: each instruction alone. */
PackedProgram
onePerPacket(const Program &prog)
{
    PackedProgram packed;
    packed.program = prog;
    for (size_t i = 0; i < prog.code.size(); ++i)
        packed.packets.push_back(Packet{{i}});
    packed.labelPacket.assign(prog.labels.size(), 0);
    for (size_t l = 0; l < prog.labels.size(); ++l)
        packed.labelPacket[l] = prog.labels[l];
    return packed;
}

void
expectSameStats(const TimingStats &a, const TimingStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.packetsExecuted, b.packetsExecuted) << what;
    EXPECT_EQ(a.instructionsExecuted, b.instructionsExecuted) << what;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what;
    EXPECT_EQ(a.bytesLoaded, b.bytesLoaded) << what;
    EXPECT_EQ(a.bytesStored, b.bytesStored) << what;
}

/** Non-trivial memory image so vector loads see distinct lane data. */
const std::vector<uint8_t> &
memoryImage()
{
    static const std::vector<uint8_t> image = [] {
        Rng rng(0x1234dec0dedULL);
        return rng.uint8Vector(kMemBytes);
    }();
    return image;
}

/** Run @p packed through the reference loop and the decoded engine on
 *  independent state and require identical observable results. */
void
expectBitIdentical(const PackedProgram &packed, const std::string &what)
{
    Memory memRef(kMemBytes);
    memRef.writeBytes(0, memoryImage().data(), kMemBytes);
    TimingSimulator ref(memRef);
    const TimingStats statsRef = ref.runReference(packed, true);

    Memory memDec(kMemBytes);
    memDec.writeBytes(0, memoryImage().data(), kMemBytes);
    TimingSimulator dec(memDec);
    const TimingStats statsDec = dec.run(packed, true);

    expectSameStats(statsRef, statsDec, what);

    EXPECT_EQ(ref.execStats().instructions, dec.execStats().instructions)
        << what;
    EXPECT_EQ(ref.execStats().branchesTaken, dec.execStats().branchesTaken)
        << what;
    EXPECT_EQ(ref.execStats().bytesLoaded, dec.execStats().bytesLoaded)
        << what;
    EXPECT_EQ(ref.execStats().bytesStored, dec.execStats().bytesStored)
        << what;

    EXPECT_EQ(ref.regs().scalar, dec.regs().scalar) << what;
    EXPECT_EQ(ref.regs().vector, dec.regs().vector) << what;

    std::vector<uint8_t> bytesRef(kMemBytes), bytesDec(kMemBytes);
    memRef.readBytes(0, bytesRef.data(), kMemBytes);
    memDec.readBytes(0, bytesDec.data(), kMemBytes);
    EXPECT_EQ(bytesRef, bytesDec) << what;
}

// Fig. 4 regression ----------------------------------------------------

TEST(DecodedEngine, Fig4SemanticsPinned)
{
    // Two 3-cycle soft-dependent instructions (load + dependent add):
    // 4 cycles co-packed, 6 cycles split -- the paper's Fig. 4 numbers,
    // executed through the *decoded* engine.
    Program prog;
    prog.push(makeLoad(Opcode::LOADW, sreg(1), sreg(0), 0));
    prog.push(makeBinary(Opcode::ADD, sreg(3), sreg(2), sreg(1)));

    PackedProgram together;
    together.program = prog;
    together.packets.push_back(Packet{{0, 1}});

    Memory mem(256);
    TimingSimulator sim(mem);
    const TimingStats packedStats = sim.run(together, true);
    EXPECT_EQ(packedStats.cycles, 4u);
    EXPECT_EQ(packedStats.stallCycles, 1u);

    Memory memSplit(256);
    TimingSimulator simSplit(memSplit);
    const TimingStats splitStats = simSplit.run(onePerPacket(prog), true);
    EXPECT_EQ(splitStats.cycles, 6u);
    EXPECT_EQ(splitStats.stallCycles, 2u);

    expectBitIdentical(together, "fig4 co-packed");
    expectBitIdentical(onePerPacket(prog), "fig4 split");
}

TEST(DecodedEngine, RunDecodedDirectMatchesReference)
{
    // Drive runDecoded() with explicit state (no TimingSimulator, no
    // global cache) to pin the low-level entry point too.
    Program prog;
    const int loop = prog.newLabel();
    prog.push(makeMovi(sreg(0), kBase));
    prog.push(makeMovi(sreg(1), 5));
    prog.bindLabel(loop);
    prog.push(makeVload(vreg(2), sreg(0), 0));
    prog.push(makeVecBinary(Opcode::VADDB, vreg(3), vreg(2), vreg(2)));
    prog.push(makeVstore(sreg(0), vreg(3), 128));
    prog.push(makeAddi(sreg(1), sreg(1), -1));
    prog.push(makeJumpNz(sreg(1), loop));

    const PackedProgram packed = vliw::pack(prog);

    Memory memRef(kMemBytes);
    TimingSimulator ref(memRef);
    const TimingStats statsRef = ref.runReference(packed);

    Memory memDec(kMemBytes);
    RegisterFile regs;
    ExecStats xstats;
    const auto decProg = DecodedProgram::build(packed);
    const TimingStats statsDec =
        runDecoded(*decProg, regs, memDec, xstats);

    expectSameStats(statsRef, statsDec, "direct runDecoded");
    EXPECT_EQ(ref.regs().scalar, regs.scalar);
    EXPECT_EQ(ref.regs().vector, regs.vector);
    EXPECT_EQ(ref.execStats().instructions, xstats.instructions);
    EXPECT_EQ(ref.execStats().branchesTaken, xstats.branchesTaken);
}

// Operand-aliasing fallback -------------------------------------------

TEST(DecodedEngine, AliasedSimdOperandsStayBitIdentical)
{
    // Destination registers deliberately alias vector sources: these are
    // exactly the cases the fast lane loops cannot model and must route
    // through the interpreter fallback. The interpreter's lane-ordered
    // read/write interleaving is the definition of correct here.
    struct Case
    {
        const char *name;
        Instruction inst;
    };
    const Case cases[] = {
        {"vmpy dst==src", makeVmpy(Opcode::VMPY, vreg(2), vreg(2), sreg(1))},
        {"vmpy dstHi==src",
         makeVmpy(Opcode::VMPY, vreg(2), vreg(3), sreg(1))},
        {"vmpyacc dst==src",
         makeVmpy(Opcode::VMPYACC, vreg(4), vreg(4), sreg(1))},
        {"vmpa pair overlap",
         makeVmpa(Opcode::VMPA, vreg(4), vreg(4), sreg(1))},
        {"vtmpy pair overlap",
         makeVmpa(Opcode::VTMPY, vreg(6), vreg(6), sreg(1))},
        {"vrmpy dst==src", makeVrmpy(vreg(5), vreg(5), sreg(1))},
        {"vmpye dst==src", makeVmpye(vreg(7), vreg(7), sreg(1))},
        {"vmpyiw dst==src", makeVmpyiw(vreg(8), vreg(8), sreg(1))},
        {"vasrhb dst==srcLo",
         makeVasr(Opcode::VASRHB, vreg(10), vreg(10), 2)},
        {"vasrhub dst==srcHi",
         makeVasr(Opcode::VASRHUB, vreg(11), vreg(10), 3)},
        {"vasrwh dst==srcLo",
         makeVasr(Opcode::VASRWH, vreg(12), vreg(12), 1)},
        {"vlut dst==idx", makeVlut(vreg(9), vreg(14), vreg(9))},
        {"vlut dst==tableLo", makeVlut(vreg(14), vreg(14), vreg(9))},
        {"vshuff dst==src",
         makeVshuff(Opcode::VSHUFF, vreg(16), vreg(16), vreg(17), 1)},
        {"vdeal dst==src",
         makeVshuff(Opcode::VDEAL, vreg(18), vreg(19), vreg(18), 0)},
        {"vshuffo dst==src",
         makeVshuff(Opcode::VSHUFFO, vreg(20), vreg(20), vreg(21), 2)},
        // Lane sizes past a word (makeVshuff stops at 2) also run
        // through the interpreter: the fast permutes stop at words.
        {"vshuff 8-byte lanes",
         Instruction{Opcode::VSHUFF, {vreg(16)}, {vreg(18), vreg(19)}, 3}},
        {"vdeal 64-byte lanes",
         Instruction{Opcode::VDEAL, {vreg(2)}, {vreg(4), vreg(5)}, 6}},
        {"vshuffe 16-byte lanes",
         Instruction{Opcode::VSHUFFE, {vreg(3)}, {vreg(6), vreg(7)}, 4}},
    };

    for (const Case &c : cases) {
        Program prog;
        prog.push(makeMovi(sreg(0), kBase));
        prog.push(makeMovi(sreg(1), 0x04FD02FE)); // mixed-sign weights
        // Seed every vector register the case touches with distinct data.
        for (int v = 2; v <= 21; ++v)
            prog.push(makeVload(vreg(v), sreg(0), 16 * v));
        prog.push(c.inst);
        // Store the written pair back so memory compare also sees it.
        const int d = c.inst.dst[0].idx;
        prog.push(makeVstore(sreg(0), vreg(d), 1024));
        if (c.inst.info().writesPair)
            prog.push(makeVstore(sreg(0), vreg(d + 1), 1024 + 128));

        expectBitIdentical(onePerPacket(prog), c.name);
    }
}

// Runaway-guard overflow behavior -------------------------------------

TEST(DecodedEngine, MaxPacketsOverflowBehaviorUnchanged)
{
    // Infinite loop: both engines must execute exactly maxPackets packets
    // and then panic, leaving identical architectural state.
    Program prog;
    const int loop = prog.newLabel();
    prog.push(makeMovi(sreg(1), 1));
    prog.bindLabel(loop);
    prog.push(makeAddi(sreg(2), sreg(2), 1));
    prog.push(makeJump(loop));

    const PackedProgram packed = onePerPacket(prog);
    constexpr uint64_t kBudget = 100; // far below any check interval

    Memory memRef(kMemBytes);
    TimingSimulator ref(memRef);
    EXPECT_THROW(ref.runReference(packed, false, kBudget), PanicError);

    Memory memDec(kMemBytes);
    TimingSimulator dec(memDec);
    EXPECT_THROW(dec.run(packed, false, kBudget), PanicError);

    // Exactly kBudget packets executed on both engines before the panic.
    EXPECT_EQ(ref.execStats().instructions, kBudget);
    EXPECT_EQ(dec.execStats().instructions, kBudget);
    EXPECT_EQ(ref.regs().scalar, dec.regs().scalar);
}

TEST(DecodedEngine, ExactPacketBudgetDoesNotPanic)
{
    // A straight-line program of exactly N packets must run to completion
    // with maxPackets == N (the guard fires only when *exceeded*).
    Program prog;
    for (int i = 0; i < 10; ++i)
        prog.push(makeMovi(sreg(1), i));
    const PackedProgram packed = onePerPacket(prog);

    Memory memA(kMemBytes);
    TimingSimulator simA(memA);
    EXPECT_NO_THROW(simA.run(packed, false, 10));

    Memory memB(kMemBytes);
    TimingSimulator simB(memB);
    EXPECT_THROW(simB.run(packed, false, 9), PanicError);

    Memory memC(kMemBytes);
    TimingSimulator simC(memC);
    EXPECT_NO_THROW(simC.runReference(packed, false, 10));

    Memory memD(kMemBytes);
    TimingSimulator simD(memD);
    EXPECT_THROW(simD.runReference(packed, false, 9), PanicError);
}

TEST(DecodedEngine, FunctionalMaxStepsOverflowBehaviorUnchanged)
{
    Program prog;
    for (int i = 0; i < 10; ++i)
        prog.push(makeAddi(sreg(1), sreg(1), 1));

    Memory memA(kMemBytes);
    FunctionalSimulator simA(memA);
    EXPECT_NO_THROW(simA.run(prog, 10));
    EXPECT_EQ(simA.regs().scalar[1], 10u);

    Memory memB(kMemBytes);
    FunctionalSimulator simB(memB);
    EXPECT_THROW(simB.run(prog, 9), PanicError);
    // Exactly maxSteps instructions retired before the panic.
    EXPECT_EQ(simB.stats().instructions, 9u);
    EXPECT_EQ(simB.regs().scalar[1], 9u);
}

// Decode cache ---------------------------------------------------------

TEST(DecodedEngine, DecodeCacheHitsOnIdenticalPrograms)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 7));
    prog.push(makeAddi(sreg(2), sreg(1), 1));
    const PackedProgram packed = vliw::pack(prog);

    DecodeCache cache;
    const auto first = cache.lookupOrDecode(packed);
    const auto second = cache.lookupOrDecode(packed);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodedEngine, DecodeCacheUsesItsWholeCapacity)
{
    // Every shard takes its share: 2,000 distinct programs fit in a
    // 4,096-entry cache without an eviction. A key hash whose low bits
    // stay constant sends them all to one 512-entry shard instead.
    DecodeCache cache(4096);
    constexpr int kPrograms = 2000;
    for (int n = 0; n < kPrograms; ++n) {
        Program prog;
        prog.push(makeMovi(sreg(1), n));
        (void)cache.lookupOrDecode(onePerPacket(prog));
    }
    EXPECT_EQ(cache.size(), static_cast<size_t>(kPrograms));
    EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(kPrograms));
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(DecodedEngine, FingerprintSeesEveryDecodeInput)
{
    Program prog;
    prog.push(makeMovi(sreg(1), 7));
    prog.push(makeLoad(Opcode::LOADW, sreg(2), sreg(1), 0));
    PackedProgram packed = vliw::pack(prog);
    const DecodeKey base = fingerprintProgram(packed);

    PackedProgram imm = packed;
    imm.program.code[0].imm = 8;
    EXPECT_FALSE(base == fingerprintProgram(imm));

    PackedProgram reg = packed;
    reg.program.code[0].dst[0] = sreg(3);
    EXPECT_FALSE(base == fingerprintProgram(reg));

    // Alias declarations change intra-packet delays, so they must be part
    // of the program's identity even though the code bytes are unchanged.
    PackedProgram noalias = packed;
    noalias.program.noaliasRegs.push_back(1);
    EXPECT_FALSE(base == fingerprintProgram(noalias));

    // Same instructions, different packetization.
    const PackedProgram split = onePerPacket(prog);
    if (split.packets.size() != packed.packets.size()) {
        EXPECT_FALSE(base == fingerprintProgram(split));
    }
}

TEST(DecodedEngine, DecodeCacheIsThreadSafe)
{
    // Hammer one cache with a small working set from several threads; all
    // threads must observe structurally identical decoded programs, and
    // each program decodes once (misses are single-flight).
    std::vector<PackedProgram> programs;
    for (int n = 1; n <= 4; ++n) {
        Program prog;
        for (int i = 0; i < 4 * n; ++i)
            prog.push(makeAddi(sreg(1 + i % 8), sreg(1), i));
        programs.push_back(vliw::pack(prog));
    }

    DecodeCache cache;
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, &programs, &failures, t] {
            for (int iter = 0; iter < 50; ++iter) {
                const PackedProgram &p =
                    programs[(t + iter) % programs.size()];
                const auto dec = cache.lookupOrDecode(p);
                if (dec->insts.size() != p.program.code.size())
                    ++failures[t];
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(cache.size(), programs.size());
    EXPECT_EQ(cache.stats().misses, programs.size());
    EXPECT_EQ(cache.stats().hits + cache.stats().misses,
              static_cast<uint64_t>(kThreads) * 50);
}

// Random-program differential fuzz ------------------------------------

/** Generate a random valid program: a bounded countdown loop whose body
 *  mixes scalar ALU, memory, and the full SIMD surface, with operand
 *  aliasing allowed so both the fast lane loops and the interpreter
 *  fallback paths are exercised. */
Program
randomProgram(Rng &rng)
{
    Program prog;
    prog.push(makeMovi(sreg(0), kBase));
    // Seed scalar working registers (r1..r9) and the weight register.
    for (int r = 1; r <= 9; ++r)
        prog.push(makeMovi(sreg(r), rng.uniformInt(-128, 127)));
    // Seed vector registers from the (initially zero, then mutated) pool.
    for (int v = 0; v < 8; ++v)
        prog.push(makeVload(vreg(static_cast<int>(rng.uniformInt(0, 31))),
                            sreg(0), 128 * rng.uniformInt(0, 8)));

    const int counter = 10;
    prog.push(makeMovi(sreg(counter), rng.uniformInt(2, 3)));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);

    auto s = [&rng] {
        return sreg(static_cast<int>(rng.uniformInt(1, 9)));
    };
    auto v = [&rng] {
        return vreg(static_cast<int>(rng.uniformInt(0, 31)));
    };
    auto vpair = [&rng] {
        return vreg(2 * static_cast<int>(rng.uniformInt(0, 15)));
    };
    auto vpairLow = [&rng] { // pair reg whose high half also exists
        return vreg(2 * static_cast<int>(rng.uniformInt(0, 14)));
    };

    const int bodyLen = static_cast<int>(rng.uniformInt(12, 40));
    for (int i = 0; i < bodyLen; ++i) {
        switch (rng.uniformInt(0, 21)) {
          case 0:
            prog.push(makeBinary(Opcode::ADD, s(), s(), s()));
            break;
          case 1:
            prog.push(makeBinary(Opcode::SUB, s(), s(), s()));
            break;
          case 2:
            prog.push(makeBinary(Opcode::MUL, s(), s(), s()));
            break;
          case 3:
            prog.push(makeShift(
                rng.uniformInt(0, 1) ? Opcode::SHL : Opcode::SHRA, s(),
                s(), rng.uniformInt(0, 7)));
            break;
          case 4:
            prog.push(makeBinary(rng.uniformInt(0, 1) ? Opcode::AND
                                                      : Opcode::XOR,
                                 s(), s(), s()));
            break;
          case 5:
            prog.push(makeCombine4(s(), s()));
            break;
          case 6:
            prog.push(makeLoad(rng.uniformInt(0, 1) ? Opcode::LOADB
                                                    : Opcode::LOADW,
                               s(), sreg(0), rng.uniformInt(0, 2040)));
            break;
          case 7:
            prog.push(makeStore(rng.uniformInt(0, 1) ? Opcode::STOREB
                                                     : Opcode::STOREW,
                                sreg(0), s(), rng.uniformInt(0, 2040)));
            break;
          case 8:
            prog.push(makeVload(v(), sreg(0),
                                rng.uniformInt(0, 15) * 128));
            break;
          case 9:
            prog.push(makeVstore(sreg(0), v(),
                                 rng.uniformInt(0, 15) * 128));
            break;
          case 10:
            prog.push(rng.uniformInt(0, 1)
                          ? makeMov(s(), s())
                          : makeVecBinary(Opcode::VMOV, v(), v(),
                                          Operand{}));
            break;
          case 11:
            prog.push(makeVsplatw(v(), s()));
            break;
          case 12: {
            static const Opcode kVecBin[] = {
                Opcode::VADDB,  Opcode::VADDH,  Opcode::VADDW,
                Opcode::VSUBH,  Opcode::VSUBW,  Opcode::VMAXB,
                Opcode::VMINB,  Opcode::VMAXUB, Opcode::VMINUB,
                Opcode::VAVGB,
            };
            prog.push(makeVecBinary(
                kVecBin[rng.uniformInt(0, 9)], v(), v(), v()));
            break;
          }
          case 13:
            prog.push(makeVmpy(rng.uniformInt(0, 1) ? Opcode::VMPY
                                                    : Opcode::VMPYACC,
                               vpair(), v(), s()));
            break;
          case 14:
            prog.push(makeVmpa(rng.uniformInt(0, 1) ? Opcode::VMPA
                                                    : Opcode::VTMPY,
                               vpair(), vpair(), s()));
            break;
          case 15:
            prog.push(makeVrmpy(v(), v(), s()));
            break;
          case 16:
            prog.push(rng.uniformInt(0, 1) ? makeVmpye(v(), v(), s())
                                           : makeVmpyiw(v(), v(), s()));
            break;
          case 17: {
            static const Opcode kVasr[] = {Opcode::VASRHB,
                                           Opcode::VASRHUB,
                                           Opcode::VASRWH};
            prog.push(makeVasr(kVasr[rng.uniformInt(0, 2)], v(),
                               vpairLow(), rng.uniformInt(0, 7)));
            break;
          }
          case 18: {
            static const Opcode kShuf[] = {Opcode::VSHUFF, Opcode::VDEAL,
                                           Opcode::VSHUFFE,
                                           Opcode::VSHUFFO};
            const Opcode op = kShuf[rng.uniformInt(0, 3)];
            const Operand dst = (op == Opcode::VSHUFF ||
                                 op == Opcode::VDEAL)
                                    ? vpair()
                                    : v();
            prog.push(makeVshuff(op, dst, v(), v(),
                                 static_cast<int>(rng.uniformInt(0, 2))));
            break;
          }
          case 19:
            prog.push(makeVlut(v(), vpairLow(), v()));
            break;
          case 20:
            prog.push(makeAddi(s(), s(), rng.uniformInt(-64, 64)));
            break;
          default:
            prog.push(makeMovi(s(), rng.uniformInt(-1000, 1000)));
            break;
        }
    }

    prog.push(makeAddi(sreg(counter), sreg(counter), -1));
    prog.push(makeJumpNz(sreg(counter), loop));
    return prog;
}

TEST(DecodedEngine, DifferentialFuzzAcrossPackPolicies)
{
    static const vliw::PackPolicy kPolicies[] = {
        vliw::PackPolicy::Sda,       vliw::PackPolicy::SoftToHard,
        vliw::PackPolicy::SoftToNone, vliw::PackPolicy::InOrder,
        vliw::PackPolicy::ListSched,
    };

    Rng rng(0x6cd2dec0dedULL);
    constexpr int kPrograms = 60;
    for (int n = 0; n < kPrograms; ++n) {
        const Program prog = randomProgram(rng);

        // Every program also runs unpacked (one per packet)...
        expectBitIdentical(onePerPacket(prog),
                           "fuzz #" + std::to_string(n) + " unpacked");

        // ...and through one rotating packing policy.
        vliw::PackOptions opts;
        opts.policy = kPolicies[n % 5];
        expectBitIdentical(vliw::pack(prog, opts),
                           "fuzz #" + std::to_string(n) + " policy " +
                               vliw::packPolicyName(opts.policy));

        if (HasFailure()) {
            ADD_FAILURE() << "first divergence at fuzz program " << n
                          << "; seed 0x6cd2dec0ded";
            break;
        }
    }
}

} // namespace
} // namespace gcd2::dsp
