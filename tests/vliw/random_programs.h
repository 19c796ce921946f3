/**
 * @file
 * Seeded random-program generators shared by the packer's differential
 * tests: a countdown loop whose body mixes every dependence class the
 * packer schedules around, and a single block with heavy register reuse
 * and may-aliasing memory traffic.
 */
#ifndef GCD2_TESTS_VLIW_RANDOM_PROGRAMS_H
#define GCD2_TESTS_VLIW_RANDOM_PROGRAMS_H

#include "common/rng.h"
#include "dsp/isa.h"

namespace gcd2::vliw::testing {

using namespace gcd2::dsp;

/** Random program: seeded registers, then a bounded countdown loop whose
 *  body mixes scalar ALU, multiplies (forwarding penalty 2), memory at
 *  random offsets, and vector ops -- the full classification surface the
 *  packer schedules around. */
inline Program
randomProgram(Rng &rng)
{
    Program prog;
    prog.push(makeMovi(sreg(0), 512));
    for (int r = 1; r <= 8; ++r)
        prog.push(makeMovi(sreg(r), rng.uniformInt(-64, 64)));
    const int counter = 10;
    prog.push(makeMovi(sreg(counter), rng.uniformInt(2, 3)));
    const int loop = prog.newLabel();
    prog.bindLabel(loop);

    auto s = [&rng] {
        return sreg(static_cast<int>(rng.uniformInt(1, 8)));
    };
    auto v = [&rng] {
        return vreg(static_cast<int>(rng.uniformInt(0, 7)));
    };
    const int bodyLen = static_cast<int>(rng.uniformInt(10, 36));
    for (int i = 0; i < bodyLen; ++i) {
        switch (rng.uniformInt(0, 9)) {
          case 0:
            prog.push(makeBinary(Opcode::ADD, s(), s(), s()));
            break;
          case 1:
            prog.push(makeBinary(Opcode::MUL, s(), s(), s()));
            break;
          case 2:
            prog.push(makeLoad(Opcode::LOADW, s(), sreg(0),
                               rng.uniformInt(0, 255) * 4));
            break;
          case 3:
            prog.push(makeStore(Opcode::STOREW, sreg(0), s(),
                               rng.uniformInt(0, 255) * 4));
            break;
          case 4:
            prog.push(makeVload(v(), sreg(0), rng.uniformInt(0, 7) * 128));
            break;
          case 5:
            prog.push(makeVstore(sreg(0), v(), rng.uniformInt(0, 7) * 128));
            break;
          case 6:
            prog.push(makeVecBinary(Opcode::VADDW, v(), v(), v()));
            break;
          case 7:
            prog.push(makeShift(Opcode::SHL, s(), s(),
                                rng.uniformInt(0, 7)));
            break;
          case 8:
            prog.push(makeVsplatw(v(), s()));
            break;
          default:
            prog.push(makeAddi(s(), s(), rng.uniformInt(-16, 16)));
            break;
        }
    }
    prog.push(makeAddi(sreg(counter), sreg(counter), -1));
    prog.push(makeJumpNz(sreg(counter), loop));
    if (rng.uniformInt(0, 1) != 0)
        prog.noaliasRegs = {0};
    return prog;
}

/**
 * A random single-block program: scalar ALU traffic over few registers
 * (forcing WAW/WAR/RAW chains), vector ops (hard RAW), and loads/stores
 * at random offsets off two base registers with random noalias
 * declarations (exercising the alias oracle both ways). Optionally ends
 * in a branch so the ordering-edge append path is covered.
 */
inline Program
randomBlock(Rng &rng, bool branchTerminated)
{
    Program prog;
    const int label = prog.newLabel();
    const int len = static_cast<int>(rng.uniformInt(8, 40));
    auto s = [&rng] {
        return sreg(static_cast<int>(rng.uniformInt(1, 5)));
    };
    auto v = [&rng] {
        return vreg(static_cast<int>(rng.uniformInt(0, 3)));
    };
    for (int i = 0; i < len; ++i) {
        switch (rng.uniformInt(0, 9)) {
          case 0:
            prog.push(makeBinary(Opcode::ADD, s(), s(), s()));
            break;
          case 1:
            prog.push(makeBinary(Opcode::MUL, s(), s(), s()));
            break;
          case 2:
            prog.push(makeMovi(s(), rng.uniformInt(-100, 100)));
            break;
          case 3:
            prog.push(makeLoad(Opcode::LOADW, s(),
                               sreg(rng.uniformInt(0, 1) ? 0 : 6),
                               rng.uniformInt(0, 64) * 4));
            break;
          case 4:
            prog.push(makeStore(Opcode::STOREW,
                                sreg(rng.uniformInt(0, 1) ? 0 : 6), s(),
                                rng.uniformInt(0, 64) * 4));
            break;
          case 5:
            prog.push(makeVload(v(), sreg(0), rng.uniformInt(0, 7) * 128));
            break;
          case 6:
            prog.push(makeVstore(sreg(0), v(), rng.uniformInt(0, 7) * 128));
            break;
          case 7:
            prog.push(makeVecBinary(Opcode::VADDW, v(), v(), v()));
            break;
          case 8:
            prog.push(makeShift(Opcode::SHL, s(), s(),
                                rng.uniformInt(0, 7)));
            break;
          default:
            prog.push(makeAddi(s(), s(), rng.uniformInt(-8, 8)));
            break;
        }
    }
    if (branchTerminated) {
        prog.bindLabel(label);
        prog.push(makeJumpNz(sreg(1), label));
    }
    // Half the programs declare the bases noalias (segmented memory),
    // half leave everything may-alias.
    if (rng.uniformInt(0, 1) != 0)
        prog.noaliasRegs = {0, 6};
    return prog;
}

} // namespace gcd2::vliw::testing

#endif // GCD2_TESTS_VLIW_RANDOM_PROGRAMS_H
