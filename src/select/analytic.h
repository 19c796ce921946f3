/**
 * @file
 * Tier-1 analytic cost bounds: certified lower/upper cycle bounds for a
 * kernel program derived from static slot pressure and loop trip counts,
 * with no simulation (DESIGN.md section 16).
 *
 * The analyzer recognizes the loop shape every generated kernel uses --
 * well-nested do-while loops with a backward JUMPNZ -- and certifies
 * each loop's trip count through the global value-flow analysis
 * (analysis/valueflow.h): the counter's value at the branch must
 * value-number to an affine constant over the loop's own induction
 * variable. That covers the classic MOVI-init/decrement idiom and any
 * register-trip variant that reduces to it (trip counts hoisted through
 * MOVs, non-unit negative strides, counters rematerialized from other
 * registers). Static instruction counts multiplied through the trip
 * counts give exact dynamic execution counts.
 *
 * From those counts:
 *  - the *lower bound* is dynamic-packet pressure: the simulator issues at
 *    most one packet per cycle and every packet respects the machine's
 *    slot constraints (4 slots, 2 memory, 1 store port, 1 shift unit,
 *    1 permute unit, 2 multiply pipelines, 1 branch), so cycles >=
 *    max over resources of ceil(dynamic demand / resource width);
 *  - the *upper bound* assumes every instruction issues alone and pays
 *    the worst dependence stall the scoreboard can charge (producer
 *    latency plus the maximum forwarding penalty), plus the drain of the
 *    longest-latency instruction at program end.
 *
 * Programs whose control flow the analyzer cannot resolve (forward
 * branches, unconditional jumps, unrecognized counter idioms) yield
 * `certified == false`, and callers must not prune based on the bounds.
 * Soundness of the unroll-search prefilter (CostModel::unrollFor) rests
 * only on `lower <= simulated cycles` for certified programs.
 */
#ifndef GCD2_SELECT_ANALYTIC_H
#define GCD2_SELECT_ANALYTIC_H

#include <cstdint>

#include "dsp/isa.h"

namespace gcd2::select {

/** Certified cycle bounds for one kernel program. */
struct AnalyticBounds
{
    /** Cycles the timing simulator cannot beat (0 when uncertified). */
    uint64_t lower = 0;
    /** Cycles the timing simulator cannot exceed (0 when uncertified). */
    uint64_t upper = 0;
    /** Dynamic instruction count implied by the resolved trip counts. */
    uint64_t dynamicInstructions = 0;
    /** Loop structure fully resolved; bounds are trustworthy. */
    bool certified = false;
};

/**
 * Analyze @p prog and derive certified cycle bounds. Pure static
 * analysis; never packs or simulates. Returns certified == false (with
 * zero bounds) when the program's control flow does not match the
 * recognized well-nested counted-loop shape.
 */
AnalyticBounds analyzeProgram(const dsp::Program &prog);

} // namespace gcd2::select

#endif // GCD2_SELECT_ANALYTIC_H
