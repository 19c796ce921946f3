/**
 * @file
 * Architectural event totals of one node execution (scaled from the
 * canonical simulated kernel). Split out of the cost model so the cost
 * cache and reporting code can use the type without pulling in kernel
 * generation.
 */
#ifndef GCD2_SELECT_EXEC_STATS_H
#define GCD2_SELECT_EXEC_STATS_H

#include <cstdint>

namespace gcd2::select {

/**
 * @p value * @p factor rounded toward zero, saturating at UINT64_MAX
 * instead of overflowing the conversion. @p factor must be finite and
 * non-negative.
 */
uint64_t scaleSaturating(uint64_t value, double factor);

/** @p a + @p b, saturating at UINT64_MAX. */
inline uint64_t
addSaturating(uint64_t a, uint64_t b)
{
    return b > UINT64_MAX - a ? UINT64_MAX : a + b;
}

/** Architectural event totals for one node execution (scaled). */
struct NodeExecStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t packets = 0;
    uint64_t bytesLoaded = 0;
    uint64_t bytesStored = 0;

    /** Field-wise saturating sum. */
    NodeExecStats &operator+=(const NodeExecStats &other);
    /** Field-wise scaleSaturating(field, factor). */
    NodeExecStats scaled(double factor) const;
};

} // namespace gcd2::select

#endif // GCD2_SELECT_EXEC_STATS_H
