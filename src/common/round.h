/**
 * @file
 * Integer rounding for sizes, paddings and trip counts: one definition
 * for every buffer, tile and layout computation.
 */
#ifndef GCD2_COMMON_ROUND_H
#define GCD2_COMMON_ROUND_H

#include <cstdint>

namespace gcd2::common {

/** @p v / @p unit, rounded up (v >= 0, unit > 0). */
constexpr int64_t
ceilDiv(int64_t v, int64_t unit)
{
    return (v + unit - 1) / unit;
}

/** @p v rounded up to a multiple of @p unit (v >= 0, unit > 0). */
constexpr int64_t
roundUp(int64_t v, int64_t unit)
{
    return ceilDiv(v, unit) * unit;
}

} // namespace gcd2::common

#endif // GCD2_COMMON_ROUND_H
