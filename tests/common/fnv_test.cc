/**
 * @file
 * The one-walk two-lane hasher (common::FnvPair) against two sequential
 * common::Fnv runs, and the lane mix that picks cache shards.
 */
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/fnv.h"
#include "common/rng.h"

namespace gcd2::common {
namespace {

TEST(FnvPairTest, LanesEqualTwoSequentialFnvRuns)
{
    Rng rng(0xf1a7f00dULL);
    for (int n = 0; n < 500; ++n) {
        const std::vector<uint8_t> bytes = rng.uint8Vector(
            static_cast<size_t>(rng.uniformInt(0, 300)));
        const auto tag = static_cast<uint32_t>(rng.next());
        const std::vector<int64_t> seq(
            static_cast<size_t>(rng.uniformInt(0, 5)),
            static_cast<int64_t>(rng.next()));

        FnvPair pair;
        Fnv a;
        Fnv b(Fnv::kSecondLaneSeed);
        pair.bytes(bytes.data(), bytes.size());
        pair.value(tag);
        pair.sequence(seq);
        for (Fnv *lane : {&a, &b}) {
            lane->bytes(bytes.data(), bytes.size());
            lane->value(tag);
            lane->sequence(seq);
        }
        ASSERT_EQ(pair.first(), a.digest()) << "string " << n;
        ASSERT_EQ(pair.second(), b.digest()) << "string " << n;

        // The pack and request keys salt the second lane only.
        pair.secondLaneValue(uint64_t{0x5eed});
        b.value(uint64_t{0x5eed});
        ASSERT_EQ(pair.first(), a.digest()) << "salted string " << n;
        ASSERT_EQ(pair.second(), b.digest()) << "salted string " << n;
    }
}

TEST(FnvPairTest, EmptyInputDigestsAreTheSeeds)
{
    const FnvPair pair;
    EXPECT_EQ(pair.first(), Fnv::kOffsetBasis);
    EXPECT_EQ(pair.second(), Fnv::kSecondLaneSeed);
}

TEST(FnvPairTest, MixedLanesSpreadOverEveryShard)
{
    // Both lanes see the same bytes from seeds equal mod 16, so their
    // low bits agree; the mix must still reach all 8 shards evenly.
    Rng rng(0x5a4dULL);
    constexpr int kKeys = 5000;
    std::array<int, 8> perShard{};
    for (int n = 0; n < kKeys; ++n) {
        FnvPair pair;
        pair.value(rng.next());
        ++perShard[mixLanes(pair.first(), pair.second()) % 8];
    }
    for (int count : perShard) {
        EXPECT_GT(count, kKeys / 8 - 150);
        EXPECT_LT(count, kKeys / 8 + 150);
    }
}

} // namespace
} // namespace gcd2::common
