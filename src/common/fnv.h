/**
 * @file
 * FNV-1a 64 over a byte stream: the content hash behind every cache and
 * service key (vliw::PackKey, dsp::DecodeKey, service::ModelKey, the
 * PackCache's block keys). A two-lane key runs the same input through
 * one lane at the offset basis and one at kSecondLaneSeed and compares
 * both digests; FnvPair feeds both lanes in one walk over the input.
 */
#ifndef GCD2_COMMON_FNV_H
#define GCD2_COMMON_FNV_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace gcd2::common {

namespace detail {

/** value() and sequence() for a hasher with bytes(data, n). */
template <typename Hasher>
class FnvFeed
{
  public:
    /** The object representation of @p v. */
    template <typename T>
    void
    value(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_cast<Hasher *>(this)->bytes(&v, sizeof(v));
    }

    /** The length of @p values, then each element. */
    template <typename T>
    void
    sequence(const std::vector<T> &values)
    {
        value(static_cast<uint64_t>(values.size()));
        for (const T &v : values)
            value(v);
    }
};

} // namespace detail

/** FNV-1a 64, seedable for a second lane. */
class Fnv : public detail::FnvFeed<Fnv>
{
  public:
    static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    static constexpr uint64_t kSecondLaneSeed = 0x9e3779b97f4a7c15ULL;
    static constexpr uint64_t kPrime = 0x100000001b3ULL;

    explicit Fnv(uint64_t seed = kOffsetBasis) : h_(seed) {}

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= kPrime;
        }
    }

    uint64_t digest() const { return h_; }

  private:
    uint64_t h_;
};

/**
 * The two lanes of a two-lane key, fed in one walk: the digests equal
 * those of an Fnv at the offset basis and an Fnv at kSecondLaneSeed run
 * over the same input, but each byte advances two independent multiply
 * chains instead of the input being walked twice.
 */
class FnvPair : public detail::FnvFeed<FnvPair>
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        uint64_t a = a_;
        uint64_t b = b_;
        for (size_t i = 0; i < n; ++i) {
            a = (a ^ p[i]) * Fnv::kPrime;
            b = (b ^ p[i]) * Fnv::kPrime;
        }
        a_ = a;
        b_ = b;
    }

    /** Feed @p v to the second lane only (a salt that keeps key
     *  families apart where their first lanes may meet). */
    template <typename T>
    void
    secondLaneValue(const T &v)
    {
        Fnv lane(b_);
        lane.value(v);
        b_ = lane.digest();
    }

    uint64_t first() const { return a_; }
    uint64_t second() const { return b_; }

  private:
    uint64_t a_ = Fnv::kOffsetBasis;
    uint64_t b_ = Fnv::kSecondLaneSeed;
};

/**
 * One well-spread word from the two lanes of a key, for bucket and shard
 * selection. The lanes start from seeds equal mod 16 and see the same
 * bytes, so their low bits agree; a plain xor-multiply of the two leaves
 * the low bits (and so ShardedLru's shard index) nearly constant. The
 * splitmix64 finalizer makes every output bit depend on both lanes.
 */
inline uint64_t
mixLanes(uint64_t h0, uint64_t h1)
{
    uint64_t x = h0 ^ std::rotl(h1, 32);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace gcd2::common

#endif // GCD2_COMMON_FNV_H
