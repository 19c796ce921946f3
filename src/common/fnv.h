/**
 * @file
 * FNV-1a 64 over a byte stream: the content hash behind every cache and
 * service key (vliw::PackKey, dsp::DecodeKey, service::ModelKey, the
 * PackCache's block keys). A two-lane key runs the same input through
 * one Fnv at the offset basis and one at kSecondLaneSeed and compares
 * both digests.
 */
#ifndef GCD2_COMMON_FNV_H
#define GCD2_COMMON_FNV_H

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace gcd2::common {

/** FNV-1a 64, seedable for a second lane. */
class Fnv
{
  public:
    static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    static constexpr uint64_t kSecondLaneSeed = 0x9e3779b97f4a7c15ULL;

    explicit Fnv(uint64_t seed = kOffsetBasis) : h_(seed) {}

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    /** The object representation of @p v. */
    template <typename T>
    void
    value(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(v));
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

    uint64_t digest() const { return h_; }

  private:
    uint64_t h_;
};

} // namespace gcd2::common

#endif // GCD2_COMMON_FNV_H
