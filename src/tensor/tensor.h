/**
 * @file
 * Dense tensor container for the quantized DNN pipeline.
 *
 * Everything the compiler moves around is int8 activations / weights with
 * int32 accumulators (paper Section III: 8-bit operands, 16-bit products,
 * 32-bit accumulation, requantization to 8-bit outputs). Float is kept for
 * host-side reference math in tests.
 */
#ifndef GCD2_TENSOR_TENSOR_H
#define GCD2_TENSOR_TENSOR_H

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"

namespace gcd2::tensor {

/** Element types. */
enum class DType : uint8_t { Int8, UInt8, Int16, Int32, Float };

/** Bytes per element. */
constexpr int
dtypeSize(DType t)
{
    switch (t) {
      case DType::Int8:
      case DType::UInt8:
        return 1;
      case DType::Int16:
        return 2;
      case DType::Int32:
      case DType::Float:
        return 4;
    }
    return 0;
}

/** A tensor shape (row-major logical ordering). */
class Shape
{
  public:
    Shape() = default;
    Shape(std::initializer_list<int64_t> dims) : dims_(dims) { check(); }
    explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims))
    {
        check();
    }

    int rank() const { return static_cast<int>(dims_.size()); }
    int64_t
    dim(int i) const
    {
        GCD2_REQUIRE(i >= 0 && i < rank(), "dim " << i << " out of range");
        return dims_[static_cast<size_t>(i)];
    }
    const std::vector<int64_t> &dims() const { return dims_; }

    int64_t
    elements() const
    {
        return std::accumulate(dims_.begin(), dims_.end(), int64_t{1},
                               std::multiplies<>());
    }

    bool operator==(const Shape &other) const = default;

    std::string toString() const;

  private:
    void
    check() const
    {
        for (int64_t d : dims_)
            GCD2_REQUIRE(d >= 0, "negative dimension in shape");
    }

    std::vector<int64_t> dims_;
};

/** A dense host tensor. */
class Tensor
{
  public:
    Tensor() = default;
    Tensor(DType dtype, Shape shape)
        : dtype_(dtype), shape_(std::move(shape)),
          data_(static_cast<size_t>(shape_.elements()) *
                static_cast<size_t>(dtypeSize(dtype)))
    {
    }

    DType dtype() const { return dtype_; }
    const Shape &shape() const { return shape_; }
    int64_t elements() const { return shape_.elements(); }
    size_t byteSize() const { return data_.size(); }

    uint8_t *raw() { return data_.data(); }
    const uint8_t *raw() const { return data_.data(); }

    template <typename T>
    T *
    data()
    {
        GCD2_ASSERT(sizeof(T) == static_cast<size_t>(dtypeSize(dtype_)),
                    "element size mismatch");
        return reinterpret_cast<T *>(data_.data());
    }

    template <typename T>
    const T *
    data() const
    {
        GCD2_ASSERT(sizeof(T) == static_cast<size_t>(dtypeSize(dtype_)),
                    "element size mismatch");
        return reinterpret_cast<const T *>(data_.data());
    }

  private:
    DType dtype_ = DType::Int8;
    Shape shape_;
    std::vector<uint8_t> data_;
};

} // namespace gcd2::tensor

#endif // GCD2_TENSOR_TENSOR_H
