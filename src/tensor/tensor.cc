#include "tensor/tensor.h"

#include <sstream>

namespace gcd2::tensor {

std::string
Shape::toString() const
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            oss << "x";
        oss << dims_[i];
    }
    oss << "]";
    return oss.str();
}

} // namespace gcd2::tensor
