/**
 * @file
 * Operator catalog of the computational-graph IR.
 *
 * The set covers everything the paper's ten evaluation models need:
 * convolutions (regular / depthwise / pointwise), matrix multiplies,
 * elementwise arithmetic, activations and lookup-table nonlinearities,
 * pooling, normalization, softmax (whose division feeds the paper's
 * div-to-LUT optimization), and the layout-changing shape operators
 * (Reshape / Transpose) that are pivotal for the partitioning heuristic
 * of Section IV-B.
 */
#ifndef GCD2_GRAPH_OP_H
#define GCD2_GRAPH_OP_H

#include <cstdint>
#include <string>
#include <vector>

namespace gcd2::graph {

/** Operator kinds. */
enum class OpType : uint8_t
{
    Input,
    Constant,
    Output,

    Conv2D,
    DepthwiseConv2D,
    MatMul,

    Add,
    Mul,
    Sub,
    Div,
    Pow,

    Clamp, ///< ReLU / ReLU6 / hard clip
    Sigmoid,
    Tanh,
    Gelu,
    Softmax,

    MaxPool,
    AvgPool,
    GlobalAvgPool,
    Upsample, ///< nearest-neighbor 2x (super-resolution / GAN decoders)

    LayerNorm,

    Reshape,
    Transpose,
    Concat,

    kNumOps
};

const char *opTypeName(OpType type);

/** True for ops that change only the view, not the values. */
bool isLayoutTransformOp(OpType type);

/** True for ops realized by a matmul-family kernel (Conv2D / MatMul). */
bool isMatMulFamily(OpType type);

/** True for nonlinearities realized through a 256-entry lookup table. */
bool isLutActivation(OpType type);

/** Per-node attributes (only the fields relevant to the op are used). */
struct NodeAttrs
{
    // Convolutions.
    int64_t outC = 0;
    int64_t kH = 1;
    int64_t kW = 1;
    int64_t strideH = 1;
    int64_t strideW = 1;
    int64_t padH = 0;
    int64_t padW = 0;

    // MatMul.
    bool transposeB = false;

    // Pooling.
    int64_t poolK = 2;
    int64_t poolStride = 2;

    // Clamp.
    int clampLo = 0;
    int clampHi = 255;

    // Softmax / Concat axis.
    int axis = -1;

    // Pow exponent.
    double exponent = 2.0;

    // Reshape target.
    std::vector<int64_t> targetShape;

    // Transpose permutation.
    std::vector<int> perm;

    /** Fused activation clamp (set by the fusion pass). */
    bool fusedClamp = false;
    int fusedLo = 0;
    int fusedHi = 255;
    /** Fused lookup-table nonlinearity (DSP-friendly fusion extension). */
    bool fusedLut = false;
    /** Fused residual add: the extra input streams through the epilogue. */
    bool fusedAdd = false;
    /** Fused epilogue layout transform (set by eliminateLayoutTransforms):
     *  the kernel writes its result directly in the transformed view, so
     *  no standalone Reshape/Transpose node runs afterwards. */
    bool fusedTransform = false;
    /** Final output dims once the fused transform chain is applied. */
    std::vector<int64_t> fusedOutShape;
    /** True iff a non-identity Transpose was folded in (the store pass
     *  permutes; a pure Reshape epilogue is free metadata). */
    bool fusedTransformPermutes = false;

    bool operator==(const NodeAttrs &other) const = default;
};

} // namespace gcd2::graph

#endif // GCD2_GRAPH_OP_H
