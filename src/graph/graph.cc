#include "graph/graph.h"

#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace gcd2::graph {

using tensor::Shape;

NodeId
Graph::add(OpType op, std::vector<NodeId> inputs, NodeAttrs attrs,
           std::string name)
{
    const auto id = static_cast<NodeId>(nodes_.size());
    for (NodeId in : inputs) {
        GCD2_REQUIRE(in >= 0 && in < id,
                     "node inputs must precede the node (topological "
                     "append); got input "
                         << in << " for node " << id);
    }
    Node node;
    node.id = id;
    node.op = op;
    node.inputs = std::move(inputs);
    node.attrs = std::move(attrs);
    node.name = name.empty()
                    ? std::string(opTypeName(op)) + "_" + std::to_string(id)
                    : std::move(name);
    nodes_.push_back(std::move(node));
    return id;
}

Node &
Graph::node(NodeId id)
{
    GCD2_REQUIRE(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
                 "bad node id " << id);
    return nodes_[static_cast<size_t>(id)];
}

const Node &
Graph::node(NodeId id) const
{
    GCD2_REQUIRE(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
                 "bad node id " << id);
    return nodes_[static_cast<size_t>(id)];
}

int64_t
Graph::operatorCount() const
{
    int64_t count = 0;
    for (const Node &node : nodes_) {
        if (node.dead)
            continue;
        if (node.op == OpType::Input || node.op == OpType::Constant ||
            node.op == OpType::Output)
            continue;
        ++count;
    }
    return count;
}

int64_t
Graph::nodeMacs(NodeId id) const
{
    const Node &n = node(id);
    if (n.dead)
        return 0;
    switch (n.op) {
      case OpType::Conv2D: {
        const Shape &in = node(n.inputs[0]).shape;
        return n.shape.elements() * in.dim(0) * n.attrs.kH * n.attrs.kW;
      }
      case OpType::DepthwiseConv2D:
        return n.shape.elements() * n.attrs.kH * n.attrs.kW;
      case OpType::MatMul: {
        const Shape &a = node(n.inputs[0]).shape;
        const int64_t k = a.dim(a.rank() - 1);
        return n.shape.elements() * k;
      }
      default:
        return 0;
    }
}

int64_t
Graph::totalMacs() const
{
    int64_t total = 0;
    for (const Node &n : nodes_)
        total += nodeMacs(n.id);
    return total;
}

std::vector<std::vector<NodeId>>
Graph::successors() const
{
    std::vector<std::vector<NodeId>> succ(nodes_.size());
    for (const Node &n : nodes_) {
        if (n.dead)
            continue;
        for (NodeId in : n.inputs)
            if (!node(in).dead)
                succ[static_cast<size_t>(in)].push_back(n.id);
    }
    return succ;
}

std::string
Graph::toString() const
{
    std::ostringstream oss;
    for (const Node &n : nodes_) {
        if (n.dead)
            continue;
        oss << "%" << n.id << " = " << opTypeName(n.op) << "(";
        for (size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                oss << ", ";
            oss << "%" << n.inputs[i];
        }
        oss << ") : " << n.shape.toString() << "  // " << n.name << "\n";
    }
    return oss.str();
}

namespace {

/** Pool output extent with implicit valid padding. */
int64_t
pooledDim(int64_t in, int64_t k, int64_t stride)
{
    GCD2_REQUIRE(in >= k, "pool window larger than input");
    return (in - k) / stride + 1;
}

std::vector<Shape>
inputShapes(const Graph &graph, const Node &node)
{
    std::vector<Shape> inputs;
    inputs.reserve(node.inputs.size());
    for (NodeId in : node.inputs)
        inputs.push_back(graph.node(in).shape);
    return inputs;
}

} // namespace

tensor::Shape
naturalNodeShape(const Node &node, const std::vector<Shape> &inputs)
{
    const NodeAttrs &a = node.attrs;
    auto in = [&](size_t i) -> const Shape & {
        GCD2_REQUIRE(i < inputs.size(),
                     opTypeName(node.op) << " missing input " << i);
        return inputs[i];
    };

    switch (node.op) {
      case OpType::Input:
      case OpType::Constant:
        return Shape(a.targetShape);

      case OpType::Output:
        return in(0);

      case OpType::Conv2D: {
        const Shape &x = in(0);
        GCD2_REQUIRE(x.rank() == 3, "Conv2D input must be (C, H, W)");
        const int64_t oh =
            (x.dim(1) + 2 * a.padH - a.kH) / a.strideH + 1;
        const int64_t ow =
            (x.dim(2) + 2 * a.padW - a.kW) / a.strideW + 1;
        GCD2_REQUIRE(oh > 0 && ow > 0, "Conv2D output is empty");
        return Shape{a.outC, oh, ow};
      }
      case OpType::DepthwiseConv2D: {
        const Shape &x = in(0);
        GCD2_REQUIRE(x.rank() == 3,
                     "DepthwiseConv2D input must be (C, H, W)");
        const int64_t oh =
            (x.dim(1) + 2 * a.padH - a.kH) / a.strideH + 1;
        const int64_t ow =
            (x.dim(2) + 2 * a.padW - a.kW) / a.strideW + 1;
        return Shape{x.dim(0), oh, ow};
      }
      case OpType::MatMul: {
        const Shape &x = in(0);
        const Shape &w = in(1);
        GCD2_REQUIRE(x.rank() >= 2 && w.rank() >= 2,
                     "MatMul needs rank >= 2 operands");
        const int64_t k = x.dim(x.rank() - 1);
        const int64_t wk =
            a.transposeB ? w.dim(w.rank() - 1) : w.dim(w.rank() - 2);
        const int64_t n =
            a.transposeB ? w.dim(w.rank() - 2) : w.dim(w.rank() - 1);
        GCD2_REQUIRE(k == wk, "MatMul reduction mismatch: " << k << " vs "
                                                            << wk);
        std::vector<int64_t> dims = x.dims();
        dims.back() = n;
        return Shape(dims);
      }

      case OpType::Add:
      case OpType::Mul:
      case OpType::Sub:
      case OpType::Div:
        GCD2_REQUIRE(in(0).elements() >= in(1).elements(),
                     "broadcast operand must come second");
        return in(0);

      case OpType::Pow:
      case OpType::Clamp:
      case OpType::Sigmoid:
      case OpType::Tanh:
      case OpType::Gelu:
      case OpType::Softmax:
      case OpType::LayerNorm:
        return in(0);

      case OpType::MaxPool:
      case OpType::AvgPool: {
        const Shape &x = in(0);
        GCD2_REQUIRE(x.rank() == 3, "pool input must be (C, H, W)");
        return Shape{x.dim(0), pooledDim(x.dim(1), a.poolK, a.poolStride),
                     pooledDim(x.dim(2), a.poolK, a.poolStride)};
      }
      case OpType::GlobalAvgPool: {
        const Shape &x = in(0);
        GCD2_REQUIRE(x.rank() == 3,
                     "global pool input must be (C, H, W)");
        return Shape{x.dim(0), 1, 1};
      }
      case OpType::Upsample: {
        const Shape &x = in(0);
        GCD2_REQUIRE(x.rank() == 3, "upsample input must be (C, H, W)");
        return Shape{x.dim(0), 2 * x.dim(1), 2 * x.dim(2)};
      }

      case OpType::Reshape: {
        const Shape target(a.targetShape);
        GCD2_REQUIRE(target.elements() == in(0).elements(),
                     "Reshape changes element count: "
                         << in(0).toString() << " -> "
                         << target.toString());
        return target;
      }
      case OpType::Transpose: {
        const Shape &x = in(0);
        GCD2_REQUIRE(static_cast<int>(a.perm.size()) == x.rank(),
                     "Transpose permutation rank mismatch");
        std::vector<int64_t> dims(a.perm.size());
        for (size_t i = 0; i < a.perm.size(); ++i)
            dims[i] = x.dim(a.perm[i]);
        return Shape(dims);
      }
      case OpType::Concat: {
        const Shape &first = in(0);
        const int axis =
            a.axis < 0 ? first.rank() + a.axis : a.axis;
        GCD2_REQUIRE(axis >= 0 && axis < first.rank(),
                     "Concat axis out of range");
        std::vector<int64_t> dims = first.dims();
        for (size_t i = 1; i < inputs.size(); ++i)
            dims[static_cast<size_t>(axis)] +=
                inputs[i].dim(axis);
        return Shape(dims);
      }

      case OpType::kNumOps:
        break;
    }
    GCD2_PANIC("unhandled op in shape inference");
}

tensor::Shape
naturalNodeShape(const Graph &graph, const Node &node)
{
    return naturalNodeShape(node, inputShapes(graph, node));
}

tensor::Shape
inferNodeShape(const Node &node, const std::vector<Shape> &inputs)
{
    Shape natural = naturalNodeShape(node, inputs);
    if (!node.attrs.fusedTransform)
        return natural;
    const Shape fused(node.attrs.fusedOutShape);
    GCD2_REQUIRE(fused.elements() == natural.elements(),
                 "fused transform changes element count: "
                     << natural.toString() << " -> " << fused.toString());
    return fused;
}

tensor::Shape
inferNodeShape(const Graph &graph, const Node &node)
{
    return inferNodeShape(node, inputShapes(graph, node));
}

void
inferShapes(Graph &graph, NodeId first)
{
    for (size_t i = static_cast<size_t>(first); i < graph.size(); ++i) {
        Node &node = graph.nodes()[i];
        if (!node.dead)
            node.shape = inferNodeShape(graph, node);
    }
}

} // namespace gcd2::graph
