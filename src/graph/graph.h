/**
 * @file
 * The computational graph (CG) intermediate representation.
 *
 * Matches the IR described in Section IV-A: vertices are operations, each
 * producing exactly one output tensor; a directed edge (vi, vj) means vi's
 * output is an input of vj. Node ids are stable indices into the graph's
 * node vector; builders append in topological order (inputs before
 * consumers), which the structure validates.
 */
#ifndef GCD2_GRAPH_GRAPH_H
#define GCD2_GRAPH_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/op.h"
#include "tensor/tensor.h"

namespace gcd2::graph {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/** One operation in the CG. */
struct Node
{
    NodeId id = kInvalidNode;
    OpType op = OpType::Input;
    std::string name;
    std::vector<NodeId> inputs;
    NodeAttrs attrs;
    tensor::Shape shape; ///< output shape (set by shape inference)
    bool dead = false;   ///< marked by elimination passes
};

/** The DAG of a model. */
class Graph
{
  public:
    /** Append a node; inputs must already exist (topological append). */
    NodeId add(OpType op, std::vector<NodeId> inputs,
               NodeAttrs attrs = {}, std::string name = {});

    Node &node(NodeId id);
    const Node &node(NodeId id) const;

    size_t size() const { return nodes_.size(); }

    /** Live (non-dead) operator count, excluding Input/Constant/Output. */
    int64_t operatorCount() const;

    /** Multiply-accumulate count of one node (0 for non-compute ops). */
    int64_t nodeMacs(NodeId id) const;

    /** Total MACs over live nodes. */
    int64_t totalMacs() const;

    /** Consumers of each node (live nodes only). */
    std::vector<std::vector<NodeId>> successors() const;

    const std::vector<Node> &nodes() const { return nodes_; }
    std::vector<Node> &nodes() { return nodes_; }

    std::string toString() const;

  private:
    std::vector<Node> nodes_;
};

/** Infer output shapes of the live nodes from @p first on (their
 *  inputs must carry shapes: earlier nodes are taken as inferred). */
void inferShapes(Graph &graph, NodeId first = 0);

/** Per-op shape inference given resolved input shapes. Applies the
 *  fused epilogue transform (attrs.fusedTransform), if any. */
tensor::Shape inferNodeShape(const Node &node,
                             const std::vector<tensor::Shape> &inputs);

/** inferNodeShape with input shapes resolved from the graph. */
tensor::Shape inferNodeShape(const Graph &graph, const Node &node);

/** The shape the node's kernel computes before any fused epilogue
 *  transform is applied -- what the compute loops and the cost model's
 *  scheme mapping see. Equals inferNodeShape when nothing is fused. */
tensor::Shape naturalNodeShape(const Node &node,
                               const std::vector<tensor::Shape> &inputs);

/** naturalNodeShape with input shapes resolved from the graph. */
tensor::Shape naturalNodeShape(const Graph &graph, const Node &node);

} // namespace gcd2::graph

#endif // GCD2_GRAPH_GRAPH_H
