#include "graph/passes.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/logging.h"
#include "common/round.h"

namespace gcd2::graph {

namespace {

/**
 * Live consumers of every node, kept current across rewrites: at any
 * point it holds what Graph::successors() would return (the same
 * multiset per node -- a consumer reading one input twice is listed
 * twice). Rules read fan-out in O(1), and a rewire visits only the
 * rewired node's consumers instead of scanning the whole graph.
 */
class SuccessorIndex
{
  public:
    explicit SuccessorIndex(const Graph &graph)
        : succ_(graph.successors())
    {
    }

    const std::vector<NodeId> &
    of(NodeId id) const
    {
        return succ_[static_cast<size_t>(id)];
    }

    size_t count(NodeId id) const { return of(id).size(); }

    /** Store @p node in slot node.id, moving the slot's input edges. */
    void
    replace(Graph &graph, Node node)
    {
        Node &slot = graph.node(node.id);
        unlinkInputs(slot);
        slot = std::move(node);
        for (NodeId in : slot.inputs)
            link(graph, in, slot.id);
    }

    /** Point input @p which of node @p id at @p to. */
    void
    setInput(Graph &graph, NodeId id, size_t which, NodeId to)
    {
        Node &node = graph.node(id);
        unlink(node.inputs[which], id);
        node.inputs[which] = to;
        link(graph, to, id);
    }

    /** Append @p in to node @p id's inputs. */
    void
    addInput(Graph &graph, NodeId id, NodeId in)
    {
        graph.node(id).inputs.push_back(in);
        link(graph, in, id);
    }

    /** Rewire every live consumer of @p from to read @p to instead. */
    void
    rewire(Graph &graph, NodeId from, NodeId to)
    {
        // One entry per consumer input slot, so each entry moves one.
        const std::vector<NodeId> consumers =
            std::move(succ_[static_cast<size_t>(from)]);
        succ_[static_cast<size_t>(from)].clear();
        for (NodeId consumer : consumers) {
            std::vector<NodeId> &inputs = graph.node(consumer).inputs;
            *std::find(inputs.begin(), inputs.end(), from) = to;
            succ_[static_cast<size_t>(to)].push_back(consumer);
        }
    }

    /** Mark @p id dead and drop its edges. */
    void
    kill(Graph &graph, NodeId id)
    {
        Node &node = graph.node(id);
        unlinkInputs(node);
        node.dead = true;
        succ_[static_cast<size_t>(id)].clear();
    }

  private:
    void
    link(const Graph &graph, NodeId in, NodeId consumer)
    {
        if (!graph.node(in).dead)
            succ_[static_cast<size_t>(in)].push_back(consumer);
    }

    void
    unlink(NodeId in, NodeId consumer)
    {
        std::vector<NodeId> &list = succ_[static_cast<size_t>(in)];
        const auto it = std::find(list.begin(), list.end(), consumer);
        if (it != list.end()) // absent when `in` is dead
            list.erase(it);
    }

    void
    unlinkInputs(const Node &node)
    {
        if (node.dead)
            return;
        for (NodeId in : node.inputs)
            unlink(in, node.id);
    }

    std::vector<std::vector<NodeId>> succ_;
};

} // namespace

int64_t
foldConstants(Graph &graph)
{
    int64_t folded = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || node.op == OpType::Constant ||
            node.op == OpType::Input || node.op == OpType::Output)
            continue;
        const bool allConst = !node.inputs.empty() &&
            std::all_of(node.inputs.begin(), node.inputs.end(),
                        [&](NodeId in) {
                            return graph.node(in).op == OpType::Constant;
                        });
        if (!allConst)
            continue;
        // Replace with a Constant of the already-inferred shape.
        node.attrs.targetShape = node.shape.dims();
        node.op = OpType::Constant;
        node.inputs.clear();
        ++folded;
    }
    return folded;
}

int64_t
fuseClampActivations(Graph &graph)
{
    SuccessorIndex succ(graph);
    int64_t fused = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Clamp)
            continue;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph.node(producerId);
        const bool fusable = producer.op == OpType::Conv2D ||
                             producer.op == OpType::DepthwiseConv2D ||
                             producer.op == OpType::MatMul ||
                             producer.op == OpType::Add;
        // Only fuse when the clamp is the producer's only consumer, and
        // never on top of an earlier clamp (one epilogue, one range).
        if (!fusable || producer.attrs.fusedClamp ||
            succ.count(producerId) != 1)
            continue;
        producer.attrs.fusedClamp = true;
        producer.attrs.fusedLo = node.attrs.clampLo;
        producer.attrs.fusedHi = node.attrs.clampHi;
        // The clamp becomes a pass-through that dead-node elimination
        // removes: rewire its consumers to the producer.
        succ.rewire(graph, node.id, producerId);
        succ.kill(graph, node.id);
        ++fused;
    }
    return fused;
}

int64_t
eliminateDeadNodes(Graph &graph)
{
    // Backward reachability from Output nodes.
    std::vector<bool> live(graph.size(), false);
    std::vector<NodeId> work;
    for (const Node &node : graph.nodes()) {
        if (!node.dead && node.op == OpType::Output) {
            live[static_cast<size_t>(node.id)] = true;
            work.push_back(node.id);
        }
    }
    GCD2_REQUIRE(!work.empty(), "graph has no Output node");
    while (!work.empty()) {
        const NodeId id = work.back();
        work.pop_back();
        for (NodeId in : graph.node(id).inputs) {
            if (!live[static_cast<size_t>(in)]) {
                live[static_cast<size_t>(in)] = true;
                work.push_back(in);
            }
        }
    }

    int64_t removed = 0;
    for (Node &node : graph.nodes()) {
        if (!node.dead && !live[static_cast<size_t>(node.id)]) {
            node.dead = true;
            ++removed;
        }
    }
    return removed;
}

int64_t
fuseLutActivations(Graph &graph)
{
    SuccessorIndex succ(graph);
    int64_t fused = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLutActivation(node.op))
            continue;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph.node(producerId);
        if (!isMatMulFamily(producer.op) || producer.attrs.fusedLut ||
            succ.count(producerId) != 1)
            continue;
        producer.attrs.fusedLut = true;
        succ.rewire(graph, node.id, producerId);
        succ.kill(graph, node.id);
        ++fused;
    }
    if (fused > 0)
        eliminateDeadNodes(graph);
    return fused;
}

int64_t
fuseResidualAdds(Graph &graph)
{
    SuccessorIndex succ(graph);
    int64_t fused = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Add || node.inputs.size() != 2)
            continue;
        // Fuse into whichever operand is a matmul-family producer whose
        // only consumer is this add.
        for (size_t which = 0; which < 2; ++which) {
            const NodeId producerId = node.inputs[which];
            Node &producer = graph.node(producerId);
            if (!isMatMulFamily(producer.op) || producer.attrs.fusedAdd ||
                succ.count(producerId) != 1)
                continue;
            const NodeId other = node.inputs[1 - which];
            // The residual operand must precede the producer so the
            // rewritten graph stays topological.
            if (other >= producerId)
                continue;
            producer.attrs.fusedAdd = true;
            succ.addInput(graph, producerId, other);
            succ.rewire(graph, node.id, producerId);
            succ.kill(graph, node.id);
            ++fused;
            break;
        }
    }
    if (fused > 0)
        eliminateDeadNodes(graph);
    return fused;
}

// ---- layout-transform elimination -----------------------------------

namespace {

bool
isIdentityPerm(const std::vector<int> &perm)
{
    for (size_t i = 0; i < perm.size(); ++i)
        if (perm[i] != static_cast<int>(i))
            return false;
    return true;
}

/** Unary ops that apply the same function to every element regardless
 *  of its position -- safe to commute with any layout transform. */
bool
isUnaryElementwise(OpType op)
{
    return op == OpType::Clamp || op == OpType::Sigmoid ||
           op == OpType::Tanh || op == OpType::Gelu || op == OpType::Pow;
}

/** Binary elementwise ops (positionally independent per lane). */
bool
isBinaryElementwise(OpType op)
{
    return op == OpType::Add || op == OpType::Mul ||
           op == OpType::Sub || op == OpType::Div;
}

/** Two transforms with byte-for-byte identical semantics? */
bool
sameTransformSpec(const Node &a, const Node &b)
{
    if (a.op != b.op)
        return false;
    if (a.op == OpType::Reshape)
        return a.attrs.targetShape == b.attrs.targetShape;
    return a.attrs.perm == b.attrs.perm;
}

/** Analytic standalone cost of a live transform node, mirroring the
 *  cost model: a Reshape is a zero-copy row-major view; a Transpose is
 *  a vectorized copy at ~4 cycles per 128-byte vector plus setup. */
int64_t
standingTransformCycles(const Graph &graph)
{
    int64_t cycles = 0;
    for (const Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Transpose)
            continue;
        const int64_t elements =
            graph.node(node.inputs[0]).shape.elements();
        cycles += 4 * common::ceilDiv(elements, 128) + 8;
    }
    return cycles;
}

/** Node ids a rule still has to look at, smallest first. */
class Worklist
{
  public:
    explicit Worklist(size_t size) : queued_(size, 0) {}

    void
    push(NodeId id)
    {
        if (!queued_[static_cast<size_t>(id)]) {
            queued_[static_cast<size_t>(id)] = 1;
            heap_.push(id);
        }
    }

    bool
    pop(NodeId &id)
    {
        if (heap_.empty())
            return false;
        id = heap_.top();
        heap_.pop();
        queued_[static_cast<size_t>(id)] = 0;
        return true;
    }

  private:
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>>
        heap_;
    std::vector<uint8_t> queued_;
};

/**
 * One round of the three transform rules over a graph whose shapes are
 * inferred. Each rule runs as an id-ordered sweep: it always rewrites
 * the smallest-id node it matches, exactly as a rescan from node 0
 * after every rewrite would, but a rewrite only re-queues the nodes
 * whose match it can change, and re-infers only the shapes it changes
 * (DESIGN.md section 13). A cancel or fuse touches only the node, its
 * producer's consumer list and its consumers -- later ids, still
 * queued -- so it re-queues at most the node itself. A sink can enable
 * matches at smaller ids; placeSunk re-queues those.
 */
class TransformRewriter
{
  public:
    using Rule = bool (TransformRewriter::*)(NodeId);

    TransformRewriter(Graph &graph, PassStats &stats)
        : graph_(graph), stats_(stats), succ_(graph), work_(graph.size())
    {
    }

    /** Apply @p rule until no live transform matches; returns the
     *  number of rewrites. */
    int64_t
    sweep(Rule rule)
    {
        for (const Node &node : graph_.nodes())
            if (!node.dead && isLayoutTransformOp(node.op))
                work_.push(node.id);
        int64_t applied = 0;
        for (NodeId id; work_.pop(id);)
            if ((this->*rule)(id))
                ++applied;
        return applied;
    }

    /** Rule 1: identity transforms vanish; chained transforms compose.
     *  No shape changes: an identity has its input's shape, and both
     *  compositions keep the node's output shape. */
    bool
    cancel(NodeId id)
    {
        Node &node = graph_.node(id);
        if (node.dead || !isLayoutTransformOp(node.op))
            return false;
        const Node &producer = graph_.node(node.inputs[0]);

        // Identity Reshape / Transpose: consumers read the input.
        const bool identity =
            node.op == OpType::Reshape
                ? node.attrs.targetShape == producer.shape.dims()
                : isIdentityPerm(node.attrs.perm);
        if (identity) {
            succ_.rewire(graph_, id, node.inputs[0]);
            succ_.kill(graph_, id);
            ++stats_.cancelledTransforms;
            return true;
        }

        // Reshape(Reshape(x)) -> Reshape(x): only the outer target
        // matters under row-major views.
        if (node.op == OpType::Reshape &&
            producer.op == OpType::Reshape) {
            succ_.setInput(graph_, id, 0, producer.inputs[0]);
            work_.push(id);
            ++stats_.cancelledTransforms;
            return true;
        }

        // Transpose(Transpose(x)) -> Transpose(x) with composed perm;
        // inverse pairs compose to the identity and cancel next visit.
        if (node.op == OpType::Transpose &&
            producer.op == OpType::Transpose) {
            const std::vector<int> &inner = producer.attrs.perm;
            const std::vector<int> &outer = node.attrs.perm;
            GCD2_REQUIRE(inner.size() == outer.size(),
                         "composing transposes of different rank");
            std::vector<int> composed(outer.size());
            for (size_t i = 0; i < outer.size(); ++i)
                composed[i] = inner[static_cast<size_t>(outer[i])];
            node.attrs.perm = std::move(composed);
            succ_.setInput(graph_, id, 0, producer.inputs[0]);
            work_.push(id);
            ++stats_.cancelledTransforms;
            return true;
        }
        return false;
    }

    /** Rule 2: sink a transform below a layout-agnostic consumer by
     *  swapping the two nodes in place (keeps ids topological: the
     *  elementwise moves up into the transform's slot, the transform
     *  moves down into the elementwise's slot). */
    bool
    sink(NodeId id)
    {
        const Node &node = graph_.node(id);
        if (node.dead || !isLayoutTransformOp(node.op) ||
            succ_.count(id) != 1)
            return false;
        const NodeId consumerId = succ_.of(id)[0];
        const Node &consumer = graph_.node(consumerId);

        // Unary elementwise: T -> E  becomes  E -> T.
        if (isUnaryElementwise(consumer.op) &&
            consumer.inputs.size() == 1) {
            Node elem = consumer; // E's op + attrs (clamp bounds, exponent)
            Node xform = node;    // T's op + attrs (targetShape / perm)
            elem.id = id;
            elem.inputs = {node.inputs[0]};
            xform.id = consumerId;
            xform.inputs = {id};
            placeSunk(std::move(elem), std::move(xform));
            ++stats_.sunkTransforms;
            return true;
        }

        if (!isBinaryElementwise(consumer.op) ||
            consumer.inputs.size() != 2)
            return false;
        const size_t which = consumer.inputs[0] == id ? 0 : 1;
        const NodeId otherId = consumer.inputs[1 - which];
        const Node &other = graph_.node(otherId);

        // Matching binary sink: E(T1(a), T2(b)) with identical transform
        // specs over equal input shapes becomes T(E(a, b)).
        if (isLayoutTransformOp(other.op) && otherId != id &&
            succ_.count(otherId) == 1 && sameTransformSpec(node, other) &&
            graph_.node(node.inputs[0]).shape.dims() ==
                graph_.node(other.inputs[0]).shape.dims()) {
            const NodeId hi = std::max(id, otherId);
            const NodeId lo = std::min(id, otherId);
            const NodeId a = graph_.node(consumer.inputs[0]).inputs[0];
            const NodeId b = graph_.node(consumer.inputs[1]).inputs[0];
            Node elem = consumer;
            elem.id = hi;
            elem.inputs = {a, b};
            Node xform = node;
            xform.id = consumerId;
            xform.inputs = {hi};
            placeSunk(std::move(elem), std::move(xform));
            succ_.kill(graph_, lo);
            stats_.sunkTransforms += 2;
            ++stats_.cancelledTransforms; // the pair shared one transform
            return true;
        }

        // Scalar-broadcast sink: E(T(a), c) with |c| == 1 becomes
        // T(E(a, c)) -- a scalar operand is position-independent. The
        // scalar must precede T's slot to keep ids topological, and the
        // transform operand must be first (shape-inference broadcast
        // rule: the larger operand comes first).
        if (which == 0 && other.shape.elements() == 1 && otherId < id) {
            Node elem = consumer;
            elem.id = id;
            elem.inputs = {node.inputs[0], otherId};
            Node xform = node;
            xform.id = consumerId;
            xform.inputs = {id};
            placeSunk(std::move(elem), std::move(xform));
            ++stats_.sunkTransforms;
            return true;
        }
        return false;
    }

    /** Rule 3: fold a single-consumer transform into its matmul-family
     *  producer as an epilogue attribute. Chains compose: once the
     *  producer carries a fused shape, a following transform sees that
     *  shape and can fold on top. */
    bool
    fuse(NodeId id)
    {
        const Node &node = graph_.node(id);
        if (node.dead || !isLayoutTransformOp(node.op))
            return false;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph_.node(producerId);
        if (!isMatMulFamily(producer.op) &&
            producer.op != OpType::DepthwiseConv2D)
            return false;
        if (succ_.count(producerId) != 1)
            return false;
        producer.attrs.fusedTransform = true;
        producer.attrs.fusedOutShape = node.shape.dims();
        if (node.op == OpType::Transpose)
            producer.attrs.fusedTransformPermutes = true;
        // The producer now has the transform's shape, which its new
        // consumers already saw.
        reinfer(producerId);
        succ_.rewire(graph_, id, producerId);
        succ_.kill(graph_, id);
        ++stats_.fusedTransforms;
        return true;
    }

  private:
    void
    reinfer(NodeId id)
    {
        Node &node = graph_.node(id);
        node.shape = inferNodeShape(graph_, node);
    }

    /**
     * Store a sunk pair -- the elementwise op in the upper slot, the
     * transform in the lower slot that reads it -- re-infer both slots
     * (only the upper one changes shape: it now holds the elementwise
     * result in the untransformed view), and queue every transform
     * whose sink match may have changed, wherever it sits: the one in
     * the lower slot; the upper slot's inputs (their consumer changed);
     * and the operands of the lower slot's consumers (their other
     * operand is now a transform, over the upper slot's new shape).
     */
    void
    placeSunk(Node elem, Node xform)
    {
        const NodeId upper = elem.id;
        const NodeId lower = xform.id;
        succ_.replace(graph_, std::move(elem));
        succ_.replace(graph_, std::move(xform));
        reinfer(upper);
        reinfer(lower);
        work_.push(lower);
        for (NodeId in : graph_.node(upper).inputs)
            work_.push(in);
        for (NodeId consumer : succ_.of(lower))
            for (NodeId in : graph_.node(consumer).inputs)
                work_.push(in);
    }

    Graph &graph_;
    PassStats &stats_;
    SuccessorIndex succ_;
    Worklist work_;
};

} // namespace

int64_t
eliminateLayoutTransforms(Graph &graph, PassStats &stats)
{
    inferShapes(graph);
    const int64_t before = standingTransformCycles(graph);
    int64_t total = 0;
    // Rounds of cancel-to-fixpoint, sink-to-fixpoint, fuse-to-fixpoint,
    // with dead-node elimination between rounds, until a round changes
    // nothing.
    for (bool changed = true; changed;) {
        TransformRewriter rewriter(graph, stats);
        int64_t applied = rewriter.sweep(&TransformRewriter::cancel);
        applied += rewriter.sweep(&TransformRewriter::sink);
        applied += rewriter.sweep(&TransformRewriter::fuse);
        total += applied;
        changed = applied > 0;
        if (changed)
            eliminateDeadNodes(graph);
    }
    stats.transformCyclesSaved += before - standingTransformCycles(graph);
    return total;
}

PassStats
optimize(Graph &graph, const OptimizeOptions &options)
{
    inferShapes(graph);
    PassStats stats;
    stats.foldedNodes = foldConstants(graph);
    stats.fusedActivations = fuseClampActivations(graph);
    if (options.eliminateLayoutTransforms) {
        eliminateLayoutTransforms(graph, stats);
        // Sinking can re-expose Clamp-under-producer patterns.
        stats.fusedActivations += fuseClampActivations(graph);
    }
    if (options.extendedFusion) {
        stats.fusedLuts = fuseLutActivations(graph);
        stats.fusedResiduals = fuseResidualAdds(graph);
    }
    stats.removedNodes = eliminateDeadNodes(graph);
    inferShapes(graph);
    return stats;
}

} // namespace gcd2::graph
