#pragma once

/**
 * @file
 * A small reverse-mode automatic-differentiation engine.
 *
 * Values are dense 2-D tensors; the operator set covers exactly what the
 * Sleuth GNN (paper Eqs. 2-5) and the baseline models need, including the
 * graph primitives gather / segment-sum / segment-max that implement
 * message passing over RPC dependency graphs of arbitrary topology.
 *
 * Usage: build an expression from Vars (leaves created with param() or
 * constant()), then call backward() on a scalar result; gradients
 * accumulate in each leaf's grad() tensor.
 */

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace sleuth::nn {

class Node;

/** Handle to a node of the autograd graph. */
using Var = std::shared_ptr<Node>;

/** One value in the autograd graph. */
class Node
{
  public:
    /** The forward value. */
    const Tensor &value() const { return value_; }
    /** Mutable forward value (optimizers update parameters in place). */
    Tensor &mutableValue() { return value_; }
    /** Accumulated gradient (valid after backward()). */
    const Tensor &grad() const { return grad_; }
    /** True when gradients flow through / into this node. */
    bool requiresGrad() const { return requires_grad_; }

  private:
    friend Var makeNode(Tensor value, bool requires_grad,
                        std::vector<Var> parents,
                        std::function<void(Node &)> backward);
    friend void backward(const Var &root);
    friend class GradAccess;

    Tensor value_;
    Tensor grad_;
    bool requires_grad_ = false;
    std::vector<Var> parents_;
    std::function<void(Node &)> backward_;
    int visit_mark_ = 0;
};

/** Internal helper granting ops access to node gradients. */
class GradAccess
{
  public:
    /** Gradient of a node, allocated on first use. */
    static Tensor &
    grad(Node &n)
    {
        if (n.grad_.size() != n.value_.size())
            n.grad_ = Tensor(n.value_.rows(), n.value_.cols());
        return n.grad_;
    }
    /** Forward value of a node. */
    static const Tensor &value(const Node &n) { return n.value_; }
};

/** Create a graph node (used by the op implementations). */
Var makeNode(Tensor value, bool requires_grad, std::vector<Var> parents,
             std::function<void(Node &)> backward);

/** A constant leaf: no gradient is tracked. */
Var constant(Tensor value);

/** A parameter leaf: gradients accumulate during backward(). */
Var param(Tensor value);

/**
 * Run reverse-mode differentiation from a scalar (1x1) root.
 *
 * Zeroes all gradients reachable from the root, seeds the root gradient
 * with 1, and propagates in reverse topological order.
 */
void backward(const Var &root);

/// @name Elementwise and matrix operators
/// @{

/** Elementwise sum of same-shape tensors. */
Var add(const Var &a, const Var &b);
/** Elementwise difference. */
Var sub(const Var &a, const Var &b);
/** Elementwise (Hadamard) product. */
Var mul(const Var &a, const Var &b);
/** Add a 1xC row vector to every row of an NxC tensor. */
Var addRow(const Var &a, const Var &row);
/** Multiply every element by a constant. */
Var scale(const Var &a, double s);
/** Add a constant to every element. */
Var addScalar(const Var &a, double s);
/** Matrix product. */
Var matmul(const Var &a, const Var &b);
/** Elementwise max of same-shape tensors (gradient to the winner). */
Var maxElem(const Var &a, const Var &b);
/**
 * The activations' forward formulas, shared by relu / sigmoid / tanhOp
 * and the tape-free Mlp::infer so the two paths cannot drift apart.
 */
inline double reluValue(double x) { return x > 0.0 ? x : 0.0; }
inline double sigmoidValue(double x) { return 1.0 / (1.0 + std::exp(-x)); }
inline double tanhValue(double x) { return std::tanh(x); }
/** Rectified linear unit. */
Var relu(const Var &a);
/** Logistic sigmoid. */
Var sigmoid(const Var &a);
/** Hyperbolic tangent. */
Var tanhOp(const Var &a);
/** Elementwise natural exponential. */
Var expOp(const Var &a);
/** Elementwise natural log of max(x, eps). */
Var logOp(const Var &a, double eps = 1e-12);
/** Elementwise 10^x (the unscaling of paper Eq. 2). */
Var pow10(const Var &a);
/** Elementwise log10 of max(x, eps). */
Var log10Op(const Var &a, double eps = 1e-12);
/** Clamp into [lo, hi]; gradient passes only inside the range. */
Var clamp(const Var &a, double lo, double hi);

/// @}
/// @name Shape operators
/// @{

/** Concatenate two tensors with equal row counts along columns. */
Var concatCols(const Var &a, const Var &b);
/** Select the half-open column range [from, to). */
Var sliceCols(const Var &a, size_t from, size_t to);

/// @}
/// @name Graph (message-passing) operators
/// @{

/** Select rows by index (duplicates allowed). */
Var gatherRows(const Var &a, const std::vector<size_t> &indices);

/** Scale each row i by the constant factors[i] (e.g. 1/degree). */
Var rowScale(const Var &a, const std::vector<double> &factors);

/**
 * Sum rows into segments: out[seg[i]] += a[i].
 *
 * @param a NxC input, one row per edge/message
 * @param seg segment (destination row) per input row, < n_segments
 * @param n_segments number of output rows
 */
Var segmentSum(const Var &a, const std::vector<size_t> &seg,
               size_t n_segments);

/**
 * Max-reduce rows into segments; empty segments produce `empty_value`
 * and receive no gradient. Gradient routes to each column's argmax row.
 */
Var segmentMax(const Var &a, const std::vector<size_t> &seg,
               size_t n_segments, double empty_value = 0.0);

/// @}
/// @name Reductions
/// @{

/** Sum of all elements (1x1). */
Var sumAll(const Var &a);
/** Mean of all elements (1x1). */
Var meanAll(const Var &a);

/// @}

} // namespace sleuth::nn
