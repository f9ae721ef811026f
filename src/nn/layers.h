#pragma once

/**
 * @file
 * Neural-network building blocks on top of the autograd engine: linear
 * layers and multi-layer perceptrons with Xavier initialization.
 */

#include <string>
#include <vector>

#include "nn/autograd.h"
#include "util/json.h"
#include "util/rng.h"

namespace sleuth::nn {

/** Supported hidden activations. */
enum class Activation { None, Relu, Sigmoid, Tanh };

/** Fully connected layer: y = x W + b. */
class Linear
{
  public:
    /** Xavier-initialized layer of the given shape. */
    Linear(size_t in, size_t out, util::Rng &rng);

    /** Forward pass: x is Nxin, the result is Nxout. */
    Var forward(const Var &x) const;

    /** forward() without the autograd tape, bitwise equal to it. */
    Tensor infer(const Tensor &x) const;

    /** Trainable parameters (weight then bias). */
    std::vector<Var> parameters() const { return {weight_, bias_}; }

    /** Input width. */
    size_t inFeatures() const { return weight_->value().rows(); }
    /** Output width. */
    size_t outFeatures() const { return weight_->value().cols(); }

  private:
    Var weight_;  ///< in x out
    Var bias_;    ///< 1 x out
};

/** A multi-layer perceptron with a fixed hidden activation. */
class Mlp
{
  public:
    /**
     * Build an MLP from layer widths.
     *
     * @param widths at least {in, out}; intermediate entries are hidden
     * @param hidden activation between layers (not applied after last)
     * @param rng initialization randomness
     */
    Mlp(const std::vector<size_t> &widths, Activation hidden,
        util::Rng &rng);

    /** Forward pass over a batch of rows. */
    Var forward(Var x) const;

    /**
     * Inference without the autograd tape: the same kernels in the same
     * order as forward(), so infer(x) equals
     * forward(constant(x))->value() bit for bit.
     */
    Tensor infer(Tensor x) const;

    /** All trainable parameters, in layer order. */
    std::vector<Var> parameters() const;

    /** Total scalar parameter count. */
    size_t parameterCount() const;

    /** Input width. */
    size_t inFeatures() const { return layers_.front().inFeatures(); }
    /** Output width. */
    size_t outFeatures() const { return layers_.back().outFeatures(); }

  private:
    std::vector<Linear> layers_;
    Activation hidden_;
};

/** Apply an activation to a Var. */
Var activate(const Var &x, Activation act);

/** Serialize a parameter list to a JSON array of {rows, cols, data}. */
util::Json parametersToJson(const std::vector<Var> &params);

/**
 * Load parameter values in place from untrusted JSON in
 * parametersToJson()'s shape, checking the tensor count, shapes and
 * element kinds. A defect returns false with *error naming its path,
 * e.g. "[3].data[7]: expected a number" (params are partly loaded).
 */
bool tryParametersFromJson(const util::Json &doc,
                           const std::vector<Var> &params,
                           std::string *error);

/** tryParametersFromJson for trusted JSON: a defect is fatal. */
void parametersFromJson(const util::Json &doc,
                        const std::vector<Var> &params);

} // namespace sleuth::nn
