#include "layers.h"

#include <cmath>

namespace sleuth::nn {

namespace {

/** activate() on a Tensor's elements in place, without the tape. */
void
activateInPlace(Tensor &x, Activation act)
{
    switch (act) {
      case Activation::None: return;
      case Activation::Relu:
        for (double &v : x.data())
            v = reluValue(v);
        return;
      case Activation::Sigmoid:
        for (double &v : x.data())
            v = sigmoidValue(v);
        return;
      case Activation::Tanh:
        for (double &v : x.data())
            v = tanhValue(v);
        return;
    }
    util::panic("invalid activation");
}

} // namespace

Linear::Linear(size_t in, size_t out, util::Rng &rng)
{
    SLEUTH_ASSERT(in > 0 && out > 0, "linear layer shape");
    double stddev = std::sqrt(2.0 / static_cast<double>(in + out));
    weight_ = param(Tensor::randn(in, out, stddev, rng));
    bias_ = param(Tensor(1, out));
}

Var
Linear::forward(const Var &x) const
{
    return addRow(matmul(x, weight_), bias_);
}

Tensor
Linear::infer(const Tensor &x) const
{
    Tensor out = x.matmul(weight_->value());
    out.addRowInPlace(bias_->value());
    return out;
}

Mlp::Mlp(const std::vector<size_t> &widths, Activation hidden,
         util::Rng &rng)
    : hidden_(hidden)
{
    SLEUTH_ASSERT(widths.size() >= 2, "mlp needs at least in/out widths");
    for (size_t i = 0; i + 1 < widths.size(); ++i)
        layers_.emplace_back(widths[i], widths[i + 1], rng);
}

Var
Mlp::forward(Var x) const
{
    for (size_t i = 0; i < layers_.size(); ++i) {
        x = layers_[i].forward(x);
        if (i + 1 < layers_.size())
            x = activate(x, hidden_);
    }
    return x;
}

Tensor
Mlp::infer(Tensor x) const
{
    for (size_t i = 0; i < layers_.size(); ++i) {
        x = layers_[i].infer(x);
        if (i + 1 < layers_.size())
            activateInPlace(x, hidden_);
    }
    return x;
}

std::vector<Var>
Mlp::parameters() const
{
    std::vector<Var> out;
    for (const Linear &l : layers_)
        for (const Var &p : l.parameters())
            out.push_back(p);
    return out;
}

size_t
Mlp::parameterCount() const
{
    size_t n = 0;
    for (const Var &p : parameters())
        n += p->value().size();
    return n;
}

Var
activate(const Var &x, Activation act)
{
    switch (act) {
      case Activation::None: return x;
      case Activation::Relu: return relu(x);
      case Activation::Sigmoid: return sigmoid(x);
      case Activation::Tanh: return tanhOp(x);
    }
    util::panic("invalid activation");
}

util::Json
parametersToJson(const std::vector<Var> &params)
{
    util::Json arr = util::Json::array();
    for (const Var &p : params) {
        util::Json entry = util::Json::object();
        entry.set("rows", p->value().rows());
        entry.set("cols", p->value().cols());
        util::Json data = util::Json::array();
        for (double v : p->value().data())
            data.push(v);
        entry.set("data", std::move(data));
        arr.push(std::move(entry));
    }
    return arr;
}

bool
tryParametersFromJson(const util::Json &doc, const std::vector<Var> &params,
                      std::string *error)
{
    if (doc.type() != util::Json::Type::Array ||
        doc.asArray().size() != params.size()) {
        *error = "document: expected an array of " +
                 std::to_string(params.size()) + " tensors";
        return false;
    }
    for (size_t i = 0; i < params.size(); ++i) {
        const std::string at = '[' + std::to_string(i) + ']';
        const util::Json &entry = doc.asArray()[i];
        Tensor &value = params[i]->mutableValue();
        int64_t rows = 0;
        int64_t cols = 0;
        const util::Json::Array *data = nullptr;
        if (!util::getInt(entry, at, "rows", &rows, error) ||
            !util::getInt(entry, at, "cols", &cols, error) ||
            !util::getArray(entry, at, "data", &data, error))
            return false;
        if (rows != static_cast<int64_t>(value.rows()) ||
            cols != static_cast<int64_t>(value.cols()) ||
            data->size() != value.size()) {
            *error = at + ": expected a " + std::to_string(value.rows()) +
                     "x" + std::to_string(value.cols()) + " tensor";
            return false;
        }
        for (size_t k = 0; k < data->size(); ++k) {
            if ((*data)[k].type() != util::Json::Type::Number) {
                *error = at + ".data[" + std::to_string(k) +
                         "]: expected a number";
                return false;
            }
            value.data()[k] = (*data)[k].asNumber();
        }
    }
    return true;
}

void
parametersFromJson(const util::Json &doc, const std::vector<Var> &params)
{
    std::string error;
    if (!tryParametersFromJson(doc, params, &error))
        util::fatal("model load: ", error);
}

} // namespace sleuth::nn
