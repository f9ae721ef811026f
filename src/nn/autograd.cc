#include "autograd.h"

#include <cmath>
#include <unordered_set>

namespace sleuth::nn {

namespace {

constexpr double kLn10 = 2.302585092994046;

bool
anyRequiresGrad(const std::vector<Var> &parents)
{
    for (const Var &p : parents)
        if (p && p->requiresGrad())
            return true;
    return false;
}

} // namespace

Var
makeNode(Tensor value, bool requires_grad, std::vector<Var> parents,
         std::function<void(Node &)> backward)
{
    auto n = std::make_shared<Node>();
    n->value_ = std::move(value);
    n->requires_grad_ = requires_grad;
    n->parents_ = std::move(parents);
    n->backward_ = std::move(backward);
    return n;
}

Var
constant(Tensor value)
{
    return makeNode(std::move(value), false, {}, nullptr);
}

Var
param(Tensor value)
{
    return makeNode(std::move(value), true, {}, nullptr);
}

void
backward(const Var &root)
{
    SLEUTH_ASSERT(root, "backward on null var");
    SLEUTH_ASSERT(root->value().size() == 1, "backward needs a scalar root");

    // Iterative DFS to produce a topological order (children after all
    // the nodes that depend on them when the order is reversed).
    std::vector<Node *> topo;
    std::vector<std::pair<Node *, size_t>> stack;
    std::unordered_set<Node *> visited, done;
    stack.emplace_back(root.get(), 0);
    visited.insert(root.get());
    while (!stack.empty()) {
        auto &[node, next_child] = stack.back();
        if (next_child < node->parents_.size()) {
            Node *p = node->parents_[next_child++].get();
            if (p && !visited.count(p)) {
                visited.insert(p);
                stack.emplace_back(p, 0);
            }
        } else {
            topo.push_back(node);
            stack.pop_back();
        }
    }

    for (Node *n : topo)
        GradAccess::grad(*n).fill(0.0);
    GradAccess::grad(*root).fill(1.0);

    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        Node *n = *it;
        if (n->backward_ && n->requires_grad_)
            n->backward_(*n);
    }
    (void)done;
}

Var
add(const Var &a, const Var &b)
{
    SLEUTH_ASSERT(a->value().sameShape(b->value()), "add shape mismatch");
    Tensor out = a->value();
    out.addInPlace(b->value());
    return makeNode(std::move(out), anyRequiresGrad({a, b}), {a, b},
                    [a, b](Node &self) {
        const Tensor &g = self.grad();
        if (a->requiresGrad())
            GradAccess::grad(*a).addInPlace(g);
        if (b->requiresGrad())
            GradAccess::grad(*b).addInPlace(g);
    });
}

Var
sub(const Var &a, const Var &b)
{
    SLEUTH_ASSERT(a->value().sameShape(b->value()), "sub shape mismatch");
    Tensor out = a->value();
    for (size_t i = 0; i < out.size(); ++i)
        out.data()[i] -= b->value().data()[i];
    return makeNode(std::move(out), anyRequiresGrad({a, b}), {a, b},
                    [a, b](Node &self) {
        const Tensor &g = self.grad();
        if (a->requiresGrad())
            GradAccess::grad(*a).addInPlace(g);
        if (b->requiresGrad()) {
            Tensor &gb = GradAccess::grad(*b);
            for (size_t i = 0; i < gb.size(); ++i)
                gb.data()[i] -= g.data()[i];
        }
    });
}

Var
mul(const Var &a, const Var &b)
{
    SLEUTH_ASSERT(a->value().sameShape(b->value()), "mul shape mismatch");
    Tensor out = a->value();
    for (size_t i = 0; i < out.size(); ++i)
        out.data()[i] *= b->value().data()[i];
    return makeNode(std::move(out), anyRequiresGrad({a, b}), {a, b},
                    [a, b](Node &self) {
        const Tensor &g = self.grad();
        if (a->requiresGrad()) {
            Tensor &ga = GradAccess::grad(*a);
            for (size_t i = 0; i < ga.size(); ++i)
                ga.data()[i] += g.data()[i] * b->value().data()[i];
        }
        if (b->requiresGrad()) {
            Tensor &gb = GradAccess::grad(*b);
            for (size_t i = 0; i < gb.size(); ++i)
                gb.data()[i] += g.data()[i] * a->value().data()[i];
        }
    });
}

Var
addRow(const Var &a, const Var &row)
{
    Tensor out = a->value();
    out.addRowInPlace(row->value());
    return makeNode(std::move(out), anyRequiresGrad({a, row}), {a, row},
                    [a, row](Node &self) {
        const Tensor &g = self.grad();
        if (a->requiresGrad())
            GradAccess::grad(*a).addInPlace(g);
        if (row->requiresGrad()) {
            Tensor &gr = GradAccess::grad(*row);
            for (size_t i = 0; i < g.rows(); ++i)
                for (size_t j = 0; j < g.cols(); ++j)
                    gr.at(0, j) += g.at(i, j);
        }
    });
}

Var
scale(const Var &a, double s)
{
    Tensor out = a->value();
    out.scaleInPlace(s);
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a, s](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t i = 0; i < ga.size(); ++i)
            ga.data()[i] += g.data()[i] * s;
    });
}

Var
addScalar(const Var &a, double s)
{
    Tensor out = a->value();
    for (double &x : out.data())
        x += s;
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a](Node &self) {
        if (a->requiresGrad())
            GradAccess::grad(*a).addInPlace(self.grad());
    });
}

Var
matmul(const Var &a, const Var &b)
{
    Tensor out = a->value().matmul(b->value());
    return makeNode(std::move(out), anyRequiresGrad({a, b}), {a, b},
                    [a, b](Node &self) {
        const Tensor &g = self.grad();
        // Transpose-free kernels: gA = g·Bᵀ and gB = Aᵀ·g without
        // materializing either transposed operand.
        if (a->requiresGrad())
            GradAccess::grad(*a).addInPlace(
                g.matmulTransposedB(b->value()));
        if (b->requiresGrad())
            GradAccess::grad(*b).addInPlace(
                a->value().matmulTransposedA(g));
    });
}

Var
maxElem(const Var &a, const Var &b)
{
    SLEUTH_ASSERT(a->value().sameShape(b->value()), "maxElem shape");
    Tensor out = a->value();
    std::vector<char> a_wins(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
        double bv = b->value().data()[i];
        if (out.data()[i] >= bv) {
            a_wins[i] = 1;
        } else {
            out.data()[i] = bv;
            a_wins[i] = 0;
        }
    }
    return makeNode(std::move(out), anyRequiresGrad({a, b}), {a, b},
                    [a, b, a_wins = std::move(a_wins)](Node &self) {
        const Tensor &g = self.grad();
        for (size_t i = 0; i < g.size(); ++i) {
            if (a_wins[i]) {
                if (a->requiresGrad())
                    GradAccess::grad(*a).data()[i] += g.data()[i];
            } else if (b->requiresGrad()) {
                GradAccess::grad(*b).data()[i] += g.data()[i];
            }
        }
    });
}

namespace {

/** Shared scaffolding for unary elementwise ops with dy/dx = f(x, y). */
template <typename Fwd, typename Bwd>
Var
unaryOp(const Var &a, Fwd fwd, Bwd dydx)
{
    Tensor out = a->value();
    for (double &x : out.data())
        x = fwd(x);
    Tensor saved = out;
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a, saved = std::move(saved), dydx](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t i = 0; i < ga.size(); ++i)
            ga.data()[i] +=
                g.data()[i] * dydx(a->value().data()[i], saved.data()[i]);
    });
}

} // namespace

Var
relu(const Var &a)
{
    return unaryOp(
        a, [](double x) { return reluValue(x); },
        [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var
sigmoid(const Var &a)
{
    return unaryOp(
        a, [](double x) { return sigmoidValue(x); },
        [](double, double y) { return y * (1.0 - y); });
}

Var
tanhOp(const Var &a)
{
    return unaryOp(
        a, [](double x) { return tanhValue(x); },
        [](double, double y) { return 1.0 - y * y; });
}

Var
expOp(const Var &a)
{
    return unaryOp(
        a, [](double x) { return std::exp(x); },
        [](double, double y) { return y; });
}

Var
logOp(const Var &a, double eps)
{
    return unaryOp(
        a, [eps](double x) { return std::log(x > eps ? x : eps); },
        [eps](double x, double) { return x > eps ? 1.0 / x : 0.0; });
}

Var
pow10(const Var &a)
{
    return unaryOp(
        a, [](double x) { return std::pow(10.0, x); },
        [](double, double y) { return y * kLn10; });
}

Var
log10Op(const Var &a, double eps)
{
    return unaryOp(
        a, [eps](double x) { return std::log10(x > eps ? x : eps); },
        [eps](double x, double) {
            return x > eps ? 1.0 / (x * kLn10) : 0.0;
        });
}

Var
clamp(const Var &a, double lo, double hi)
{
    SLEUTH_ASSERT(lo <= hi, "clamp bounds");
    return unaryOp(
        a,
        [lo, hi](double x) { return x < lo ? lo : (x > hi ? hi : x); },
        [lo, hi](double x, double) {
            return (x >= lo && x <= hi) ? 1.0 : 0.0;
        });
}

Var
concatCols(const Var &a, const Var &b)
{
    const Tensor &av = a->value();
    const Tensor &bv = b->value();
    SLEUTH_ASSERT(av.rows() == bv.rows(), "concatCols row mismatch");
    Tensor out(av.rows(), av.cols() + bv.cols());
    for (size_t i = 0; i < av.rows(); ++i) {
        for (size_t j = 0; j < av.cols(); ++j)
            out.at(i, j) = av.at(i, j);
        for (size_t j = 0; j < bv.cols(); ++j)
            out.at(i, av.cols() + j) = bv.at(i, j);
    }
    size_t a_cols = av.cols();
    return makeNode(std::move(out), anyRequiresGrad({a, b}), {a, b},
                    [a, b, a_cols](Node &self) {
        const Tensor &g = self.grad();
        if (a->requiresGrad()) {
            Tensor &ga = GradAccess::grad(*a);
            for (size_t i = 0; i < ga.rows(); ++i)
                for (size_t j = 0; j < a_cols; ++j)
                    ga.at(i, j) += g.at(i, j);
        }
        if (b->requiresGrad()) {
            Tensor &gb = GradAccess::grad(*b);
            for (size_t i = 0; i < gb.rows(); ++i)
                for (size_t j = 0; j < gb.cols(); ++j)
                    gb.at(i, j) += g.at(i, a_cols + j);
        }
    });
}

Var
sliceCols(const Var &a, size_t from, size_t to)
{
    return makeNode(a->value().sliceCols(from, to), a->requiresGrad(), {a},
                    [a, from](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t i = 0; i < g.rows(); ++i)
            for (size_t j = 0; j < g.cols(); ++j)
                ga.at(i, from + j) += g.at(i, j);
    });
}

Var
gatherRows(const Var &a, const std::vector<size_t> &indices)
{
    const Tensor &av = a->value();
    Tensor out(indices.size(), av.cols());
    for (size_t i = 0; i < indices.size(); ++i) {
        SLEUTH_ASSERT(indices[i] < av.rows(), "gatherRows index");
        for (size_t j = 0; j < av.cols(); ++j)
            out.at(i, j) = av.at(indices[i], j);
    }
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a, indices](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t i = 0; i < indices.size(); ++i)
            for (size_t j = 0; j < g.cols(); ++j)
                ga.at(indices[i], j) += g.at(i, j);
    });
}

Var
rowScale(const Var &a, const std::vector<double> &factors)
{
    const Tensor &av = a->value();
    SLEUTH_ASSERT(factors.size() == av.rows(), "rowScale factor count");
    Tensor out = av;
    for (size_t i = 0; i < av.rows(); ++i)
        for (size_t j = 0; j < av.cols(); ++j)
            out.at(i, j) *= factors[i];
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a, factors](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t i = 0; i < g.rows(); ++i)
            for (size_t j = 0; j < g.cols(); ++j)
                ga.at(i, j) += g.at(i, j) * factors[i];
    });
}

Var
segmentSum(const Var &a, const std::vector<size_t> &seg, size_t n_segments)
{
    const Tensor &av = a->value();
    SLEUTH_ASSERT(seg.size() == av.rows(), "segmentSum segment count");
    Tensor out(n_segments, av.cols());
    for (size_t i = 0; i < seg.size(); ++i) {
        SLEUTH_ASSERT(seg[i] < n_segments, "segmentSum segment index");
        for (size_t j = 0; j < av.cols(); ++j)
            out.at(seg[i], j) += av.at(i, j);
    }
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a, seg](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t i = 0; i < seg.size(); ++i)
            for (size_t j = 0; j < g.cols(); ++j)
                ga.at(i, j) += g.at(seg[i], j);
    });
}

Var
segmentMax(const Var &a, const std::vector<size_t> &seg, size_t n_segments,
           double empty_value)
{
    const Tensor &av = a->value();
    SLEUTH_ASSERT(seg.size() == av.rows(), "segmentMax segment count");
    Tensor out = Tensor::full(n_segments, av.cols(), empty_value);
    // argmax[s * cols + j] = input row winning segment s, column j.
    std::vector<ptrdiff_t> argmax(n_segments * av.cols(), -1);
    for (size_t i = 0; i < seg.size(); ++i) {
        SLEUTH_ASSERT(seg[i] < n_segments, "segmentMax segment index");
        for (size_t j = 0; j < av.cols(); ++j) {
            ptrdiff_t &win = argmax[seg[i] * av.cols() + j];
            if (win < 0 || av.at(i, j) > out.at(seg[i], j)) {
                out.at(seg[i], j) = av.at(i, j);
                win = static_cast<ptrdiff_t>(i);
            }
        }
    }
    size_t cols = av.cols();
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a, argmax = std::move(argmax), cols](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        const Tensor &g = self.grad();
        for (size_t s = 0; s < g.rows(); ++s) {
            for (size_t j = 0; j < cols; ++j) {
                ptrdiff_t win = argmax[s * cols + j];
                if (win >= 0)
                    ga.at(static_cast<size_t>(win), j) += g.at(s, j);
            }
        }
    });
}

Var
sumAll(const Var &a)
{
    Tensor out = Tensor::scalar(a->value().sum());
    return makeNode(std::move(out), a->requiresGrad(), {a},
                    [a](Node &self) {
        if (!a->requiresGrad())
            return;
        Tensor &ga = GradAccess::grad(*a);
        double g = self.grad().item();
        for (double &x : ga.data())
            x += g;
    });
}

Var
meanAll(const Var &a)
{
    size_t n = a->value().size();
    SLEUTH_ASSERT(n > 0, "meanAll of empty tensor");
    return scale(sumAll(a), 1.0 / static_cast<double>(n));
}

} // namespace sleuth::nn
