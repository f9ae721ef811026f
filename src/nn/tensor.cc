#include "tensor.h"

#include "util/simd.h"

namespace sleuth::nn {

Tensor
Tensor::column(std::vector<double> values)
{
    size_t n = values.size();
    return Tensor(n, 1, std::move(values));
}

Tensor
Tensor::full(size_t rows, size_t cols, double v)
{
    Tensor t(rows, cols);
    t.fill(v);
    return t;
}

Tensor
Tensor::randn(size_t rows, size_t cols, double stddev, util::Rng &rng)
{
    Tensor t(rows, cols);
    for (double &x : t.data_)
        x = rng.normal(0.0, stddev);
    return t;
}

double
Tensor::item() const
{
    SLEUTH_ASSERT(size() == 1, "item() on non-scalar tensor");
    return data_[0];
}

void
Tensor::fill(double v)
{
    for (double &x : data_)
        x = v;
}

void
Tensor::addInPlace(const Tensor &other)
{
    SLEUTH_ASSERT(sameShape(other), "addInPlace shape mismatch");
    simd::add(data_.data(), other.data_.data(), data_.size());
}

void
Tensor::addRowInPlace(const Tensor &row)
{
    SLEUTH_ASSERT(row.rows_ == 1 && row.cols_ == cols_,
                  "addRow expects a 1xC row vector");
    for (size_t i = 0; i < rows_; ++i)
        simd::add(data_.data() + i * cols_, row.data_.data(), cols_);
}

void
Tensor::scaleInPlace(double s)
{
    simd::scale(data_.data(), s, data_.size());
}

Tensor
Tensor::matmul(const Tensor &other) const
{
    SLEUTH_ASSERT(cols_ == other.rows_, "matmul shape mismatch: ",
                  rows_, "x", cols_, " * ", other.rows_, "x", other.cols_);
    Tensor out(rows_, other.cols_);
    for (size_t i = 0; i < rows_; ++i)
        simd::matmulRow(out.data_.data() + i * other.cols_,
                        data_.data() + i * cols_, cols_,
                        other.data_.data(), other.cols_);
    return out;
}

Tensor
Tensor::matmulTransposedA(const Tensor &other) const
{
    SLEUTH_ASSERT(rows_ == other.rows_,
                  "matmulTransposedA shape mismatch: ", rows_, "x",
                  cols_, "ᵀ * ", other.rows_, "x", other.cols_);
    Tensor out(cols_, other.cols_);
    for (size_t k = 0; k < rows_; ++k) {
        const double *arow = &data_[k * cols_];
        const double *brow = &other.data_[k * other.cols_];
        for (size_t i = 0; i < cols_; ++i) {
            double a = arow[i];
            if (a == 0.0)
                continue;
            double *orow = &out.data_[i * other.cols_];
            simd::axpy(orow, a, brow, other.cols_);
        }
    }
    return out;
}

Tensor
Tensor::matmulTransposedB(const Tensor &other) const
{
    SLEUTH_ASSERT(cols_ == other.cols_,
                  "matmulTransposedB shape mismatch: ", rows_, "x",
                  cols_, " * ", other.rows_, "x", other.cols_, "ᵀ");
    Tensor out(rows_, other.rows_);
    // Each output is a strictly sequential dot over t, so results are
    // bitwise-identical to the naive loop: dotRows4 runs four
    // independent accumulator chains (one per output column) rather
    // than reassociating within a dot.
    for (size_t i = 0; i < rows_; ++i) {
        const double *arow = &data_[i * cols_];
        double *orow = &out.data_[i * other.rows_];
        size_t j = 0;
        for (; j + 4 <= other.rows_; j += 4) {
            simd::dotRows4(arow, &other.data_[j * other.cols_],
                           &other.data_[(j + 1) * other.cols_],
                           &other.data_[(j + 2) * other.cols_],
                           &other.data_[(j + 3) * other.cols_], cols_,
                           orow + j);
        }
        for (; j < other.rows_; ++j) {
            const double *brow = &other.data_[j * other.cols_];
            double dot = 0.0;
            for (size_t t = 0; t < cols_; ++t)
                dot += arow[t] * brow[t];
            orow[j] = dot;
        }
    }
    return out;
}

Tensor
Tensor::transposed() const
{
    Tensor out(cols_, rows_);
    for (size_t i = 0; i < rows_; ++i)
        for (size_t j = 0; j < cols_; ++j)
            out.data_[j * rows_ + i] = data_[i * cols_ + j];
    return out;
}

Tensor
Tensor::sliceCols(size_t from, size_t to) const
{
    SLEUTH_ASSERT(from < to && to <= cols_, "sliceCols range");
    Tensor out(rows_, to - from);
    for (size_t i = 0; i < rows_; ++i)
        for (size_t j = from; j < to; ++j)
            out.data_[i * out.cols_ + (j - from)] = data_[i * cols_ + j];
    return out;
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (double x : data_)
        s += x;
    return s;
}

} // namespace sleuth::nn
