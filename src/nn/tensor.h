#pragma once

/**
 * @file
 * A dense row-major matrix of doubles — the value type of the autograd
 * engine. Vectors are represented as n x 1 or 1 x n matrices.
 */

#include <cstddef>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace sleuth::nn {

/** Dense 2-D tensor (row-major, double precision). */
class Tensor
{
  public:
    /** Empty 0x0 tensor. */
    Tensor() = default;

    /** Zero-filled tensor of the given shape. */
    Tensor(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

    /** Tensor with explicit contents (row-major). */
    Tensor(size_t rows, size_t cols, std::vector<double> data)
        : rows_(rows), cols_(cols), data_(std::move(data))
    {
        SLEUTH_ASSERT(data_.size() == rows_ * cols_, "tensor shape/data");
    }

    /** 1x1 tensor holding a scalar. */
    static Tensor scalar(double v) { return Tensor(1, 1, {v}); }

    /** Column vector from values. */
    static Tensor column(std::vector<double> values);

    /** Tensor of the given shape filled with a constant. */
    static Tensor full(size_t rows, size_t cols, double v);

    /** Gaussian-initialized tensor (mean 0, given stddev). */
    static Tensor randn(size_t rows, size_t cols, double stddev,
                        util::Rng &rng);

    /** Number of rows. */
    size_t rows() const { return rows_; }
    /** Number of columns. */
    size_t cols() const { return cols_; }
    /** Total element count. */
    size_t size() const { return data_.size(); }
    /** True when the shapes are identical. */
    bool sameShape(const Tensor &o) const
    {
        return rows_ == o.rows_ && cols_ == o.cols_;
    }

    /** Element access. */
    double &
    at(size_t r, size_t c)
    {
        SLEUTH_ASSERT(r < rows_ && c < cols_, "tensor index");
        return data_[r * cols_ + c];
    }
    /** Element access (const). */
    double
    at(size_t r, size_t c) const
    {
        SLEUTH_ASSERT(r < rows_ && c < cols_, "tensor index");
        return data_[r * cols_ + c];
    }
    /** Raw storage (row-major). */
    std::vector<double> &data() { return data_; }
    /** Raw storage (const). */
    const std::vector<double> &data() const { return data_; }

    /** The single element of a 1x1 tensor. */
    double item() const;

    /** Fill every element with a constant. */
    void fill(double v);

    /** this += other (same shape). */
    void addInPlace(const Tensor &other);

    /** this[i][j] += row[0][j] for every row i (row is 1 x cols). */
    void addRowInPlace(const Tensor &row);

    /** this *= scalar. */
    void scaleInPlace(double s);

    /** Matrix product this x other. */
    Tensor matmul(const Tensor &other) const;

    /**
     * Matrix product thisᵀ x other without materializing the
     * transpose (rank-1 row accumulation; both operands are walked
     * row-contiguously). this is k x m, other k x n, result m x n.
     */
    Tensor matmulTransposedA(const Tensor &other) const;

    /**
     * Matrix product this x otherᵀ without materializing the
     * transpose (each output element is a dot product of two
     * contiguous rows). this is m x n, other p x n, result m x p.
     */
    Tensor matmulTransposedB(const Tensor &other) const;

    /** Transpose. */
    Tensor transposed() const;

    /** Columns [from, to) as a new rows x (to - from) tensor. */
    Tensor sliceCols(size_t from, size_t to) const;

    /** Sum of all elements. */
    double sum() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace sleuth::nn
