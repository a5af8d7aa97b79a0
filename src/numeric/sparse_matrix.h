// Sparse matrix in triplet (assembly) and compressed-sparse-column
// (factorization) forms, templated over the scalar.
//
// MNA stamps accumulate into the triplet form; duplicate coordinates sum,
// as SPICE stamping requires.
#ifndef ACSTAB_NUMERIC_SPARSE_MATRIX_H
#define ACSTAB_NUMERIC_SPARSE_MATRIX_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "numeric/dense_matrix.h"

namespace acstab::numeric {

/// Coordinate-format accumulator for matrix assembly.
template <class T>
class triplet_matrix {
public:
    triplet_matrix() = default;
    triplet_matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }

    /// Accumulate value at (r, c); duplicates are summed on compression.
    void add(std::size_t r, std::size_t c, T value)
    {
        if (r >= rows_ || c >= cols_)
            throw numeric_error("triplet: index out of range");
        if (value == T{})
            return;
        entries_.push_back({r, c, value});
    }

    void clear_values_keep_capacity()
    {
        entries_.clear();
    }

    struct entry {
        std::size_t row;
        std::size_t col;
        T value;
    };

    [[nodiscard]] const std::vector<entry>& entries() const noexcept { return entries_; }

    [[nodiscard]] dense_matrix<T> to_dense() const
    {
        dense_matrix<T> d(rows_, cols_);
        for (const entry& e : entries_)
            d(e.row, e.col) += e.value;
        return d;
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<entry> entries_;
};

/// Compressed-sparse-column matrix with summed duplicates.
template <class T>
class csc_matrix {
public:
    csc_matrix() = default;

    explicit csc_matrix(const triplet_matrix<T>& t)
        : rows_(t.rows()), cols_(t.cols()), col_ptr_(t.cols() + 1, 0)
    {
        using entry = typename triplet_matrix<T>::entry;
        std::vector<entry> sorted(t.entries().begin(), t.entries().end());
        std::sort(sorted.begin(), sorted.end(), [](const entry& a, const entry& b) {
            return a.col != b.col ? a.col < b.col : a.row < b.row;
        });
        for (std::size_t k = 0; k < sorted.size(); ++k) {
            if (k > 0 && sorted[k].col == sorted[k - 1].col && sorted[k].row == sorted[k - 1].row) {
                values_.back() += sorted[k].value;
                continue;
            }
            row_idx_.push_back(sorted[k].row);
            values_.push_back(sorted[k].value);
            ++col_ptr_[sorted[k].col + 1];
        }
        for (std::size_t c = 0; c < cols_; ++c)
            col_ptr_[c + 1] += col_ptr_[c];
    }

    /// Assemble directly from a known sparsity pattern and aligned values
    /// (the sweep engine refills one shared pattern at every frequency).
    csc_matrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> col_ptr,
               std::vector<std::size_t> row_idx, std::vector<T> values)
        : rows_(rows), cols_(cols), col_ptr_(std::move(col_ptr)), row_idx_(std::move(row_idx)),
          values_(std::move(values))
    {
        if (col_ptr_.size() != cols_ + 1 || row_idx_.size() != values_.size()
            || col_ptr_.back() != values_.size())
            throw numeric_error("csc: inconsistent pattern arrays");
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

    [[nodiscard]] const std::vector<std::size_t>& col_ptr() const noexcept { return col_ptr_; }
    [[nodiscard]] const std::vector<std::size_t>& row_idx() const noexcept { return row_idx_; }
    [[nodiscard]] const std::vector<T>& values() const noexcept { return values_; }

    /// Mutable value storage for in-place refills of a fixed pattern.
    [[nodiscard]] std::vector<T>& values_mut() noexcept { return values_; }

    [[nodiscard]] dense_matrix<T> to_dense() const
    {
        dense_matrix<T> d(rows_, cols_);
        for (std::size_t c = 0; c < cols_; ++c)
            for (std::size_t k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k)
                d(row_idx_[k], c) += values_[k];
        return d;
    }

    [[nodiscard]] std::vector<T> multiply(const std::vector<T>& x) const
    {
        std::vector<T> y(rows_);
        multiply_into(x, y);
        return y;
    }

    /// y = A x into a caller-owned buffer (the adaptive driver's backward-
    /// error checks run one SpMV per candidate and must not allocate).
    void multiply_into(const std::vector<T>& x, std::vector<T>& y) const
    {
        if (x.size() != cols_ || y.size() != rows_)
            throw numeric_error("csc: vector length mismatch");
        multiply_into(x.data(), y.data());
    }

    /// Pointer form of the same SpMV, for callers whose vectors live in
    /// their own scratch buffers. x and y must not alias and must hold
    /// cols()/rows() elements.
    void multiply_into(const T* x, T* y) const
    {
        std::fill(y, y + rows_, T{});
        for (std::size_t c = 0; c < cols_; ++c)
            for (std::size_t k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k)
                y[row_idx_[k]] += values_[k] * x[c];
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> col_ptr_;
    std::vector<std::size_t> row_idx_;
    std::vector<T> values_;
};

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_SPARSE_MATRIX_H
