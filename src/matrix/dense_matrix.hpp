// Row-major dense matrix.  Holds the C×Q cluster deviation table (Eq. 8)
// and K-means centroids; nothing user×item is dense.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cfsf::matrix {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }

  std::span<const double> Row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> Row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }

  void Fill(double value);

  /// Frobenius norm of (this - other); dimensions must match.
  double FrobeniusDistance(const DenseMatrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace cfsf::matrix
