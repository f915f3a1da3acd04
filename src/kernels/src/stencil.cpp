#include "perfeng/kernels/stencil.hpp"

#include <algorithm>
#include <cmath>

#include "perfeng/common/error.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/parallel/parallel_for.hpp"

namespace pe::kernels {

Grid2D::Grid2D(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  PE_REQUIRE(rows >= 3 && cols >= 3, "grid needs an interior");
}

double Grid2D::max_abs_diff(const Grid2D& other) const {
  PE_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

namespace {

void check_shapes(const Grid2D& in, Grid2D& out) {
  PE_REQUIRE(in.rows() == out.rows() && in.cols() == out.cols(),
             "shape mismatch");
}

void copy_boundary(const Grid2D& in, Grid2D& out) {
  const std::size_t rows = in.rows(), cols = in.cols();
  for (std::size_t c = 0; c < cols; ++c) {
    out.at(0, c) = in.at(0, c);
    out.at(rows - 1, c) = in.at(rows - 1, c);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    out.at(r, 0) = in.at(r, 0);
    out.at(r, cols - 1) = in.at(r, cols - 1);
  }
}

inline double relax(const Grid2D& in, std::size_t r, std::size_t c) {
  return 0.2 * (in.at(r, c) + in.at(r - 1, c) + in.at(r + 1, c) +
                in.at(r, c - 1) + in.at(r, c + 1));
}

}  // namespace

void stencil_step_naive(const Grid2D& in, Grid2D& out) {
  check_shapes(in, out);
  copy_boundary(in, out);
  for (std::size_t r = 1; r + 1 < in.rows(); ++r)
    for (std::size_t c = 1; c + 1 < in.cols(); ++c)
      out.at(r, c) = relax(in, r, c);
}

void stencil_step_blocked(const Grid2D& in, Grid2D& out, std::size_t block) {
  check_shapes(in, out);
  PE_REQUIRE(block >= 1, "block must be positive");
  copy_boundary(in, out);
  const std::size_t rows = in.rows(), cols = in.cols();
  for (std::size_t r0 = 1; r0 + 1 < rows; r0 += block) {
    const std::size_t r1 = std::min(rows - 1, r0 + block);
    for (std::size_t c0 = 1; c0 + 1 < cols; c0 += block) {
      const std::size_t c1 = std::min(cols - 1, c0 + block);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c) out.at(r, c) = relax(in, r, c);
    }
  }
}

void stencil_step_parallel(const Grid2D& in, Grid2D& out, ThreadPool& pool) {
  check_shapes(in, out);
  copy_boundary(in, out);
  const std::size_t cols = in.cols();
  parallel_for_chunks(
      pool, 1, in.rows() - 1,
      [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
        // Row-range claims for the race checker: each chunk reads its rows
        // plus the one-row halo above and below, and writes only its own
        // rows — write claims are disjoint across chunks by construction.
        access_record(in.data().data(), sizeof(double), (lo - 1) * cols,
                      (hi + 1) * cols, false, "stencil.in");
        access_record(out.data().data(), sizeof(double), lo * cols,
                      hi * cols, true, "stencil.out");
        for (std::size_t r = lo; r < hi; ++r)
          for (std::size_t c = 1; c + 1 < cols; ++c)
            out.at(r, c) = relax(in, r, c);
      });
}

Grid2D stencil_run(Grid2D initial, int steps,
                   const std::function<void(const Grid2D&, Grid2D&)>& step) {
  PE_REQUIRE(steps >= 0, "negative step count");
  PE_REQUIRE(static_cast<bool>(step), "null step function");
  Grid2D other(initial.rows(), initial.cols());
  Grid2D* src = &initial;
  Grid2D* dst = &other;
  for (int s = 0; s < steps; ++s) {
    step(*src, *dst);
    std::swap(src, dst);
  }
  return *src;
}

double stencil_residual(const Grid2D& a, const Grid2D& b) {
  PE_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(), "shape mismatch");
  double acc = 0.0;
  for (std::size_t r = 1; r + 1 < a.rows(); ++r)
    for (std::size_t c = 1; c + 1 < a.cols(); ++c) {
      const double d = a.at(r, c) - b.at(r, c);
      acc += d * d;
    }
  return std::sqrt(acc);
}

double stencil_flops(std::size_t rows, std::size_t cols) {
  PE_REQUIRE(rows >= 3 && cols >= 3, "grid needs an interior");
  return 5.0 * static_cast<double>(rows - 2) * static_cast<double>(cols - 2);
}

}  // namespace pe::kernels
