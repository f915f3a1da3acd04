#include "perfeng/kernels/transpose.hpp"

#include <algorithm>

#include "perfeng/common/error.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/parallel/parallel_for.hpp"

namespace pe::kernels {

namespace {

void check_shapes(const Matrix& in, const Matrix& out) {
  PE_REQUIRE(in.rows() == out.cols() && in.cols() == out.rows(),
             "output must have transposed shape");
}

}  // namespace

void transpose_naive(const Matrix& in, Matrix& out) {
  check_shapes(in, out);
  for (std::size_t r = 0; r < in.rows(); ++r)
    for (std::size_t c = 0; c < in.cols(); ++c) out(c, r) = in(r, c);
}

void transpose_blocked(const Matrix& in, Matrix& out, std::size_t block) {
  check_shapes(in, out);
  PE_REQUIRE(block >= 1, "block must be positive");
  for (std::size_t r0 = 0; r0 < in.rows(); r0 += block) {
    const std::size_t r1 = std::min(in.rows(), r0 + block);
    for (std::size_t c0 = 0; c0 < in.cols(); c0 += block) {
      const std::size_t c1 = std::min(in.cols(), c0 + block);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c) out(c, r) = in(r, c);
    }
  }
}

void transpose_parallel(const Matrix& in, Matrix& out, ThreadPool& pool,
                        std::size_t block) {
  check_shapes(in, out);
  PE_REQUIRE(block >= 1, "block must be positive");
  const std::size_t rows = in.rows(), cols = in.cols();
  parallel_for_chunks(
      pool, 0, cols,
      [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
        // Each chunk owns output rows [lo, hi): a contiguous slab of
        // `out`, a column stripe of `in` (reads may overlap freely).
        access_record(in.data(), sizeof(double), 0, rows * cols, false,
                      "transpose.in");
        access_record(out.data(), sizeof(double), lo * rows, hi * rows,
                      true, "transpose.out");
        for (std::size_t r0 = 0; r0 < rows; r0 += block) {
          const std::size_t r1 = std::min(rows, r0 + block);
          for (std::size_t c0 = lo; c0 < hi; c0 += block) {
            const std::size_t c1 = std::min(hi, c0 + block);
            for (std::size_t r = r0; r < r1; ++r)
              for (std::size_t c = c0; c < c1; ++c) out(c, r) = in(r, c);
          }
        }
      });
}

void transpose_inplace(Matrix& m) {
  PE_REQUIRE(m.rows() == m.cols(), "in-place transpose needs a square");
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = r + 1; c < m.cols(); ++c)
      std::swap(m(r, c), m(c, r));
}

void trace_transpose(pe::sim::CacheHierarchy& hierarchy, std::size_t rows,
                     std::size_t cols, std::size_t block) {
  PE_REQUIRE(rows >= 1 && cols >= 1, "matrix must be non-empty");
  using pe::sim::AccessType;
  const std::uint64_t elem = sizeof(double);
  const std::uint64_t in_base = 0;
  const std::uint64_t out_base = in_base + rows * cols * elem;
  auto in_addr = [&](std::size_t r, std::size_t c) {
    return in_base + (r * cols + c) * elem;
  };
  auto out_addr = [&](std::size_t r, std::size_t c) {
    return out_base + (c * rows + r) * elem;
  };

  const std::size_t rb = block == 0 ? rows : block;
  const std::size_t cb = block == 0 ? cols : block;
  for (std::size_t r0 = 0; r0 < rows; r0 += rb) {
    const std::size_t r1 = std::min(rows, r0 + rb);
    for (std::size_t c0 = 0; c0 < cols; c0 += cb) {
      const std::size_t c1 = std::min(cols, c0 + cb);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) {
          hierarchy.access(in_addr(r, c), elem, AccessType::kRead);
          hierarchy.access(out_addr(r, c), elem, AccessType::kWrite);
        }
      }
    }
  }
}

double transpose_min_bytes(std::size_t rows, std::size_t cols) {
  PE_REQUIRE(rows >= 1 && cols >= 1, "matrix must be non-empty");
  return 2.0 * static_cast<double>(rows) * static_cast<double>(cols) *
         sizeof(double);
}

}  // namespace pe::kernels
