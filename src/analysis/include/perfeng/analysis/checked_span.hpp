#pragma once

/// \file checked_span.hpp
/// Shadow-access span for student kernels: records every element read and
/// write through `pe::access_record` (no-op, one atomic load and a branch,
/// when no checker is installed), so wrapping a loop body's arrays in
/// `checked_span` is all it takes to race-lint a hand-written kernel:
///
///     pe::analysis::checked_span<double> y(out.data(), out.size(), "y");
///     pe::parallel_for(pool, 0, n, [&](std::size_t i) { y[i] = f(i); });
///
/// Consecutive accesses coalesce inside the checker, so sequential sweeps
/// cost one interval per chunk. Bounds are checked with PE_ASSERT; the
/// span captures its construction site so conflicts point at the wrapping
/// line, not at this header.

#include <cstddef>
#include <source_location>
#include <type_traits>

#include "perfeng/common/error.hpp"
#include "perfeng/common/trace_hook.hpp"

namespace pe::analysis {

/// Non-owning view of `size` elements at `data`, announcing accesses to
/// the installed race checker. Use `checked_span<const T>` for read-only
/// operands.
template <typename T>
class checked_span {
 public:
  using value_type = std::remove_const_t<T>;

  checked_span(T* data, std::size_t size, const char* tag,
               std::source_location loc = std::source_location::current())
      : data_(data), size_(size), tag_(tag), loc_(loc) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  /// Read element `i`, recording the access.
  [[nodiscard]] value_type read(std::size_t i) const {
    note(i, i + 1, false);
    return data_[i];
  }

  /// Write element `i`, recording the access.
  void write(std::size_t i, value_type v) const
    requires(!std::is_const_v<T>)
  {
    note(i, i + 1, true);
    data_[i] = v;
  }

  /// Announce a range access without touching the data — for bodies that
  /// hand a whole sub-range to uninstrumented code (memcpy, BLAS, ...).
  void note(std::size_t lo, std::size_t hi, bool is_write) const {
    PE_ASSERT(lo <= hi && hi <= size_, "checked_span range out of bounds");
    ::pe::access_record(data_, sizeof(value_type), lo, hi, is_write, tag_,
                        loc_);
  }

  /// Element proxy: reads record on conversion, writes on assignment, and
  /// compound updates record both sides.
  class reference {
   public:
    operator value_type() const {  // NOLINT(google-explicit-constructor)
      return span_->read(i_);
    }
    reference& operator=(value_type v)
      requires(!std::is_const_v<T>)
    {
      span_->write(i_, v);
      return *this;
    }
    reference& operator+=(value_type v)
      requires(!std::is_const_v<T>)
    {
      span_->write(i_, span_->read(i_) + v);
      return *this;
    }
    reference& operator-=(value_type v)
      requires(!std::is_const_v<T>)
    {
      span_->write(i_, span_->read(i_) - v);
      return *this;
    }

   private:
    friend class checked_span;
    reference(const checked_span* span, std::size_t i)
        : span_(span), i_(i) {}
    const checked_span* span_;
    std::size_t i_;
  };

  [[nodiscard]] reference operator[](std::size_t i) const {
    PE_ASSERT(i < size_, "checked_span index out of bounds");
    return reference(this, i);
  }

 private:
  T* data_;
  std::size_t size_;
  const char* tag_;
  std::source_location loc_;
};

}  // namespace pe::analysis
