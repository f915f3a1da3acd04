#include "perfeng/kernels/histogram.hpp"

#include <atomic>
#include <numeric>

#include "perfeng/common/aligned_buffer.hpp"
#include "perfeng/common/error.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/parallel/parallel_for.hpp"

namespace pe::kernels {

std::vector<std::uint32_t> generate_uniform_indices(std::size_t count,
                                                    std::size_t bins,
                                                    Rng& rng) {
  PE_REQUIRE(bins >= 1 && bins <= UINT32_MAX, "bin count out of range");
  std::vector<std::uint32_t> out(count);
  for (auto& v : out)
    v = static_cast<std::uint32_t>(rng.next_range(0, bins - 1));
  return out;
}

std::vector<std::uint32_t> generate_zipf_indices(std::size_t count,
                                                 std::size_t bins,
                                                 double skew, Rng& rng) {
  PE_REQUIRE(bins >= 1 && bins <= UINT32_MAX, "bin count out of range");
  // Scatter popularity ranks over the table with a fixed pseudo-random
  // permutation (multiplicative hashing) so hot bins are not adjacent.
  std::vector<std::uint32_t> out(count);
  const std::uint64_t b = bins;
  for (auto& v : out) {
    const std::uint64_t rank = rng.next_zipf(b, skew);
    v = static_cast<std::uint32_t>((rank * 2654435761ULL) % b);
  }
  return out;
}

void histogram_serial(const std::vector<std::uint32_t>& indices,
                      std::vector<std::uint64_t>& counts) {
  PE_REQUIRE(!counts.empty(), "counter table must be non-empty");
  for (std::uint32_t idx : indices) {
    PE_ASSERT(idx < counts.size(), "index out of range");
    ++counts[idx];
  }
}

void histogram_parallel_atomic(const std::vector<std::uint32_t>& indices,
                               std::vector<std::uint64_t>& counts,
                               ThreadPool& pool) {
  PE_REQUIRE(!counts.empty(), "counter table must be non-empty");
  // One shared table of atomics; relaxed ordering suffices for counting.
  std::vector<std::atomic<std::uint64_t>> shared(counts.size());
  for (std::size_t bin = 0; bin < counts.size(); ++bin)
    shared[bin].store(counts[bin], std::memory_order_relaxed);

  parallel_for_chunks(
      pool, 0, indices.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
        // The shared counter table is updated atomically (outside the race
        // checker's overlap model); the index stream reads are what each
        // chunk claims.
        access_record(indices.data(), sizeof(std::uint32_t), lo, hi, false,
                      "histogram.indices");
        for (std::size_t i = lo; i < hi; ++i) {
          PE_ASSERT(indices[i] < shared.size(), "index out of range");
          shared[indices[i]].fetch_add(1, std::memory_order_relaxed);
        }
      });

  for (std::size_t bin = 0; bin < counts.size(); ++bin)
    counts[bin] = shared[bin].load(std::memory_order_relaxed);
}

void histogram_parallel_private(const std::vector<std::uint32_t>& indices,
                                std::vector<std::uint64_t>& counts,
                                ThreadPool& pool) {
  PE_REQUIRE(!counts.empty(), "counter table must be non-empty");
  const std::size_t workers = pool.size();
  if (workers == 1) {
    histogram_serial(indices, counts);
    return;
  }
  // One flat allocation of per-lane tables, each padded to a whole number
  // of cache lines: neighbouring lanes' counters never share a line, so
  // the private tables cannot false-share (the `vector<vector>` layout
  // this replaces put different workers' heap blocks wherever the
  // allocator did, including adjacent lines).
  const std::size_t bins = counts.size();
  constexpr std::size_t kPerLine = kCacheLineBytes / sizeof(std::uint64_t);
  const std::size_t stride = (bins + kPerLine - 1) / kPerLine * kPerLine;
  const std::size_t lanes = workers + 1;  // workers + submitting thread
  AlignedBuffer<std::uint64_t> privates(lanes * stride);

  parallel_for_chunks(
      pool, 0, indices.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t lane) {
        std::uint64_t* mine = privates.data() + lane * stride;
        // Lane-private tables never overlap (the point of the pattern);
        // the chunk's claim on the shared index stream is the read range.
        access_record(indices.data(), sizeof(std::uint32_t), lo, hi, false,
                      "histogram.indices");
        for (std::size_t i = lo; i < hi; ++i) {
          PE_ASSERT(indices[i] < bins, "index out of range");
          ++mine[indices[i]];
        }
      });

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::uint64_t* table = privates.data() + lane * stride;
    for (std::size_t bin = 0; bin < bins; ++bin) counts[bin] += table[bin];
  }
}

std::uint64_t histogram_total(const std::vector<std::uint64_t>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

}  // namespace pe::kernels
