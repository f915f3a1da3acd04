#include "perfeng/kernels/graph.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "perfeng/common/error.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/parallel/parallel_for.hpp"

namespace pe::kernels {

Graph Graph::from_edges(
    std::size_t vertices,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges) {
  PE_REQUIRE(vertices >= 1, "graph must have at least one vertex");
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Graph g;
  g.offsets_.assign(vertices + 1, 0);
  g.targets_.reserve(edges.size());
  for (const auto& [src, dst] : edges) {
    PE_REQUIRE(src < vertices && dst < vertices, "edge out of bounds");
    ++g.offsets_[src + 1];
    g.targets_.push_back(dst);
  }
  for (std::size_t v = 0; v < vertices; ++v)
    g.offsets_[v + 1] += g.offsets_[v];
  return g;
}

std::span<const std::uint32_t> Graph::neighbours(std::uint32_t v) const {
  PE_REQUIRE(v < vertices(), "vertex out of range");
  return {targets_.data() + offsets_[v],
          static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
}

std::size_t Graph::out_degree(std::uint32_t v) const {
  PE_REQUIRE(v < vertices(), "vertex out of range");
  return offsets_[v + 1] - offsets_[v];
}

Graph generate_uniform_graph(std::size_t vertices, std::size_t edges,
                             Rng& rng) {
  PE_REQUIRE(vertices >= 2, "need at least two vertices");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> list;
  list.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    list.emplace_back(
        static_cast<std::uint32_t>(rng.next_range(0, vertices - 1)),
        static_cast<std::uint32_t>(rng.next_range(0, vertices - 1)));
  }
  return Graph::from_edges(vertices, std::move(list));
}

Graph generate_powerlaw_graph(std::size_t vertices, std::size_t edges,
                              double skew, Rng& rng) {
  PE_REQUIRE(vertices >= 2, "need at least two vertices");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> list;
  list.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_range(0, vertices - 1));
    // Popular targets follow a Zipf law, scattered over the id space.
    const std::uint64_t rank = rng.next_zipf(vertices, skew);
    const auto dst = static_cast<std::uint32_t>(
        (rank * 2654435761ULL) % vertices);
    list.emplace_back(src, dst);
  }
  return Graph::from_edges(vertices, std::move(list));
}

std::vector<std::uint32_t> bfs(const Graph& g, std::uint32_t source) {
  PE_REQUIRE(source < g.vertices(), "source out of range");
  std::vector<std::uint32_t> dist(g.vertices(), UINT32_MAX);
  std::deque<std::uint32_t> frontier;
  dist[source] = 0;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const std::uint32_t v = frontier.front();
    frontier.pop_front();
    for (std::uint32_t w : g.neighbours(v)) {
      if (dist[w] == UINT32_MAX) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

namespace {

/// One synchronous PageRank iteration (push-based); returns the L1 delta.
double pagerank_iteration(const Graph& g, double d,
                          const std::vector<double>& rank,
                          std::vector<double>& next) {
  const std::size_t n = g.vertices();
  const double base = (1.0 - d) / static_cast<double>(n);

  double dangling = 0.0;
  std::fill(next.begin(), next.end(), 0.0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto out = g.neighbours(v);
    if (out.empty()) {
      dangling += rank[v];
      continue;
    }
    const double share = rank[v] / static_cast<double>(out.size());
    for (std::uint32_t w : out) next[w] += share;
  }
  const double dangling_share = dangling / static_cast<double>(n);
  double delta = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    next[v] = base + d * (next[v] + dangling_share);
    delta += std::abs(next[v] - rank[v]);
  }
  return delta;
}

}  // namespace

std::vector<double> pagerank(const Graph& g, double d, double tolerance,
                             int max_iters) {
  PE_REQUIRE(d > 0.0 && d < 1.0, "damping must be in (0,1)");
  PE_REQUIRE(tolerance > 0.0, "tolerance must be positive");
  PE_REQUIRE(max_iters >= 1, "need at least one iteration");
  const std::size_t n = g.vertices();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < max_iters; ++iter) {
    const double delta = pagerank_iteration(g, d, rank, next);
    rank.swap(next);
    if (delta < tolerance) break;
  }
  return rank;
}

std::vector<double> pagerank_parallel(const Graph& g, ThreadPool& pool,
                                      double d, double tolerance,
                                      int max_iters) {
  PE_REQUIRE(d > 0.0 && d < 1.0, "damping must be in (0,1)");
  PE_REQUIRE(tolerance > 0.0, "tolerance must be positive");
  PE_REQUIRE(max_iters >= 1, "need at least one iteration");
  const std::size_t n = g.vertices();
  const std::size_t workers = pool.size();
  const double dn = static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / dn);
  std::vector<double> next(n, 0.0);
  std::vector<std::vector<double>> privates(
      workers, std::vector<double>(n, 0.0));

  for (int iter = 0; iter < max_iters; ++iter) {
    // Push contributions into per-worker accumulators, then merge — the
    // private-table pattern shared with the parallel histogram.
    const std::size_t block = (n + workers - 1) / workers;
    std::vector<double> dangling_per_worker(workers, 0.0);
    parallel_for(pool, 0, workers, [&](std::size_t w) {
      auto& mine = privates[w];
      std::fill(mine.begin(), mine.end(), 0.0);
      double dangling = 0.0;
      const std::size_t lo = w * block;
      const std::size_t hi = std::min(n, lo + block);
      // Race-checker claims: each worker scatters into its own private
      // accumulator (distinct base per w), reads its own block of `rank`,
      // and writes one distinct slot of the dangling sums.
      access_record(mine.data(), sizeof(double), 0, n, true,
                    "pagerank.private");
      access_record(rank.data(), sizeof(double), lo, hi, false,
                    "pagerank.rank");
      access_record(dangling_per_worker.data(), sizeof(double), w, w + 1,
                    true, "pagerank.dangling");
      for (std::size_t v = lo; v < hi; ++v) {
        const auto out = g.neighbours(static_cast<std::uint32_t>(v));
        if (out.empty()) {
          dangling += rank[v];
          continue;
        }
        const double share = rank[v] / static_cast<double>(out.size());
        for (std::uint32_t t : out) mine[t] += share;
      }
      dangling_per_worker[w] = dangling;
    });

    double dangling = 0.0;
    for (double v : dangling_per_worker) dangling += v;
    const double base = (1.0 - d) / dn;
    const double dangling_share = dangling / dn;

    double delta = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      double acc = 0.0;
      for (std::size_t w = 0; w < workers; ++w) acc += privates[w][v];
      next[v] = base + d * (acc + dangling_share);
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (delta < tolerance) break;
  }
  return rank;
}

}  // namespace pe::kernels
