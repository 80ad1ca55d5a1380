#include "inputs.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

namespace {

// Stream ids: one per independent decision, so adding a stream never shifts
// another's draws.
constexpr std::uint64_t kKeyStream = 1;
constexpr std::uint64_t kRouteStream = 2;
constexpr std::uint64_t kConcurrentStream = 3;
constexpr std::uint64_t kZipfStream = 4;
constexpr std::uint64_t kSampleStream = 5;

std::uint32_t NextStop(Rng& rng, std::size_t nodes, std::uint32_t current) {
  std::uint32_t next = current;
  while (next == current) next = static_cast<std::uint32_t>(rng.Below(nodes));
  return next;
}

std::size_t MoversPerNode(const Geometry& g) {
  return static_cast<std::size_t>(static_cast<double>(g.objects_per_node) *
                                  g.move_fraction);
}

// First `count` entries of a seeded Fisher-Yates shuffle of `pool`.
std::vector<std::uint32_t> Pick(std::vector<std::uint32_t> pool,
                                std::size_t count, Rng& rng) {
  count = std::min(count, pool.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.Below(pool.size() - i)]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace

Movement MakeMovement(const Geometry& g, std::uint64_t seed) {
  Movement m;
  m.geometry = g;
  const std::size_t objects = g.nodes * g.objects_per_node;
  Rng key_rng = StreamOf(seed, kKeyStream);
  m.keys.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    peertrack::hash::UInt160::Words words{};
    for (auto& w : words) w = static_cast<std::uint32_t>(key_rng.Next());
    m.keys.emplace_back(words);
  }

  m.births.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    m.births.push_back({static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(i / g.objects_per_node),
                        g.start_ms});
  }

  // One route per pallet (origin node); all pallets hop at the same
  // instants, as in the paper's synchronized group movement.
  const std::size_t per_node = MoversPerNode(g);
  Rng route_rng = StreamOf(seed, kRouteStream);
  std::vector<std::vector<std::uint32_t>> routes(g.nodes);
  m.position.resize(g.nodes);
  for (std::size_t n = 0; n < g.nodes; ++n) {
    std::uint32_t at = static_cast<std::uint32_t>(n);
    for (std::size_t hop = 1; hop < g.trace_length; ++hop) {
      at = NextStop(route_rng, g.nodes, at);
      routes[n].push_back(at);
    }
    m.position[n] = at;
    for (std::size_t k = 0; k < per_node; ++k) {
      m.movers.push_back(static_cast<std::uint32_t>(n * g.objects_per_node + k));
    }
  }
  m.hops.reserve(m.movers.size() * (g.trace_length - 1));
  for (std::size_t hop = 1; hop < g.trace_length; ++hop) {
    const double at = g.start_ms + g.step_ms * static_cast<double>(hop);
    for (std::size_t n = 0; n < g.nodes; ++n) {
      for (std::size_t k = 0; k < per_node; ++k) {
        m.hops.push_back({static_cast<std::uint32_t>(n * g.objects_per_node + k),
                          routes[n][hop - 1], at});
      }
    }
  }
  return m;
}

std::vector<Capture> MakeConcurrentMoves(const Movement& m,
                                         std::size_t group_hops, double from_ms,
                                         double span_ms, std::uint64_t seed) {
  const Geometry& g = m.geometry;
  const std::size_t per_node = MoversPerNode(g);
  Rng rng = StreamOf(seed, kConcurrentStream);
  std::vector<std::uint32_t> order(g.nodes);
  std::iota(order.begin(), order.end(), 0u);
  order = Pick(std::move(order), g.nodes, rng);
  std::vector<std::uint32_t> position = m.position;
  std::vector<Capture> moves;
  moves.reserve(group_hops * per_node);
  for (std::size_t k = 0; k < group_hops; ++k) {
    const std::uint32_t pallet = order[k % g.nodes];
    position[pallet] = NextStop(rng, g.nodes, position[pallet]);
    const double at = from_ms + span_ms * (static_cast<double>(k) + 0.5) /
                                    static_cast<double>(group_hops);
    for (std::size_t j = 0; j < per_node; ++j) {
      moves.push_back(
          {static_cast<std::uint32_t>(pallet * g.objects_per_node + j),
           position[pallet], at});
    }
  }
  return moves;
}

ZipfTargets::ZipfTargets(std::size_t objects, std::uint64_t seed) {
  Rng rng = StreamOf(seed, kZipfStream);
  permutation_.resize(objects);
  std::iota(permutation_.begin(), permutation_.end(), 0u);
  permutation_ = Pick(std::move(permutation_), objects, rng);
  cdf_.resize(objects);
  double sum = 0.0;
  for (std::size_t r = 0; r < objects; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::uint32_t ZipfTargets::Draw(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return permutation_[rank];
}

std::vector<std::uint32_t> CheckSample(const Movement& m, std::size_t count,
                                       std::uint64_t seed) {
  Rng rng = StreamOf(seed, kSampleStream);
  std::vector<std::uint32_t> sample = Pick(m.movers, count / 2, rng);
  std::vector<std::uint32_t> all(m.keys.size());
  std::iota(all.begin(), all.end(), 0u);
  const std::vector<std::uint32_t> rest = Pick(std::move(all), count - sample.size(), rng);
  sample.insert(sample.end(), rest.begin(), rest.end());
  return sample;
}

}  // namespace perfbench
