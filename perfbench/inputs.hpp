#pragma once
// Benchmark inputs, generated from the benchmark's own seed.
//
// Everything the program under test receives is decided here: object keys,
// who is born where, the movers' routes and timetables, and the query
// streams. The generator is the benchmark's own SplitMix64 stream, not the
// library's util::Rng, so a change to the library cannot change the inputs
// it is measured on.

#include <cstdint>
#include <vector>

#include "hash/uint160.hpp"

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is below 2^-40 for every n used here.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of the run seed.
inline Rng StreamOf(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return Rng(mix.Next());
}

struct Capture {
  std::uint32_t object = 0;  ///< Index into Movement::keys.
  std::uint32_t node = 0;
  double at = 0.0;           ///< Simulated ms.
};

/// Section V group movement: every node holds `objects_per_node` objects;
/// the first `move_fraction` of each node's objects travel together (a
/// pallet) along one `trace_length`-node route, dwelling `step_ms` per
/// visit.
struct Geometry {
  std::size_t nodes = 256;
  std::size_t objects_per_node = 2000;
  double move_fraction = 0.10;
  std::size_t trace_length = 10;
  double step_ms = 4000.0;
  double start_ms = 10.0;
};

struct Movement {
  Geometry geometry;
  std::vector<peertrack::hash::UInt160> keys;
  std::vector<Capture> births;         ///< Standing inventory, all at start_ms.
  std::vector<Capture> hops;           ///< Movers' visits 2..trace_length, by time.
  std::vector<std::uint32_t> movers;   ///< Object indices that move.
  std::vector<std::uint32_t> position; ///< Each pallet's node after `hops`.
};

Movement MakeMovement(const Geometry& geometry, std::uint64_t seed);

/// Extra pallet moves for the query_mix phase: `group_hops` pallet moves,
/// round-robin over a seeded pallet order, evenly spaced over
/// [from_ms, from_ms + span_ms). Each moves every mover of the pallet.
std::vector<Capture> MakeConcurrentMoves(const Movement& movement,
                                         std::size_t group_hops, double from_ms,
                                         double span_ms, std::uint64_t seed);

/// Zipf(1) popularity over a seeded permutation of the objects.
class ZipfTargets {
 public:
  ZipfTargets(std::size_t objects, std::uint64_t seed);
  std::uint32_t Draw(Rng& rng) const;

 private:
  std::vector<std::uint32_t> permutation_;
  std::vector<double> cdf_;
};

/// Seeded sample of `count` objects for the post-phase oracle check: half
/// movers (long IOP chains), half drawn from every object.
std::vector<std::uint32_t> CheckSample(const Movement& movement,
                                       std::size_t count, std::uint64_t seed);

}  // namespace perfbench
