// Seeded input generators for the end-to-end benchmark. Every input a
// workload feeds the engine comes from here, as plain integer edge
// lists plus their fact text, so the oracles (oracle.h) can recompute
// every answer from the same lists without touching the engine.
// Same seed, same inputs: all randomness is one splitmix64 stream.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and statistically sound for load shaping.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A directed edge between integer ids; rendered as pred(<p>from, <p>to).
struct Edge {
  uint32_t from = 0;
  uint32_t to = 0;
  bool operator==(const Edge& o) const {
    return from == o.from && to == o.to;
  }
  bool operator<(const Edge& o) const {
    return from != o.from ? from < o.from : to < o.to;
  }
};

constexpr uint32_t kClusterSize = 64;

/// The clustered social graph of the serving workloads: users in
/// clusters of kClusterSize, each user follows the next member (ring),
/// the member three ahead (skip ring) and one seeded random member of
/// its cluster. The ring keeps every cluster strongly connected, so
/// reach(u, X) is exactly u's cluster no matter which extra edges come
/// and go - the invariant the serving oracles check.
struct SocialGraph {
  uint32_t users = 0;
  /// Every distinct follows(from, to) edge, in generation order.
  std::vector<Edge> edges;
  /// The subset of `edges` that are neither ring nor skip-ring edges:
  /// the edges churn may retract without breaking strong connectivity.
  std::vector<Edge> extras;
};
SocialGraph MakeSocialGraph(uint32_t users, uint64_t seed);

/// The constant naming user u in facts and goals: "u<u>".
std::string UserName(uint32_t u);

/// First member of u's cluster and the cluster's size.
uint32_t ClusterBase(uint32_t u);
uint32_t ClusterSpan(uint32_t users, uint32_t u);
/// True for u's ring and skip-ring edges (never churned).
bool IsBackboneEdge(uint32_t users, const Edge& e);

/// `users` x `per_user` seeded random follows(F, U) edges over all
/// users, duplicates removed (the set_fixpoint EDB).
std::vector<Edge> MakeRandomFollows(uint32_t users, uint32_t per_user,
                                    uint64_t seed);

/// A bill-of-materials assembly DAG: sub(O, S) edges from every object
/// to one or two strictly later objects, and part_of(P, O) edges giving
/// each object `parts_per` direct parts out of `universe` parts.
struct Bom {
  uint32_t objects = 0;
  std::vector<Edge> sub;      // (object, subassembly)
  std::vector<Edge> part_of;  // (part, object)
};
Bom MakeBom(uint32_t objects, uint32_t parts_per, uint32_t universe,
            uint64_t seed);

/// "pred(<prefix_a><from>, <prefix_b><to>).\n" per edge.
std::string EdgeFacts(const std::string& pred, const std::string& prefix_a,
                      const std::string& prefix_b,
                      const std::vector<Edge>& edges);

/// Zipf(s) over ranks 0..n-1 mapped through a seeded permutation onto
/// key ids, so the hot keys land in different clusters.
class Zipf {
 public:
  Zipf(uint32_t n, double s, uint64_t seed);
  uint32_t Next(Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> key_of_rank_;
};

/// Share of draws whose key already occurred earlier in `keys`.
double RepeatedKeyShare(const std::vector<uint32_t>& keys);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
