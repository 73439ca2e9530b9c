#include "gen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_set>

namespace perfbench {

std::string UserName(uint32_t u) {
  std::string name = "u";
  name += std::to_string(u);
  return name;
}

uint32_t ClusterBase(uint32_t u) { return u - u % kClusterSize; }

uint32_t ClusterSpan(uint32_t users, uint32_t u) {
  return std::min(kClusterSize, users - ClusterBase(u));
}

bool IsBackboneEdge(uint32_t users, const Edge& e) {
  const uint32_t base = ClusterBase(e.from);
  const uint32_t span = ClusterSpan(users, e.from);
  const uint32_t k = e.from - base;
  return e.to == base + (k + 1) % span || e.to == base + (k + 3) % span;
}

SocialGraph MakeSocialGraph(uint32_t users, uint64_t seed) {
  Rng rng(seed);
  SocialGraph g;
  g.users = users;
  std::set<Edge> seen;
  auto add = [&](Edge e, bool extra) {
    if (!seen.insert(e).second) return;
    g.edges.push_back(e);
    if (extra && !IsBackboneEdge(users, e)) g.extras.push_back(e);
  };
  for (uint32_t u = 0; u < users; ++u) {
    const uint32_t base = ClusterBase(u);
    const uint32_t span = ClusterSpan(users, u);
    const uint32_t k = u - base;
    add({u, base + (k + 1) % span}, false);
    add({u, base + (k + 3) % span}, false);
    add({u, base + static_cast<uint32_t>(rng.Below(span))}, true);
  }
  return g;
}

std::vector<Edge> MakeRandomFollows(uint32_t users, uint32_t per_user,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> out;
  out.reserve(static_cast<size_t>(users) * per_user);
  for (uint32_t f = 0; f < users; ++f) {
    for (uint32_t k = 0; k < per_user; ++k) {
      out.push_back({f, static_cast<uint32_t>(rng.Below(users))});
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Shuffle so the fact text is not pre-sorted (the engine should not
  // get locality the real input would not have).
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

Bom MakeBom(uint32_t objects, uint32_t parts_per, uint32_t universe,
            uint64_t seed) {
  Rng rng(seed);
  Bom b;
  b.objects = objects;
  std::set<Edge> seen;
  for (uint32_t o = 0; o + 1 < objects; ++o) {
    const uint32_t fanout = 1 + static_cast<uint32_t>(rng.Below(2));
    for (uint32_t k = 0; k < fanout; ++k) {
      const uint32_t s =
          o + 1 + static_cast<uint32_t>(rng.Below(objects - o - 1));
      if (seen.insert({o, s}).second) b.sub.push_back({o, s});
    }
  }
  seen.clear();
  for (uint32_t o = 0; o < objects; ++o) {
    for (uint32_t k = 0; k < parts_per; ++k) {
      const Edge e{static_cast<uint32_t>(rng.Below(universe)), o};
      if (seen.insert(e).second) b.part_of.push_back(e);
    }
  }
  return b;
}

std::string EdgeFacts(const std::string& pred, const std::string& prefix_a,
                      const std::string& prefix_b,
                      const std::vector<Edge>& edges) {
  std::string out;
  out.reserve(edges.size() * (pred.size() + 24));
  for (const Edge& e : edges) {
    out += pred;
    out += '(';
    out += prefix_a;
    out += std::to_string(e.from);
    out += ", ";
    out += prefix_b;
    out += std::to_string(e.to);
    out += ").\n";
  }
  return out;
}

Zipf::Zipf(uint32_t n, double s, uint64_t seed) : cdf_(n), key_of_rank_(n) {
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(key_of_rank_.begin(), key_of_rank_.end(), 0u);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(key_of_rank_[i - 1], key_of_rank_[rng.Below(i)]);
  }
}

uint32_t Zipf::Next(Rng* rng) const {
  const double u = rng->Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  size_t rank = static_cast<size_t>(it - cdf_.begin());
  if (rank >= cdf_.size()) rank = cdf_.size() - 1;
  return key_of_rank_[rank];
}

double RepeatedKeyShare(const std::vector<uint32_t>& keys) {
  if (keys.empty()) return 0;
  std::unordered_set<uint32_t> seen;
  size_t repeats = 0;
  for (uint32_t k : keys) {
    if (!seen.insert(k).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(keys.size());
}

}  // namespace perfbench
