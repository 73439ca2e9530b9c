// Answer oracles that never call the engine: every expected answer is
// recomputed in plain C++ from the generated edge lists (gen.h) and
// compared against what the engine returned.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gen.h"

namespace perfbench {

// ---- Rendered-row parsing (QueryServer answers) -----------------------

/// Splits a rendered tuple "(a, {b, c}, 3)" into its top-level fields
/// {"a", "{b, c}", "3"}. Returns false on malformed text.
bool SplitRow(std::string_view row, std::vector<std::string_view>* fields);

/// Parses "<prefix><digits>" into its number; false on anything else.
bool ParseId(std::string_view text, std::string_view prefix, uint32_t* id);

/// Parses a rendered set "{p1, p7}" of prefixed ids into a sorted list.
bool ParseIdSet(std::string_view text, std::string_view prefix,
                std::vector<uint32_t>* ids);

// ---- Graph views --------------------------------------------------------

/// adj[v] = sorted distinct neighbours; `out` picks the direction
/// (true: from -> to, false: to -> from).
using Adjacency = std::vector<std::vector<uint32_t>>;
Adjacency BuildAdjacency(uint32_t nodes, const std::vector<Edge>& edges,
                         bool out);

// ---- Serving-workload checks (rows as QueryServer renders them) --------

/// reach(u, X): exactly one row (u, v) per member v of u's cluster.
bool CheckReachRows(const std::vector<std::string>& rows, uint32_t users,
                    uint32_t u);

/// followers(u, S): one row (u, S) with S = u's in-neighbours, or no
/// row when u has none.
bool CheckFollowersRows(const std::vector<std::string>& rows, uint32_t u,
                        const Adjacency& in);

/// fof(u, Z) with fof(X, Z) :- follows(X, Y), follows(Y, Z): one row
/// (u, z) per distinct z two out-steps from u.
bool CheckFofRows(const std::vector<std::string>& rows, uint32_t u,
                  const Adjacency& out);

// ---- set_fixpoint model ---------------------------------------------------

/// The full model of the set_fixpoint program (set_fixpoint.cc), as
/// sorted element lists per group key. An empty list means "no group".
struct SetModel {
  std::vector<std::vector<uint32_t>> followers;  // by user
  std::vector<std::vector<uint32_t>> fof;        // by user
  std::vector<std::vector<uint32_t>> partset;    // by object
  std::vector<std::vector<uint32_t>> direct;     // by object
  std::map<Edge, std::vector<uint32_t>> merged;  // by sub(O, S) edge
  std::map<uint32_t, uint32_t> big_fof;          // user -> |fof| >= bound
  size_t uses = 0;                               // |uses| closure tuples
  size_t haspart = 0;                            // |haspart| tuples
};
SetModel ComputeSetModel(uint32_t users, const std::vector<Edge>& follows,
                         const Bom& bom, uint32_t big_fof_bound);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
