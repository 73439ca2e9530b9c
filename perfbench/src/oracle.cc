#include "oracle.h"

#include <algorithm>
#include <charconv>

namespace perfbench {

bool SplitRow(std::string_view row, std::vector<std::string_view>* fields) {
  fields->clear();
  if (row.size() < 2 || row.front() != '(' || row.back() != ')') return false;
  row = row.substr(1, row.size() - 2);
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (c == '(' || c == '{') ++depth;
    if (c == ')' || c == '}') --depth;
    if (depth < 0) return false;
    if (c == ',' && depth == 0) {
      fields->push_back(row.substr(start, i - start));
      start = i + 1;
      while (start < row.size() && row[start] == ' ') ++start;
    }
  }
  if (depth != 0) return false;
  fields->push_back(row.substr(start));
  return true;
}

bool ParseId(std::string_view text, std::string_view prefix, uint32_t* id) {
  if (text.size() <= prefix.size() || text.substr(0, prefix.size()) != prefix) {
    return false;
  }
  const char* begin = text.data() + prefix.size();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *id);
  return ec == std::errc() && ptr == end;
}

bool ParseIdSet(std::string_view text, std::string_view prefix,
                std::vector<uint32_t>* ids) {
  ids->clear();
  if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
    return false;
  }
  text = text.substr(1, text.size() - 2);
  while (!text.empty()) {
    size_t comma = text.find(',');
    std::string_view item = text.substr(0, comma);
    uint32_t id = 0;
    if (!ParseId(item, prefix, &id)) return false;
    ids->push_back(id);
    if (comma == std::string_view::npos) break;
    text = text.substr(comma + 1);
    while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  }
  std::sort(ids->begin(), ids->end());
  return std::adjacent_find(ids->begin(), ids->end()) == ids->end();
}

Adjacency BuildAdjacency(uint32_t nodes, const std::vector<Edge>& edges,
                         bool out) {
  Adjacency adj(nodes);
  for (const Edge& e : edges) {
    if (out) {
      adj[e.from].push_back(e.to);
    } else {
      adj[e.to].push_back(e.from);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

namespace {

// Parses rows (u, <prefix>id) whose first field must be u; the second
// fields come back sorted. False on any malformed row or wrong key.
bool SecondColumnIds(const std::vector<std::string>& rows, uint32_t u,
                     std::vector<uint32_t>* ids) {
  ids->clear();
  std::vector<std::string_view> f;
  for (const std::string& row : rows) {
    uint32_t key = 0;
    uint32_t v = 0;
    if (!SplitRow(row, &f) || f.size() != 2 || !ParseId(f[0], "u", &key) ||
        key != u || !ParseId(f[1], "u", &v)) {
      return false;
    }
    ids->push_back(v);
  }
  std::sort(ids->begin(), ids->end());
  return true;
}

}  // namespace

bool CheckReachRows(const std::vector<std::string>& rows, uint32_t users,
                    uint32_t u) {
  std::vector<uint32_t> got;
  if (!SecondColumnIds(rows, u, &got)) return false;
  const uint32_t base = ClusterBase(u);
  const uint32_t span = ClusterSpan(users, u);
  if (got.size() != span) return false;
  for (uint32_t k = 0; k < span; ++k) {
    if (got[k] != base + k) return false;
  }
  return true;
}

bool CheckFollowersRows(const std::vector<std::string>& rows, uint32_t u,
                        const Adjacency& in) {
  if (in[u].empty()) return rows.empty();
  if (rows.size() != 1) return false;
  std::vector<std::string_view> f;
  uint32_t key = 0;
  std::vector<uint32_t> got;
  return SplitRow(rows[0], &f) && f.size() == 2 && ParseId(f[0], "u", &key) &&
         key == u && ParseIdSet(f[1], "u", &got) && got == in[u];
}

bool CheckFofRows(const std::vector<std::string>& rows, uint32_t u,
                  const Adjacency& out) {
  std::vector<uint32_t> want;
  for (uint32_t y : out[u]) {
    want.insert(want.end(), out[y].begin(), out[y].end());
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  std::vector<uint32_t> got;
  return SecondColumnIds(rows, u, &got) && got == want;
}

namespace {

void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

SetModel ComputeSetModel(uint32_t users, const std::vector<Edge>& follows,
                         const Bom& bom, uint32_t big_fof_bound) {
  SetModel m;
  // follows(F, U): F follows U, so U's followers are its in-neighbours.
  m.followers = BuildAdjacency(users, follows, /*out=*/false);
  m.fof.resize(users);
  for (uint32_t u = 0; u < users; ++u) {
    for (uint32_t f1 : m.followers[u]) {
      m.fof[u].insert(m.fof[u].end(), m.followers[f1].begin(),
                      m.followers[f1].end());
    }
    SortUnique(&m.fof[u]);
    if (m.fof[u].size() >= big_fof_bound) {
      m.big_fof[u] = static_cast<uint32_t>(m.fof[u].size());
    }
  }

  // uses = transitive closure of sub; every sub edge points to a later
  // object, so a reverse sweep sees each subassembly's closure first.
  const Adjacency sub = BuildAdjacency(bom.objects, bom.sub, /*out=*/true);
  std::vector<std::vector<uint32_t>> uses(bom.objects);
  for (uint32_t o = bom.objects; o-- > 0;) {
    for (uint32_t s : sub[o]) {
      uses[o].push_back(s);
      uses[o].insert(uses[o].end(), uses[s].begin(), uses[s].end());
    }
    SortUnique(&uses[o]);
    m.uses += uses[o].size();
  }
  // part_of(P, O): O's direct parts are its in-neighbours.
  m.direct = BuildAdjacency(bom.objects, bom.part_of, /*out=*/false);
  m.partset.resize(bom.objects);
  for (uint32_t o = 0; o < bom.objects; ++o) {
    m.partset[o] = m.direct[o];
    for (uint32_t s : uses[o]) {
      m.partset[o].insert(m.partset[o].end(), m.direct[s].begin(),
                          m.direct[s].end());
    }
    SortUnique(&m.partset[o]);
    m.haspart += m.partset[o].size();
  }
  for (const Edge& e : bom.sub) {
    if (m.direct[e.from].empty() || m.partset[e.to].empty()) continue;
    std::vector<uint32_t> u = m.direct[e.from];
    u.insert(u.end(), m.partset[e.to].begin(), m.partset[e.to].end());
    SortUnique(&u);
    m.merged[e] = std::move(u);
  }
  return m;
}

}  // namespace perfbench
