// Tests for the benchmark's own helpers: the accounting rules, the
// generators' determinism per seed, each oracle on a tiny graph, and
// the tracer's self-time arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "gen.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

// ---- Accounting -----------------------------------------------------------

TEST(Percentile, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 80), 4);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(Percentile, FailedOperationsCountAsInfinitelyLate) {
  std::vector<double> v(10, 1.0);
  v.push_back(kInfinitelyLate);
  v.push_back(kInfinitelyLate);
  EXPECT_EQ(Percentile(v, 50), 1.0);
  EXPECT_TRUE(std::isinf(Percentile(v, 99)));
  EXPECT_EQ(JsonNumber(kInfinitelyLate), "1.0000000000000001e+300");
}

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
  EXPECT_EQ(TailPercentileFor(1000), 99);
  EXPECT_EQ(TailPercentileFor(999), 98);
  EXPECT_EQ(TailPercentileFor(500), 98);
  EXPECT_EQ(TailPercentileFor(400), 97.5);
  EXPECT_EQ(TailPercentileFor(100), 90);
  EXPECT_EQ(TailPercentileFor(50), 80);
  EXPECT_EQ(TailPercentileFor(5), 50);
  EXPECT_EQ(PercentileLabel(97.5), "p97.5");
  EXPECT_EQ(PercentileLabel(99), "p99");
}

TEST(OpCounts, PerOperationAndTotals) {
  OpCounts a;
  a.Attempt("read", false);
  a.Attempt("read", true);
  a.Attempt("commit", false);
  OpCounts b;
  b.Attempt("commit", true);
  a.Merge(b);
  EXPECT_EQ(a.attempted(), 4u);
  EXPECT_EQ(a.failed(), 2u);
  EXPECT_EQ(a.ops().at("commit").attempted, 2u);
  EXPECT_EQ(a.ops().at("commit").failed, 1u);
  EXPECT_EQ(a.ops().at("read").failed, 1u);
}

TEST(Lateness, MaxAndPercentile) {
  Lateness l;
  EXPECT_EQ(l.Max(), 0);
  for (int i = 1; i <= 10; ++i) l.Record(i);
  EXPECT_EQ(l.Max(), 10);
  EXPECT_EQ(l.P(90), 9);
}

TEST(MetricTable, DeclaredMetricsOnly) {
  MetricTable t = EndToEndTable();
  t.Set("setup_s", 1.5);
  EXPECT_EQ(t.metrics().front().value, 1.5);
  EXPECT_DEATH(t.Set("no_such_metric", 1), "undeclared metric");
  // BENCHMARK.json requires setup_s.
  EXPECT_EQ(t.metrics().front().name, "setup_s");
  EXPECT_EQ(t.metrics().front().unit, "s");
}

// ---- Generators -----------------------------------------------------------

TEST(Generators, SocialGraphDeterministicPerSeed) {
  const SocialGraph a = MakeSocialGraph(256, 7);
  const SocialGraph b = MakeSocialGraph(256, 7);
  const SocialGraph c = MakeSocialGraph(256, 8);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.extras, b.extras);
  EXPECT_NE(a.edges, c.edges);
  for (const Edge& e : a.edges) {
    EXPECT_EQ(ClusterBase(e.from), ClusterBase(e.to));
  }
  for (const Edge& e : a.extras) EXPECT_FALSE(IsBackboneEdge(256, e));
  // Ring and skip ring for every user.
  size_t backbone = 0;
  for (const Edge& e : a.edges) backbone += IsBackboneEdge(256, e) ? 1 : 0;
  EXPECT_EQ(backbone, 2u * 256u);
}

TEST(Generators, RandomFollowsAndBomDeterministicPerSeed) {
  EXPECT_EQ(MakeRandomFollows(100, 4, 3), MakeRandomFollows(100, 4, 3));
  EXPECT_NE(MakeRandomFollows(100, 4, 3), MakeRandomFollows(100, 4, 4));
  std::vector<Edge> f = MakeRandomFollows(100, 4, 3);
  std::sort(f.begin(), f.end());
  EXPECT_EQ(std::adjacent_find(f.begin(), f.end()), f.end());

  const Bom a = MakeBom(32, 3, 64, 5);
  const Bom b = MakeBom(32, 3, 64, 5);
  EXPECT_EQ(a.sub, b.sub);
  EXPECT_EQ(a.part_of, b.part_of);
  for (const Edge& e : a.sub) EXPECT_LT(e.from, e.to);  // a DAG
}

TEST(Generators, ZipfDeterministicAndSkewed) {
  const Zipf z(1000, 1.0, 11);
  Rng r1(5);
  Rng r2(5);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 2000; ++i) {
    const uint32_t k = z.Next(&r1);
    EXPECT_EQ(k, z.Next(&r2));
    EXPECT_LT(k, 1000u);
    keys.push_back(k);
  }
  // Zipf(1.0) over 1000 keys repeats far more than uniform would.
  EXPECT_GT(RepeatedKeyShare(keys), 0.7);
  EXPECT_DOUBLE_EQ(RepeatedKeyShare({1, 2, 1, 1}), 0.5);
  EXPECT_EQ(EdgeFacts("f", "u", "v", {{1, 2}}), "f(u1, v2).\n");
  EXPECT_EQ(UserName(7), "u7");
}

// ---- Oracles on tiny graphs -------------------------------------------------

TEST(Oracle, RowParsing) {
  std::vector<std::string_view> f;
  ASSERT_TRUE(SplitRow("(u1, {u2, u3}, 4)", &f));
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "u1");
  EXPECT_EQ(f[1], "{u2, u3}");
  EXPECT_EQ(f[2], "4");
  EXPECT_FALSE(SplitRow("u1, u2", &f));
  EXPECT_FALSE(SplitRow("(u1, {u2)", &f));
  uint32_t id = 0;
  EXPECT_TRUE(ParseId("u17", "u", &id));
  EXPECT_EQ(id, 17u);
  EXPECT_FALSE(ParseId("v17", "u", &id));
  EXPECT_FALSE(ParseId("u17x", "u", &id));
  std::vector<uint32_t> ids;
  EXPECT_TRUE(ParseIdSet("{u9, u2}", "u", &ids));
  EXPECT_EQ(ids, (std::vector<uint32_t>{2, 9}));
  EXPECT_TRUE(ParseIdSet("{}", "u", &ids));
  EXPECT_TRUE(ids.empty());
  EXPECT_FALSE(ParseIdSet("{u1, u1}", "u", &ids));
}

std::vector<std::string> Rows(uint32_t u, const std::vector<uint32_t>& vs) {
  std::vector<std::string> rows;
  for (uint32_t v : vs) {
    std::string row = "(";
    row += UserName(u);
    row += ", ";
    row += UserName(v);
    row += ")";
    rows.push_back(row);
  }
  return rows;
}

TEST(Oracle, ReachIsTheCluster) {
  // 70 users: clusters [0, 64) and [64, 70).
  std::vector<uint32_t> small = {64, 65, 66, 67, 68, 69};
  EXPECT_TRUE(CheckReachRows(Rows(66, small), 70, 66));
  std::vector<uint32_t> missing = {64, 65, 66, 67, 68};
  EXPECT_FALSE(CheckReachRows(Rows(66, missing), 70, 66));
  std::vector<uint32_t> extra = {3, 64, 65, 66, 67, 68, 69};
  EXPECT_FALSE(CheckReachRows(Rows(66, extra), 70, 66));
  EXPECT_FALSE(CheckReachRows(Rows(65, small), 70, 66));  // wrong key
}

TEST(Oracle, FollowersAreInEdges) {
  // 1 -> 0, 2 -> 0, 0 -> 1.
  const Adjacency in = BuildAdjacency(3, {{1, 0}, {2, 0}, {0, 1}}, false);
  EXPECT_TRUE(CheckFollowersRows({"(u0, {u1, u2})"}, 0, in));
  EXPECT_TRUE(CheckFollowersRows({"(u0, {u2, u1})"}, 0, in));
  EXPECT_FALSE(CheckFollowersRows({"(u0, {u1})"}, 0, in));
  EXPECT_TRUE(CheckFollowersRows({}, 2, in));  // nobody follows u2
  EXPECT_FALSE(CheckFollowersRows({"(u2, {u0})"}, 2, in));
}

TEST(Oracle, FofIsTwoSteps) {
  // 0 -> 1 -> {2, 3}, 0 -> 2 -> 3.
  const Adjacency out =
      BuildAdjacency(4, {{0, 1}, {1, 2}, {1, 3}, {0, 2}, {2, 3}}, true);
  EXPECT_TRUE(CheckFofRows(Rows(0, {2, 3}), 0, out));
  EXPECT_FALSE(CheckFofRows(Rows(0, {2}), 0, out));
  EXPECT_FALSE(CheckFofRows(Rows(0, {1, 2, 3}), 0, out));
  EXPECT_TRUE(CheckFofRows({}, 3, out));
}

TEST(Oracle, SetModelOnATinyProgram) {
  // follows(F, U): 1 and 2 follow 0, 3 follows 1, 0 follows 2.
  const std::vector<Edge> follows = {{1, 0}, {2, 0}, {3, 1}, {0, 2}};
  Bom bom;
  bom.objects = 3;
  bom.sub = {{0, 1}, {1, 2}};                       // o0 > o1 > o2
  bom.part_of = {{10, 0}, {11, 1}, {12, 2}, {11, 2}};  // (part, object)
  const SetModel m = ComputeSetModel(4, follows, bom, 2);
  EXPECT_EQ(m.followers[0], (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(m.followers[3].empty());
  // fof(0) = followers(1) u followers(2) = {3} u {0}.
  EXPECT_EQ(m.fof[0], (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(m.fof[2], (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(m.big_fof, (std::map<uint32_t, uint32_t>{{0, 2}, {2, 2}}));
  EXPECT_EQ(m.uses, 3u);  // (0,1) (0,2) (1,2)
  EXPECT_EQ(m.partset[0], (std::vector<uint32_t>{10, 11, 12}));
  EXPECT_EQ(m.partset[1], (std::vector<uint32_t>{11, 12}));
  EXPECT_EQ(m.direct[2], (std::vector<uint32_t>{11, 12}));
  EXPECT_EQ(m.haspart, 3u + 2u + 2u);
  EXPECT_EQ(m.merged.at({0, 1}), (std::vector<uint32_t>{10, 11, 12}));
  EXPECT_EQ(m.merged.at({1, 2}), (std::vector<uint32_t>{11, 12}));
  EXPECT_TRUE(m.fof[1].empty());  // u1's only follower u3 has none
  EXPECT_TRUE(m.fof[3].empty());
}

// ---- Tracing --------------------------------------------------------------

TEST(Tracer, SelfTimeExcludesChildrenAndRequests) {
  Tracer t;
  t.set_enabled(true);
  const uint32_t outer = t.Open("outer", "api");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint32_t inner = t.Open("inner", "eval");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.Close(inner);
  const Clock::time_point now = Clock::now();
  t.Request(1, outer, now - std::chrono::seconds(1), now, now);
  t.Close(outer);
  EXPECT_EQ(t.size(), 3u);
  const auto self = t.SelfMsByModule();
  EXPECT_GE(self.at("eval"), 20.0);
  EXPECT_GE(self.at("api"), 5.0);
  EXPECT_LT(self.at("api"), 20.0);  // inner's time is not api's
  EXPECT_EQ(self.count("serve"), 0u);  // the request wait is not work

  const std::string path = testing::TempDir() + "perfbench_spans.jsonl";
  ASSERT_TRUE(t.Write(path));
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
