// serve_social: read-only demand serving over a large EDB.
//
// A 32,768-user clustered social graph (~97k follows facts) is bulk
// loaded, frozen without evaluation and served by a 4-lane QueryServer:
// 80% reach(U, X) and 20% followers(U, S) with Zipf(1.0) keys. Each
// read's demand slice is one 64-user cluster, 0.2% of the EDB, so any
// per-request cost that grows with the EDB dominates; the skewed keys
// give a future answer cache something to hit. Phase 1 is an open loop
// at 10 req/s, light enough that a read seldom waits for the one before
// it, so its latency (from the due time) is the read's own cost; phase 2
// a closed loop of back-to-back 16-request batches (read throughput).
#include <memory>
#include <string>

#include "common.h"
#include "gen.h"
#include "oracle.h"

namespace perfbench {
namespace {

constexpr uint32_t kUsers = 32768;
constexpr size_t kLanes = 4;
constexpr double kOpenRate = 10;
constexpr size_t kClosedBatch = 16;
constexpr int kSetups = 7;
constexpr double kReachShare = 0.8;
constexpr double kZipfS = 1.0;
constexpr int kReplayKeys = 16;

enum Kind { kReach = 0, kFollowers = 1 };

constexpr char kRules[] =
    "reach(X, Y) :- follows(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n"
    "followers(U, <F>) :- follows(F, U).\n";

// Everything one set-up builds; the registry and server are pinned in
// place (the server holds the registry's address).
struct Stack {
  std::unique_ptr<lps::Session> session;
  std::unique_ptr<lps::serve::SnapshotRegistry> registry;
  std::unique_ptr<lps::serve::QueryServer> server;
  size_t reach = 0;
  size_t followers = 0;
};

struct SetupTimes {
  double load_ms = 0;
  double ingest_s = 0;
  double freeze_ms = 0;
  double prepare_us = 0;
};

void BuildStack(const std::string& facts, const ServeHooks& warmup,
                Stack* st, SetupTimes* t) {
  Clock::time_point a = Clock::now();
  st->session = std::make_unique<lps::Session>(lps::LanguageMode::kLDL);
  {
    Span span("Session::Load+Compile", "parse");
    MustOk(st->session->Load(kRules), "Session::Load");
    MustOk(st->session->Compile(), "Session::Compile");
  }
  Clock::time_point b = Clock::now();
  t->load_ms = MsBetween(a, b);
  {
    Span span("Session::LoadFactsParallel", "api");
    MustOk(st->session->LoadFactsParallel(facts, kLanes),
           "Session::LoadFactsParallel");
  }
  a = Clock::now();
  t->ingest_s = MsBetween(b, a) / 1e3;
  lps::serve::FreezeOptions freeze;
  freeze.evaluate = false;
  std::shared_ptr<const lps::serve::Snapshot> snap;
  {
    Span span("Session::Freeze", "serve");
    auto frozen = st->session->Freeze(freeze);
    MustOk(frozen.status(), "Session::Freeze");
    snap = std::move(frozen).value();
  }
  b = Clock::now();
  t->freeze_ms = MsBetween(a, b);
  st->registry = std::make_unique<lps::serve::SnapshotRegistry>();
  {
    Span span("SnapshotRegistry::Publish", "serve");
    st->registry->Publish(std::move(snap));
  }
  lps::serve::ServeOptions opts;
  opts.threads = kLanes;
  st->server =
      std::make_unique<lps::serve::QueryServer>(st->registry.get(), opts);
  a = Clock::now();
  {
    Span span("QueryServer::Prepare", "parse");
    auto reach = st->server->Prepare("reach(U, X)");
    MustOk(reach.status(), "QueryServer::Prepare reach");
    st->reach = *reach;
    auto followers = st->server->Prepare("followers(U, S)");
    MustOk(followers.status(), "QueryServer::Prepare followers");
    st->followers = *followers;
  }
  t->prepare_us = MsBetween(a, Clock::now()) * 1e3 / 2;
  MustHold(WarmUp(st->server.get(), kClosedBatch, warmup),
           "serve_social warm-up batch answers");
}

}  // namespace

RunResult RunServeSocial(const RunConfig& config) {
  RunResult r;
  // ---- Inputs (not timed) ----------------------------------------------
  const SocialGraph graph = MakeSocialGraph(kUsers, config.seed);
  const std::string facts = EdgeFacts("follows", "u", "u", graph.edges);
  const Adjacency in = BuildAdjacency(kUsers, graph.edges, /*out=*/false);
  const Zipf zipf(kUsers, kZipfS, config.seed ^ 0x5a17ULL);

  Stack st;
  ServeHooks hooks;
  Rng load_rng(config.seed * 0x9e3779b97f4a7c15ULL + 1);
  auto make_with = [&st, &zipf](Rng* rng) {
    ReadOp op;
    op.key = zipf.Next(rng);
    op.kind = rng->Unit() < kReachShare ? kReach : kFollowers;
    op.request.query = op.kind == kReach ? st.reach : st.followers;
    op.request.params = {{"U", UserName(op.key)}};
    return op;
  };
  hooks.make = [&] { return make_with(&load_rng); };
  hooks.check = [&in](const ReadOp& op, const lps::serve::ServeAnswer& a) {
    return op.kind == kReach ? CheckReachRows(a.rows, kUsers, op.key)
                             : CheckFollowersRows(a.rows, op.key, in);
  };
  Rng warm_rng(config.seed + 17);
  ServeHooks warmup = hooks;
  warmup.make = [&] { return make_with(&warm_rng); };

  // ---- Set-up (timed, median of kSetups) -------------------------------
  Trace().set_enabled(config.trace);
  SetupTimes times;
  const double setup_s = MedianSetupSeconds(
      kSetups,
      [&] {
        st.server.reset();
        st.registry.reset();
        st.session.reset();
      },
      [&] { BuildStack(facts, warmup, &st, &times); });
  const lps::EvalStats::IngestStats ingest =
      st.session->eval_stats().ingest;

  // ---- Timed phases ------------------------------------------------------
  // Untraced: open loop then closed loop over the whole run. Traced: the
  // same split in two - the first half untraced, the second traced - so
  // the traced run can report its own overhead.
  const double span = config.trace ? config.seconds / 2 : config.seconds;
  Trace().set_enabled(false);
  ServeLog plain;
  RunOpenLoop(st.server.get(), kOpenRate, span / 2, hooks, &r.ops, &plain);
  const double plain_qps = RunClosedLoop(st.server.get(), kClosedBatch,
                                         span / 2, hooks, &r.ops, &plain);
  const double plain_p50 = Median(plain.latency_ms);

  r.e2e.Set("setup_s", setup_s);
  r.e2e.Set("latency_p50_ms", plain_p50);

  AddLatencyNotes("read", plain.latency_ms, &r.notes);
  r.notes.push_back({"read_qps", plain_qps, "req/s"});

  const ServeLog* layer_log = &plain;
  ServeLog traced;
  if (config.trace) {
    Trace().set_enabled(true);
    const lps::serve::ServeStats before = st.server->stats();
    const double cpu0 = CpuSeconds();
    const Clock::time_point w0 = Clock::now();
    RunOpenLoop(st.server.get(), kOpenRate, span / 2, hooks, &r.ops,
                &traced);
    RunClosedLoop(st.server.get(), kClosedBatch, span / 2, hooks, &r.ops,
                  &traced);
    const double wall = MsBetween(w0, Clock::now()) / 1e3;
    r.layer.Set("proc.cpu_util", (CpuSeconds() - cpu0) / (wall * kLanes));
    FillServeLayer(traced, before, st.server->stats(), &r.layer);
    r.layer.Set("trace.overhead.latency_p50_ms",
                Median(traced.latency_ms) - plain_p50);
    layer_log = &traced;

    // Demand-path waste: replay distinct keys through the session's own
    // PreparedQuery::ExecuteDemand and read its EvalStats.
    auto q = st.session->Prepare("reach(U, X)");
    MustOk(q.status(), "Session::Prepare reach");
    double derived = 0;
    double magic = 0;
    double answers = 0;
    for (int k = 0; k < kReplayKeys; ++k) {
      const uint32_t u = static_cast<uint32_t>(
          (config.seed + static_cast<uint64_t>(k) * 2053) % kUsers);
      MustOk(q->Bind("U", st.session->store()->MakeConstant(UserName(u))),
             "PreparedQuery::Bind");
      size_t rows = 0;
      bool ok = false;
      {
        Span span_replay("PreparedQuery::ExecuteDemand", "api");
        auto cursor = q->ExecuteDemand();
        if (cursor.ok()) {
          lps::Tuple t;
          while (cursor->Next(&t)) ++rows;
          ok = rows == ClusterSpan(kUsers, u);
        }
      }
      r.ops.Attempt("demand_replay", !ok);
      const lps::EvalStats& es = st.session->eval_stats();
      derived += static_cast<double>(es.tuples_derived);
      magic += static_cast<double>(es.magic_tuples);
      answers += static_cast<double>(rows);
    }
    if (answers > 0) r.layer.Set("api.demand.tuples_per_answer",
                                 derived / answers);
    r.layer.Set("api.demand.magic_tuples", magic / kReplayKeys);
    Trace().set_enabled(false);
  }

  const double facts_per_row =
      static_cast<double>(graph.edges.size()) / Mean(layer_log->answer_rows);
  r.notes.push_back({"prop.repeat_key_share",
                     RepeatedKeyShare(layer_log->keys), "ratio"});
  r.notes.push_back({"prop.facts_per_answer_row", facts_per_row, "ratio"});
  r.notes.push_back({"edb_facts", static_cast<double>(graph.edges.size()),
                     "count"});
  r.notes.push_back({"loadgen.late_ms.max", layer_log->late.Max(), "ms"});
  r.layer.Set("prop.facts_per_answer_row", facts_per_row);
  r.layer.Set("api.ingest_s", times.ingest_s);
  r.layer.Set("api.ingest.parse_ms", ingest.parse_ms);
  r.layer.Set("api.ingest.merge_ms", ingest.merge_ms);
  r.layer.Set("parse.load_ms", times.load_ms);
  r.layer.Set("parse.prepare_us", times.prepare_us);
  r.layer.Set("serve.freeze_ms", times.freeze_ms);
  r.layer.Set("term.store_terms",
              static_cast<double>(st.session->store()->size()));
  r.e2e.Set("peak_rss_mb", PeakRssMb());
  return r;
}

}  // namespace perfbench
