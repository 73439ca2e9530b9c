// churn_serve: writes beside reads.
//
// A 4,096-user clustered social graph (~12k follows facts, 64
// clusters) under rules that stay in the Horn fragment, so every
// commit is maintained incrementally (Options::incremental, DRed for
// the retracts). One writer thread commits at a fixed 25 commits/s, so
// every run makes the same number of commits. Each commit retracts the
// 4 longest-present churnable edges and re-adds the 4 longest-absent
// ones, then FreezeIncremental + Publish make it visible. The churnable
// edges are the generator's random extras plus kSpareEdges seeded
// spares, so after the first few commits every add revives a row the
// relations already hold and the physical state stays bounded.
// Meanwhile an open loop reads at 100 req/s (uniform keys, 50% reach,
// 50% fof) from a 3-lane QueryServer - writer plus 3 lanes make 4
// threads. The only workload that runs incremental maintenance,
// copy-on-write republication and worker refresh, and the same read
// path as serve_social on an 8x smaller, converged, constantly
// republished snapshot.
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common.h"
#include "gen.h"
#include "oracle.h"

namespace perfbench {
namespace {

constexpr uint32_t kUsers = 4096;
constexpr size_t kLanes = 3;
constexpr double kReadRate = 100;
constexpr double kCommitRate = 25;  // well below what one writer sustains
constexpr size_t kWarmupBatch = 16;
constexpr int kSetups = 7;
constexpr int kEdgesPerCommit = 4;  // retracted and added, each
constexpr int kSpareEdges = 64;     // churnable edges absent at the start
constexpr size_t kHistory = 64;     // published edge sets kept for checks

enum Kind { kReach = 0, kFof = 1 };

constexpr char kRules[] =
    "reach(X, Y) :- follows(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n"
    "fof(X, Z) :- follows(X, Y), follows(Y, Z).\n";

struct Stack {
  std::unique_ptr<lps::Session> session;
  std::unique_ptr<lps::serve::SnapshotRegistry> registry;
  std::unique_ptr<lps::serve::QueryServer> server;
  std::shared_ptr<const lps::serve::Snapshot> last;  // newest published
  size_t reach = 0;
  size_t fof = 0;
};

struct SetupTimes {
  double load_ms = 0;
  double ingest_s = 0;
  double evaluate_s = 0;
  double freeze_ms = 0;
  double prepare_us = 0;
  lps::EvalStats eval;
};

// Edge sets the readers may see: every published snapshot's out-edge
// adjacency by publication sequence number. The writer appends under
// the same lock as its Publish, so a reader that samples the sequence
// before a batch and again after it knows every snapshot the batch
// could have pinned.
class Published {
 public:
  void Reset(std::shared_ptr<const Adjacency> first) {
    std::lock_guard<std::mutex> lock(mu_);
    history_.clear();
    history_.push_back(std::move(first));
    seq_ = 0;
  }
  uint64_t seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }
  /// Publishes `snap` into `registry` and records `adj` as its edges,
  /// atomically with respect to seq() and Since().
  void Publish(lps::serve::SnapshotRegistry* registry,
               std::shared_ptr<const lps::serve::Snapshot> snap,
               std::shared_ptr<const Adjacency> adj) {
    std::lock_guard<std::mutex> lock(mu_);
    registry->Publish(std::move(snap));
    history_.push_back(std::move(adj));
    if (history_.size() > kHistory) history_.pop_front();
    ++seq_;
  }
  /// Edge sets published at sequence numbers >= `from`; empty when some
  /// of them already fell out of the history.
  std::vector<std::shared_ptr<const Adjacency>> Since(uint64_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t oldest = seq_ + 1 - history_.size();
    if (from < oldest) return {};
    return {history_.begin() + static_cast<long>(from - oldest),
            history_.end()};
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const Adjacency>> history_;
  uint64_t seq_ = 0;
};

// Per-commit samples the writer gathers.
struct CommitLog {
  std::vector<double> fresh_ms;   // Commit() start -> Publish returned
  std::vector<double> commit_ms;  // MutationBatch::Commit
  std::vector<double> freeze_ms;  // Session::FreezeIncremental
  std::vector<double> publish_us; // SnapshotRegistry::Publish
  double overdeleted = 0;
  double rederived = 0;
  double delta_rounds = 0;
  double relations_cloned = 0;
  double bytes_shared = 0;
  double fact_chunks_shared = 0;
};

// The writer's model of the EDB and its churn cycle. Only the writer
// thread touches it while the timed phase runs.
struct EdgeModel {
  std::set<Edge> present;
  std::deque<Edge> in;   // churnable edges present, longest-present first
  std::deque<Edge> out;  // churnable edges absent, longest-absent first

  void Reset(const SocialGraph& g, uint64_t seed) {
    present = std::set<Edge>(g.edges.begin(), g.edges.end());
    in.assign(g.extras.begin(), g.extras.end());
    out.clear();
    Rng rng(seed);
    std::set<Edge> spares;
    while (spares.size() < static_cast<size_t>(kSpareEdges)) {
      const uint32_t u = static_cast<uint32_t>(rng.Below(kUsers));
      const Edge e{u, ClusterBase(u) + static_cast<uint32_t>(rng.Below(
                                           ClusterSpan(kUsers, u)))};
      if (e.from == e.to || IsBackboneEdge(kUsers, e) || present.count(e)) {
        continue;
      }
      if (spares.insert(e).second) out.push_back(e);
    }
  }

  std::shared_ptr<const Adjacency> Adj() const {
    return std::make_shared<const Adjacency>(BuildAdjacency(
        kUsers, std::vector<Edge>(present.begin(), present.end()), true));
  }
};

void BuildStack(const std::string& facts, const ServeHooks& warmup,
                Stack* st, SetupTimes* t) {
  lps::Options opts;
  opts.incremental = true;
  Clock::time_point a = Clock::now();
  st->session = std::make_unique<lps::Session>(lps::LanguageMode::kLDL, opts);
  {
    Span span("Session::Load+Compile", "parse");
    MustOk(st->session->Load(kRules), "Session::Load");
    MustOk(st->session->Compile(), "Session::Compile");
  }
  Clock::time_point b = Clock::now();
  t->load_ms = MsBetween(a, b);
  {
    Span span("Session::LoadFactsParallel", "api");
    MustOk(st->session->LoadFactsParallel(facts, kLanes + 1),
           "Session::LoadFactsParallel");
  }
  a = Clock::now();
  t->ingest_s = MsBetween(b, a) / 1e3;
  {
    Span span("Session::Evaluate", "eval");
    MustOk(st->session->Evaluate(), "Session::Evaluate");
  }
  b = Clock::now();
  t->evaluate_s = MsBetween(a, b) / 1e3;
  t->eval = st->session->eval_stats();
  {
    Span span("Session::Freeze", "serve");
    auto frozen = st->session->Freeze();
    MustOk(frozen.status(), "Session::Freeze");
    st->last = std::move(frozen).value();
  }
  a = Clock::now();
  t->freeze_ms = MsBetween(b, a);
  st->registry = std::make_unique<lps::serve::SnapshotRegistry>();
  {
    Span span("SnapshotRegistry::Publish", "serve");
    st->registry->Publish(st->last);
  }
  lps::serve::ServeOptions serve_opts;
  serve_opts.threads = kLanes;
  st->server = std::make_unique<lps::serve::QueryServer>(st->registry.get(),
                                                         serve_opts);
  a = Clock::now();
  {
    Span span("QueryServer::Prepare", "parse");
    auto reach = st->server->Prepare("reach(U, X)");
    MustOk(reach.status(), "QueryServer::Prepare reach");
    st->reach = *reach;
    auto fof = st->server->Prepare("fof(U, Z)");
    MustOk(fof.status(), "QueryServer::Prepare fof");
    st->fof = *fof;
  }
  t->prepare_us = MsBetween(a, Clock::now()) * 1e3 / 2;
  MustHold(WarmUp(st->server.get(), kWarmupBatch, warmup),
           "churn_serve warm-up batch answers");
}

// One commit: retract the kEdgesPerCommit longest-present churnable
// edges, re-add as many longest-absent ones, re-converge, republish
// copy-on-write.
void CommitOnce(Stack* st, EdgeModel* model, Published* published,
                OpCounts* ops, CommitLog* log) {
  std::vector<Edge> retract;
  std::vector<Edge> add;
  for (int k = 0; k < kEdgesPerCommit; ++k) {
    retract.push_back(model->in.front());
    model->in.pop_front();
    add.push_back(model->out.front());
    model->out.pop_front();
  }
  for (const Edge& e : retract) {
    model->present.erase(e);
    model->out.push_back(e);
  }
  for (const Edge& e : add) {
    model->present.insert(e);
    model->in.push_back(e);
  }
  std::shared_ptr<const Adjacency> adj = model->Adj();

  lps::TermStore* store = st->session->store();
  auto args = [store](const Edge& e) {
    return lps::Tuple{store->MakeConstant(UserName(e.from)),
                      store->MakeConstant(UserName(e.to))};
  };
  Span cycle("commit_to_visible", "bench");
  const Clock::time_point t0 = Clock::now();
  lps::Status status = lps::Status::OK();
  {
    Span span("MutationBatch::Commit", "api");
    lps::MutationBatch batch = st->session->Mutate();
    for (const Edge& e : retract) {
      if (status.ok()) status = batch.Retract("follows", args(e));
    }
    for (const Edge& e : add) {
      if (status.ok()) status = batch.Add("follows", args(e));
    }
    if (status.ok()) status = batch.Commit();
  }
  const Clock::time_point t1 = Clock::now();
  std::shared_ptr<const lps::serve::Snapshot> snap;
  if (status.ok()) {
    Span span("Session::FreezeIncremental", "serve");
    auto frozen = st->session->FreezeIncremental(st->last);
    if (frozen.ok()) {
      snap = std::move(frozen).value();
    } else {
      status = frozen.status();
    }
  }
  const Clock::time_point t2 = Clock::now();
  if (status.ok()) {
    Span span("SnapshotRegistry::Publish", "serve");
    published->Publish(st->registry.get(), snap, std::move(adj));
  }
  const Clock::time_point t3 = Clock::now();
  ops->Attempt("commit", !status.ok());
  if (!status.ok()) return;
  st->last = std::move(snap);
  log->fresh_ms.push_back(MsBetween(t0, t3));
  log->commit_ms.push_back(MsBetween(t0, t1));
  log->freeze_ms.push_back(MsBetween(t1, t2));
  log->publish_us.push_back(MsBetween(t2, t3) * 1e3);
  const lps::EvalStats& es = st->session->eval_stats();
  log->overdeleted += static_cast<double>(es.overdeleted_tuples);
  log->rederived += static_cast<double>(es.rederived_tuples);
  log->delta_rounds += static_cast<double>(es.delta_rounds);
  const lps::serve::CowStats& cow = st->last->cow_stats();
  log->relations_cloned += static_cast<double>(cow.relations_cloned);
  log->bytes_shared += static_cast<double>(cow.bytes_shared);
  log->fact_chunks_shared += static_cast<double>(cow.fact_chunks_shared);
}

// The timed phase: the writer's paced commits on its own thread beside
// the read open loop on this one, for `seconds`.
struct PhaseResult {
  ServeLog reads;
  CommitLog commits;
  double seconds = 0;
};

PhaseResult RunPhase(Stack* st, EdgeModel* model, Published* published,
                     const ServeHooks& hooks, double seconds,
                     OpCounts* ops) {
  PhaseResult p;
  OpCounts writer_ops;
  const Clock::time_point start = Clock::now();
  // A jthread: stopped and joined on every path out of this scope.
  std::jthread writer([&](std::stop_token stop) {
    // Commit i starts at start + i / kCommitRate, or at once when the
    // writer is behind.
    for (uint64_t i = 0; !stop.stop_requested(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / kCommitRate)));
      if (stop.stop_requested()) break;
      CommitOnce(st, model, published, &writer_ops, &p.commits);
    }
  });
  RunOpenLoop(st->server.get(), kReadRate, seconds, hooks, ops, &p.reads);
  writer.request_stop();
  writer.join();
  p.seconds = MsBetween(start, Clock::now()) / 1e3;
  ops->Merge(writer_ops);
  return p;
}

}  // namespace

RunResult RunChurnServe(const RunConfig& config) {
  RunResult r;
  // ---- Inputs (not timed) ----------------------------------------------
  const SocialGraph graph = MakeSocialGraph(kUsers, config.seed);
  const std::string facts = EdgeFacts("follows", "u", "u", graph.edges);

  Stack st;
  EdgeModel model;
  Published published;
  Rng load_rng(config.seed * 0x9e3779b97f4a7c15ULL + 3);
  auto make_with = [&st](Rng* rng) {
    ReadOp op;
    op.key = static_cast<uint32_t>(rng->Below(kUsers));
    op.kind = rng->Below(2) == 0 ? kReach : kFof;
    op.request.query = op.kind == kReach ? st.reach : st.fof;
    op.request.params = {{"U", UserName(op.key)}};
    return op;
  };
  uint64_t seq_before = 0;
  ServeHooks hooks;
  hooks.make = [&] { return make_with(&load_rng); };
  hooks.before_batch = [&] { seq_before = published.seq(); };
  // reach is the cluster at every epoch (churn stays inside clusters);
  // fof must match one of the edge sets published while the batch ran.
  hooks.check = [&](const ReadOp& op, const lps::serve::ServeAnswer& a) {
    if (op.kind == kReach) return CheckReachRows(a.rows, kUsers, op.key);
    for (const auto& adj : published.Since(seq_before)) {
      if (CheckFofRows(a.rows, op.key, *adj)) return true;
    }
    return false;
  };
  Rng warm_rng(config.seed + 29);
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
        st.last.reset();
        st.session.reset();
        model.Reset(graph, config.seed + 41);
        published.Reset(model.Adj());
        seq_before = 0;
      },
      [&] { BuildStack(facts, warmup, &st, &times); });
  const lps::EvalStats::IngestStats ingest =
      st.session->eval_stats().ingest;

  // ---- Timed phase -------------------------------------------------------
  const double span = config.trace ? config.seconds / 2 : config.seconds;
  Trace().set_enabled(false);
  const PhaseResult plain =
      RunPhase(&st, &model, &published, hooks, span, &r.ops);
  const double read_p50 = Median(plain.reads.latency_ms);
  r.e2e.Set("setup_s", setup_s);
  r.e2e.Set("latency_p50_ms", read_p50);

  AddLatencyNotes("read", plain.reads.latency_ms, &r.notes);
  AddLatencyNotes("fresh", plain.commits.fresh_ms, &r.notes);

  const PhaseResult* layer_phase = &plain;
  PhaseResult traced;
  if (config.trace) {
    Trace().set_enabled(true);
    const lps::serve::ServeStats before = st.server->stats();
    const double cpu0 = CpuSeconds();
    traced = RunPhase(&st, &model, &published, hooks, span, &r.ops);
    r.layer.Set("proc.cpu_util",
                (CpuSeconds() - cpu0) / (traced.seconds * (kLanes + 1)));
    FillServeLayer(traced.reads, before, st.server->stats(), &r.layer);
    r.layer.Set("trace.overhead.latency_p50_ms",
                Median(traced.reads.latency_ms) - read_p50);
    layer_phase = &traced;
  }

  // ---- Final check: the last snapshot equals a from-scratch fixpoint ----
  {
    Span span_check("oracle.final_fixpoint", "bench");
    lps::Session fresh(lps::LanguageMode::kLDL);
    const std::vector<Edge> final_edges(model.present.begin(),
                                        model.present.end());
    bool ok = fresh.Load(kRules).ok() && fresh.Compile().ok() &&
              fresh.LoadFactsParallel(
                       EdgeFacts("follows", "u", "u", final_edges), kLanes + 1)
                  .ok() &&
              fresh.Evaluate().ok();
    ok = ok && fresh.database()->ToCanonicalString(*fresh.signature()) ==
                   st.last->database().ToCanonicalString(st.last->signature());
    r.ops.Attempt("final_fixpoint_check", !ok);
  }
  Trace().set_enabled(false);

  const CommitLog& c = layer_phase->commits;
  const double commits = static_cast<double>(c.fresh_ms.size());
  const double rederive_share = c.overdeleted > 0 ? c.rederived / c.overdeleted
                                                  : 0;
  const double facts_per_row =
      static_cast<double>(graph.edges.size()) /
      Mean(layer_phase->reads.answer_rows);
  r.notes.push_back({"eval.rederive_share", rederive_share, "ratio"});
  r.notes.push_back({"prop.facts_per_answer_row", facts_per_row, "ratio"});
  r.notes.push_back({"prop.repeat_key_share",
                     RepeatedKeyShare(layer_phase->reads.keys), "ratio"});
  r.notes.push_back({"edb_facts", static_cast<double>(graph.edges.size()),
                     "count"});
  r.notes.push_back({"loadgen.late_ms.max", layer_phase->reads.late.Max(),
                     "ms"});
  r.layer.Set("prop.facts_per_answer_row", facts_per_row);
  r.layer.Set("api.ingest_s", times.ingest_s);
  r.layer.Set("api.ingest.parse_ms", ingest.parse_ms);
  r.layer.Set("api.ingest.merge_ms", ingest.merge_ms);
  r.layer.Set("api.evaluate_s", times.evaluate_s);
  r.layer.Set("api.commit_ms.p50", Median(c.commit_ms));
  r.layer.Set("api.commit_ms.p90", Percentile(c.commit_ms, 90));
  r.layer.Set("parse.load_ms", times.load_ms);
  r.layer.Set("parse.prepare_us", times.prepare_us);
  const lps::EvalStats& es = times.eval;
  r.layer.Set("eval.tuples_derived", static_cast<double>(es.tuples_derived));
  r.layer.Set("eval.iterations", static_cast<double>(es.iterations));
  r.layer.Set("eval.rule_runs", static_cast<double>(es.rule_runs));
  r.layer.Set("eval.arena_bytes", static_cast<double>(es.arena_bytes));
  r.layer.Set("eval.index_bytes", static_cast<double>(es.index_bytes));
  if (es.tuples_derived > 0) {
    r.layer.Set("eval.dedup_probes_per_tuple",
                static_cast<double>(es.dedup_probes) /
                    static_cast<double>(es.tuples_derived));
  }
  if (commits > 0) {
    r.layer.Set("eval.overdeleted_per_commit", c.overdeleted / commits);
    r.layer.Set("eval.delta_rounds_per_commit", c.delta_rounds / commits);
    r.layer.Set("serve.relations_cloned", c.relations_cloned / commits);
    r.layer.Set("serve.bytes_shared", c.bytes_shared / commits);
    r.layer.Set("serve.fact_chunks_shared", c.fact_chunks_shared / commits);
  }
  r.layer.Set("eval.rederive_share", rederive_share);
  r.layer.Set("serve.freeze_ms", times.freeze_ms);
  r.layer.Set("serve.freeze_inc_ms.p50", Median(c.freeze_ms));
  r.layer.Set("serve.publish_us.p50", Median(c.publish_us));
  r.layer.Set("term.store_terms",
              static_cast<double>(st.session->store()->size()));
  r.e2e.Set("peak_rss_mb", PeakRssMb());
  return r;
}

}  // namespace perfbench
