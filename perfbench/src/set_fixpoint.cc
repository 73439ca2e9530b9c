// set_fixpoint: batch analytics with sets.
//
// Random follows at 65,536 users x 8 edges plus a 384-object BOM
// assembly DAG, under follower sets followers(U, <F>), follower-of-
// follower sets fof(U, <F2>), a card filter over the fof sets, a
// recursive uses closure feeding partset(O, <P>), and a union of a
// parent's direct parts with a child's part set. Each repetition loads
// into a fresh Session and times Evaluate() with 4 threads. The paper's
// set constructs at scale take nearly all the time: the grouping
// accumulator, canonical-set interning, the set builtins and parallel
// semi-naive evaluation. No serving, snapshot or incremental code runs.
#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common.h"
#include "gen.h"
#include "oracle.h"

namespace perfbench {
namespace {

constexpr uint32_t kUsers = 65536;
constexpr uint32_t kFollowsPerUser = 8;
constexpr uint32_t kObjects = 384;
constexpr uint32_t kPartsPerObject = 4;
constexpr uint32_t kPartUniverse = 2048;
constexpr uint32_t kBigFof = 64;  // card filter bound
constexpr size_t kThreads = 4;

constexpr char kRules[] =
    "followers(U, <F>) :- follows(F, U).\n"
    "fof(U, <F2>) :- follows(F1, U), follows(F2, F1).\n"
    "bigfof(U, N) :- fof(U, S), card(S, N), 64 <= N.\n"
    "uses(O, S) :- sub(O, S).\n"
    "uses(O, S2) :- uses(O, S), sub(S, S2).\n"
    "haspart(O, P) :- part_of(P, O).\n"
    "haspart(O, P) :- uses(O, S), part_of(P, S).\n"
    "partset(O, <P>) :- haspart(O, P).\n"
    "direct(O, <P>) :- part_of(P, O).\n"
    "merged(O, S, M) :- sub(O, S), direct(O, A), partset(S, B), "
    "union(A, B, M).\n";

// Reads the engine's model back as plain ids, walking terms directly
// (no rendering), for comparison with ComputeSetModel.
class ModelReader {
 public:
  explicit ModelReader(lps::Session* s) : s_(s) {}

  const lps::Relation* Rel(const char* name, size_t arity) const {
    const lps::PredicateId p = s_->signature()->Lookup(name, arity);
    return s_->database()->FindRelation(p);
  }

  size_t LiveRows(const char* name, size_t arity) const {
    const lps::Relation* rel = Rel(name, arity);
    return rel == nullptr ? 0 : rel->live_size();
  }

  bool Id(lps::TermId t, std::string_view prefix, uint32_t* id) const {
    const lps::TermStore& st = *s_->store();
    return st.kind(t) == lps::TermKind::kConstant &&
           ParseId(st.symbols().Name(st.symbol(t)), prefix, id);
  }

  bool IdSet(lps::TermId t, std::string_view prefix,
             std::vector<uint32_t>* ids) const {
    const lps::TermStore& st = *s_->store();
    if (!st.IsSet(t)) return false;
    ids->clear();
    for (lps::TermId e : st.args(t)) {
      uint32_t id = 0;
      if (!Id(e, prefix, &id)) return false;
      ids->push_back(id);
    }
    std::sort(ids->begin(), ids->end());
    return true;
  }

  // Grouping relation name(K, S) -> groups[K] = S; false when a row is
  // malformed, a key repeats, or a key is out of range.
  bool Groups(const char* name, std::string_view key_prefix,
              std::string_view elem_prefix, size_t keys,
              std::vector<std::vector<uint32_t>>* groups) const {
    groups->assign(keys, {});
    const lps::Relation* rel = Rel(name, 2);
    if (rel == nullptr) return true;
    for (lps::RowId r = 0; r < rel->size(); ++r) {
      if (!rel->IsLive(r)) continue;
      lps::TupleRef t = rel->row(r);
      uint32_t key = 0;
      if (!Id(t[0], key_prefix, &key) || key >= keys ||
          !(*groups)[key].empty() ||
          !IdSet(t[1], elem_prefix, &(*groups)[key])) {
        return false;
      }
    }
    return true;
  }

 private:
  lps::Session* s_;
};

// Compares every relation of the engine's model with the oracle's.
bool MatchesModel(lps::Session* s, const SetModel& m) {
  ModelReader rd(s);
  std::vector<std::vector<uint32_t>> g;
  if (!rd.Groups("followers", "u", "u", kUsers, &g) || g != m.followers) {
    return false;
  }
  if (!rd.Groups("fof", "u", "u", kUsers, &g) || g != m.fof) return false;
  if (!rd.Groups("partset", "o", "p", kObjects, &g) || g != m.partset) {
    return false;
  }
  if (!rd.Groups("direct", "o", "p", kObjects, &g) || g != m.direct) {
    return false;
  }
  if (rd.LiveRows("uses", 2) != m.uses ||
      rd.LiveRows("haspart", 2) != m.haspart) {
    return false;
  }
  const lps::TermStore& st = *s->store();
  std::map<uint32_t, uint32_t> big;
  if (const lps::Relation* rel = rd.Rel("bigfof", 2)) {
    for (lps::RowId r = 0; r < rel->size(); ++r) {
      if (!rel->IsLive(r)) continue;
      lps::TupleRef t = rel->row(r);
      uint32_t u = 0;
      if (!rd.Id(t[0], "u", &u) || st.kind(t[1]) != lps::TermKind::kInt) {
        return false;
      }
      big[u] = static_cast<uint32_t>(st.int_value(t[1]));
    }
  }
  if (big != m.big_fof) return false;
  std::map<Edge, std::vector<uint32_t>> merged;
  if (const lps::Relation* rel = rd.Rel("merged", 3)) {
    for (lps::RowId r = 0; r < rel->size(); ++r) {
      if (!rel->IsLive(r)) continue;
      lps::TupleRef t = rel->row(r);
      Edge e;
      std::vector<uint32_t> ids;
      if (!rd.Id(t[0], "o", &e.from) || !rd.Id(t[1], "o", &e.to) ||
          !rd.IdSet(t[2], "p", &ids) || merged.count(e) != 0) {
        return false;
      }
      merged[e] = std::move(ids);
    }
  }
  return merged == m.merged;
}

struct Rep {
  double setup_s = 0;
  double load_ms = 0;
  double ingest_s = 0;
  double evaluate_s = 0;
  double evaluate_cpu_s = 0;
  bool ok = false;
  lps::EvalStats stats;
  size_t store_terms = 0;
};

// One repetition: fresh Session, load, timed Evaluate, full check.
Rep RunRep(const std::string& facts, const SetModel& model) {
  Rep rep;
  const Clock::time_point a = Clock::now();
  lps::Options opts;
  opts.threads = kThreads;
  auto session = std::make_unique<lps::Session>(lps::LanguageMode::kLDL, opts);
  {
    Span span("Session::Load+Compile", "parse");
    MustOk(session->Load(kRules), "Session::Load");
    MustOk(session->Compile(), "Session::Compile");
  }
  const Clock::time_point b = Clock::now();
  {
    Span span("Session::LoadFactsParallel", "api");
    MustOk(session->LoadFactsParallel(facts, kThreads),
           "Session::LoadFactsParallel");
  }
  const Clock::time_point c = Clock::now();
  rep.load_ms = MsBetween(a, b);
  rep.ingest_s = MsBetween(b, c) / 1e3;
  rep.setup_s = MsBetween(a, c) / 1e3;
  const double cpu0 = CpuSeconds();
  lps::Status status = lps::Status::OK();
  {
    Span span("Session::Evaluate", "eval");
    status = session->Evaluate();
  }
  rep.evaluate_s = MsBetween(c, Clock::now()) / 1e3;
  rep.evaluate_cpu_s = CpuSeconds() - cpu0;
  rep.stats = session->eval_stats();
  rep.store_terms = session->store()->size();
  {
    Span span("oracle.check_model", "bench");
    rep.ok = status.ok() && MatchesModel(session.get(), model);
  }
  {
    Span span("Session::~Session", "api");
    session.reset();
  }
  return rep;
}

}  // namespace

RunResult RunSetFixpoint(const RunConfig& config) {
  RunResult r;
  // ---- Inputs and the oracle's model (not timed) ------------------------
  const std::vector<Edge> follows =
      MakeRandomFollows(kUsers, kFollowsPerUser, config.seed);
  const Bom bom =
      MakeBom(kObjects, kPartsPerObject, kPartUniverse, config.seed + 7);
  const std::string facts = EdgeFacts("follows", "u", "u", follows) +
                            EdgeFacts("sub", "o", "o", bom.sub) +
                            EdgeFacts("part_of", "p", "o", bom.part_of);
  const SetModel model = ComputeSetModel(kUsers, follows, bom, kBigFof);

  // ---- Warm-up repetition: must be correct before anything is timed ----
  Trace().set_enabled(config.trace);
  const Rep warm = RunRep(facts, model);
  MustHold(warm.ok, "set_fixpoint warm-up model matches the oracle");

  // ---- Timed repetitions -------------------------------------------------
  // Untraced: until the run's time is spent. Traced: the first half
  // untraced, the second traced, so the run can report its overhead.
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const double span = config.trace ? config.seconds / 2 : config.seconds;
  for (std::vector<Rep>* reps : {&plain, &traced}) {
    if (reps == &traced && !config.trace) break;
    Trace().set_enabled(reps == &traced);
    const Clock::time_point start = Clock::now();
    do {
      reps->push_back(RunRep(facts, model));
      r.ops.Attempt("evaluate", !reps->back().ok);
    } while (MsBetween(start, Clock::now()) / 1e3 < span);
  }
  Trace().set_enabled(false);

  auto collect = [](const std::vector<Rep>& reps, double Rep::*field) {
    std::vector<double> v;
    for (const Rep& rep : reps) v.push_back(rep.*field);
    return v;
  };
  std::vector<double> setups = collect(plain, &Rep::setup_s);
  setups.push_back(warm.setup_s);
  const double eval_s = Median(collect(plain, &Rep::evaluate_s));
  const lps::EvalStats& es = plain.back().stats;
  r.e2e.Set("setup_s", Median(setups));
  r.e2e.Set("latency_p50_ms", eval_s * 1e3);

  r.notes.push_back({"fixpoint_s", eval_s, "s"});
  r.notes.push_back({"evaluations", static_cast<double>(plain.size()),
                     "count"});
  r.notes.push_back({"tuples_derived", static_cast<double>(es.tuples_derived),
                     "count"});
  r.notes.push_back({"groups_emitted", static_cast<double>(es.groups_emitted),
                     "count"});
  r.notes.push_back({"group_elements", static_cast<double>(es.group_elements),
                     "count"});
  r.notes.push_back({"edb_facts", static_cast<double>(
                                      follows.size() + bom.sub.size() +
                                      bom.part_of.size()), "count"});

  const std::vector<Rep>& layer_reps = config.trace ? traced : plain;
  if (config.trace) {
    const double traced_s = Median(collect(traced, &Rep::evaluate_s));
    r.layer.Set("trace.overhead.latency_p50_ms", (traced_s - eval_s) * 1e3);
  }
  const Rep& last = layer_reps.back();
  const lps::EvalStats& ls = last.stats;
  double cpu = 0;
  double wall = 0;
  for (const Rep& rep : layer_reps) {
    cpu += rep.evaluate_cpu_s;
    wall += rep.evaluate_s;
  }
  r.layer.Set("proc.cpu_util", cpu / (wall * kThreads));
  r.layer.Set("api.ingest_s", Median(collect(layer_reps, &Rep::ingest_s)));
  r.layer.Set("api.ingest.parse_ms", ls.ingest.parse_ms);
  r.layer.Set("api.ingest.merge_ms", ls.ingest.merge_ms);
  r.layer.Set("api.evaluate_s", Median(collect(layer_reps, &Rep::evaluate_s)));
  r.layer.Set("parse.load_ms", Median(collect(layer_reps, &Rep::load_ms)));
  r.layer.Set("eval.tuples_derived", static_cast<double>(ls.tuples_derived));
  r.layer.Set("eval.iterations", static_cast<double>(ls.iterations));
  r.layer.Set("eval.rule_runs", static_cast<double>(ls.rule_runs));
  r.layer.Set("eval.parallel_tasks", static_cast<double>(ls.parallel_tasks));
  r.layer.Set("eval.parallel_tuples", static_cast<double>(ls.parallel_tuples));
  if (ls.tuples_derived > 0) {
    r.layer.Set("eval.dedup_probes_per_tuple",
                static_cast<double>(ls.dedup_probes) /
                    static_cast<double>(ls.tuples_derived));
  }
  r.layer.Set("eval.groups_emitted", static_cast<double>(ls.groups_emitted));
  if (ls.groups_emitted > 0) {
    r.layer.Set("eval.elements_per_group",
                static_cast<double>(ls.group_elements) /
                    static_cast<double>(ls.groups_emitted));
  }
  r.layer.Set("eval.arena_bytes", static_cast<double>(ls.arena_bytes));
  r.layer.Set("eval.index_bytes", static_cast<double>(ls.index_bytes));
  r.layer.Set("term.set_interns", static_cast<double>(ls.set_interns));
  if (ls.set_interns > 0) {
    r.layer.Set("term.set_intern_hit_rate",
                static_cast<double>(ls.set_intern_hits) /
                    static_cast<double>(ls.set_interns));
  }
  r.layer.Set("term.store_terms", static_cast<double>(last.store_terms));
  r.e2e.Set("peak_rss_mb", PeakRssMb());
  return r;
}

}  // namespace perfbench
