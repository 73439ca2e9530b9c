#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

namespace {

// ceil(p% of n), tolerant of binary rounding (99.9% of 10000 is 9990).
double NearestRank(double p, double n) {
  return std::ceil(p * n / 100.0 - 1e-9);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% of the samples
  // at or below it.
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(NearestRank(p, n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double TailPercentileFor(size_t samples) {
  static const double kLadder[] = {99.9, 99.5, 99, 98, 97.5,
                                   95,   90,   80, 75, 50};
  const double n = static_cast<double>(samples);
  for (double p : kLadder) {
    // Samples strictly beyond the nearest-rank position of p.
    const double beyond = n - NearestRank(p, n);
    if (beyond >= 10) return p;
  }
  return 50;
}

std::string PercentileLabel(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

uint64_t OpCounts::attempted() const {
  uint64_t n = 0;
  for (const auto& [op, e] : ops_) n += e.attempted;
  return n;
}

uint64_t OpCounts::failed() const {
  uint64_t n = 0;
  for (const auto& [op, e] : ops_) n += e.failed;
  return n;
}

double Lateness::Max() const {
  return samples_.empty() ? 0
                          : *std::max_element(samples_.begin(), samples_.end());
}

void MetricTable::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
  std::abort();
}

MetricTable EndToEndTable() {
  return MetricTable({
      {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MB"},
      {"latency_p50_ms", 0, "ms"},
  });
}

MetricTable PerLayerTable() {
  return MetricTable({
      // api: session, ingest, mutation
      {"api.ingest_s", 0, "s"},
      {"api.ingest.parse_ms", 0, "ms"},
      {"api.ingest.merge_ms", 0, "ms"},
      {"api.evaluate_s", 0, "s"},
      {"api.commit_ms.p50", 0, "ms"},
      {"api.commit_ms.p90", 0, "ms"},
      {"api.demand.tuples_per_answer", 0, "ratio"},
      {"api.demand.magic_tuples", 0, "count"},
      {"api.self_ms", 0, "ms"},
      // parse
      {"parse.load_ms", 0, "ms"},
      {"parse.prepare_us", 0, "us"},
      {"parse.self_ms", 0, "ms"},
      // eval: bottomup, groupby, relation, incremental
      {"eval.tuples_derived", 0, "count"},
      {"eval.iterations", 0, "count"},
      {"eval.rule_runs", 0, "count"},
      {"eval.parallel_tasks", 0, "count"},
      {"eval.parallel_tuples", 0, "count"},
      {"eval.dedup_probes_per_tuple", 0, "ratio"},
      {"eval.groups_emitted", 0, "count"},
      {"eval.elements_per_group", 0, "ratio"},
      {"eval.arena_bytes", 0, "bytes"},
      {"eval.index_bytes", 0, "bytes"},
      {"eval.overdeleted_per_commit", 0, "count"},
      {"eval.delta_rounds_per_commit", 0, "count"},
      {"eval.rederive_share", 0, "ratio"},
      {"eval.self_ms", 0, "ms"},
      // term
      {"term.set_interns", 0, "count"},
      {"term.set_intern_hit_rate", 0, "ratio"},
      {"term.store_terms", 0, "count"},
      // serve: snapshot, registry, server
      {"serve.freeze_ms", 0, "ms"},
      {"serve.freeze_inc_ms.p50", 0, "ms"},
      {"serve.publish_us.p50", 0, "us"},
      {"serve.relations_cloned", 0, "count"},
      {"serve.bytes_shared", 0, "bytes"},
      {"serve.fact_chunks_shared", 0, "count"},
      {"serve.batch_ms.p50", 0, "ms"},
      {"serve.batch_size.mean", 0, "count"},
      {"serve.service_ms.p50", 0, "ms"},
      {"serve.service_ms.p90", 0, "ms"},
      {"serve.queue_wait_ms.p90", 0, "ms"},
      {"serve.demand_share", 0, "ratio"},
      {"serve.scan_share", 0, "ratio"},
      {"serve.empty_fast_path", 0, "count"},
      {"serve.rewrite_cache_hit_rate", 0, "ratio"},
      {"serve.index_misses", 0, "count"},
      {"serve.worker_rebinds", 0, "count"},
      {"serve.worker_refreshes", 0, "count"},
      {"serve.deadline_exceeded", 0, "count"},
      {"serve.admission_rejected", 0, "count"},
      {"serve.self_ms", 0, "ms"},
      // whole process and the benchmark itself
      {"proc.cpu_util", 0, "ratio"},
      {"bench.self_ms", 0, "ms"},
      {"loadgen.late_ms.p90", 0, "ms"},
      {"loadgen.late_ms.max", 0, "ms"},
      {"failed_share", 0, "ratio"},
      // workload properties later claims depend on
      {"prop.repeat_key_share", 0, "ratio"},
      {"prop.facts_per_answer_row", 0, "ratio"},
      // the trace itself
      {"trace.spans", 0, "count"},
      {"trace.overhead.latency_p50_ms", 0, "ms"},
  });
}

std::string JsonNumber(double v) {
  if (std::isnan(v)) v = 0;
  if (std::isinf(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
