#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void MustOk(const lps::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

void MustHold(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: check failed before timing: %s\n",
               what.c_str());
  std::exit(3);
}

void AddLatencyNotes(const std::string& name,
                     const std::vector<double>& samples_ms,
                     std::vector<Metric>* notes) {
  notes->push_back({name + "_p50_ms", Median(samples_ms), "ms"});
  const double tail = TailPercentileFor(samples_ms.size());
  if (tail > 50) {
    notes->push_back({name + "_" + PercentileLabel(tail) + "_ms",
                      Percentile(samples_ms, tail), "ms"});
  }
  notes->push_back(
      {name + "_samples", static_cast<double>(samples_ms.size()), "count"});
}

double MedianSetupSeconds(int setups, const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int i = 0; i < setups; ++i) {
    teardown();
    const Clock::time_point t0 = Clock::now();
    setup();
    secs.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return Median(secs);
}

namespace {

// Serves `batch` as one ExecuteBatch, checks every answer and logs it.
// `dues` (open loop only) holds each request's due time.
void ExecuteChecked(lps::serve::QueryServer* server,
                    const std::vector<ReadOp>& batch,
                    const std::vector<Clock::time_point>* dues,
                    const ServeHooks& hooks, OpCounts* ops, ServeLog* log) {
  std::vector<lps::serve::ServeRequest> requests;
  requests.reserve(batch.size());
  for (const ReadOp& op : batch) requests.push_back(op.request);
  if (hooks.before_batch) hooks.before_batch();
  uint32_t span_id = 0;
  Clock::time_point t0;
  Clock::time_point t1;
  lps::Result<std::vector<lps::serve::ServeAnswer>> answers =
      lps::Status::Internal("not run");
  {
    Span span("QueryServer::ExecuteBatch", "serve");
    span_id = span.id();
    t0 = Clock::now();
    answers = server->ExecuteBatch(requests);
    t1 = Clock::now();
  }
  log->batch_ms.push_back(MsBetween(t0, t1));
  log->batch_size.push_back(static_cast<double>(batch.size()));
  Span check_span("oracle.check_reads", "bench");
  for (size_t i = 0; i < batch.size(); ++i) {
    const lps::serve::ServeAnswer* a =
        answers.ok() ? &(*answers)[i] : nullptr;
    const bool ok = a != nullptr && a->status.ok() && !a->partial &&
                    hooks.check(batch[i], *a);
    ops->Attempt("read", !ok);
    if (ok) ++log->correct;
    if (a != nullptr) {
      log->service_ms.push_back(a->micros / 1e3);
      log->answer_rows.push_back(static_cast<double>(a->count));
    }
    log->keys.push_back(batch[i].key);
    const uint64_t request_id = log->next_request_id++;
    if (dues != nullptr) {
      const Clock::time_point due = (*dues)[i];
      log->latency_ms.push_back(ok ? MsBetween(due, t1) : kInfinitelyLate);
      log->queue_wait_ms.push_back(MsBetween(due, t0));
      if (span_id != 0) Trace().Request(request_id, span_id, due, t0, t1);
    } else if (span_id != 0) {
      Trace().Request(request_id, span_id, t0, t0, t1);
    }
  }
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

void RunOpenLoop(lps::serve::QueryServer* server, double rate,
                 double seconds, const ServeHooks& hooks, OpCounts* ops,
                 ServeLog* log) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Seconds(seconds);
  uint64_t i = 0;
  auto next_due = [&] {
    return start + Seconds(static_cast<double>(i++) / rate);
  };
  Clock::time_point due = next_due();
  std::vector<ReadOp> batch;
  std::vector<Clock::time_point> dues;
  while (due < end) {
    Clock::time_point now = Clock::now();
    if (due > now) {
      std::this_thread::sleep_until(due);
      now = Clock::now();
      log->late.Record(MsBetween(due, now));
    }
    batch.clear();
    dues.clear();
    for (; due <= now && due < end; due = next_due()) {
      batch.push_back(hooks.make());
      dues.push_back(due);
    }
    ExecuteChecked(server, batch, &dues, hooks, ops, log);
  }
}

double RunClosedLoop(lps::serve::QueryServer* server, size_t batch_size,
                     double seconds, const ServeHooks& hooks, OpCounts* ops,
                     ServeLog* log) {
  const uint64_t correct_before = log->correct;
  const size_t first_batch = log->batch_ms.size();
  const Clock::time_point end = Clock::now() + Seconds(seconds);
  std::vector<ReadOp> batch;
  uint64_t requests = 0;
  do {
    batch.clear();
    for (size_t k = 0; k < batch_size; ++k) {
      batch.push_back(hooks.make());
    }
    ExecuteChecked(server, batch, nullptr, hooks, ops, log);
    requests += batch_size;
  } while (Clock::now() < end);
  // The median batch time, not the mean, so one descheduled batch does
  // not move the rate; failed reads do not count as completed.
  const double median_ms = Median(std::vector<double>(
      log->batch_ms.begin() + static_cast<long>(first_batch),
      log->batch_ms.end()));
  const double correct_share =
      static_cast<double>(log->correct - correct_before) /
      static_cast<double>(requests);
  return correct_share * static_cast<double>(batch_size) * 1e3 / median_ms;
}

bool WarmUp(lps::serve::QueryServer* server, size_t batch,
            const ServeHooks& hooks) {
  std::vector<ReadOp> ops;
  for (size_t k = 0; k < batch; ++k) ops.push_back(hooks.make());
  OpCounts counts;
  ServeLog log;
  ExecuteChecked(server, ops, nullptr, hooks, &counts, &log);
  return counts.failed() == 0;
}

void FillServeLayer(const ServeLog& log, const lps::serve::ServeStats& before,
                    const lps::serve::ServeStats& after, MetricTable* layer) {
  layer->Set("serve.batch_ms.p50", Median(log.batch_ms));
  layer->Set("serve.batch_size.mean", Mean(log.batch_size));
  layer->Set("serve.service_ms.p50", Median(log.service_ms));
  layer->Set("serve.service_ms.p90", Percentile(log.service_ms, 90));
  layer->Set("serve.queue_wait_ms.p90", Percentile(log.queue_wait_ms, 90));
  const double queries = static_cast<double>(after.queries - before.queries);
  if (queries > 0) {
    layer->Set("serve.demand_share",
               static_cast<double>(after.demand_queries -
                                   before.demand_queries) / queries);
    layer->Set("serve.scan_share",
               static_cast<double>(after.scan_queries - before.scan_queries) /
                   queries);
  }
  const double hits =
      static_cast<double>(after.rewrite_cache_hits - before.rewrite_cache_hits);
  const double built =
      static_cast<double>(after.rewrites_built - before.rewrites_built);
  if (hits + built > 0) {
    layer->Set("serve.rewrite_cache_hit_rate", hits / (hits + built));
  }
  auto delta = [](uint64_t b, uint64_t a) {
    return static_cast<double>(a - b);
  };
  layer->Set("serve.empty_fast_path",
             delta(before.empty_fast_path, after.empty_fast_path));
  layer->Set("serve.index_misses",
             delta(before.index_misses, after.index_misses));
  layer->Set("serve.worker_rebinds",
             delta(before.worker_rebinds, after.worker_rebinds));
  layer->Set("serve.worker_refreshes",
             delta(before.worker_refreshes, after.worker_refreshes));
  layer->Set("serve.deadline_exceeded",
             delta(before.deadline_exceeded, after.deadline_exceeded));
  layer->Set("serve.admission_rejected",
             delta(before.admission_rejected, after.admission_rejected));
  layer->Set("loadgen.late_ms.p90", log.late.P(90));
  layer->Set("loadgen.late_ms.max", log.late.Max());
  layer->Set("prop.repeat_key_share", RepeatedKeyShare(log.keys));
}

void FillTraceLayer(MetricTable* layer) {
  for (const auto& [module, ms] : Trace().SelfMsByModule()) {
    layer->Set(module + ".self_ms", ms);
  }
  layer->Set("trace.spans", static_cast<double>(Trace().size()));
}

}  // namespace perfbench
