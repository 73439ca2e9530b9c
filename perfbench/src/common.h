// Shared plumbing of the three workloads: run configuration and result,
// process measurements, and the serving loops (open loop at a fixed
// rate, closed loop of back-to-back batches) that serve_social and
// churn_serve both drive through serve::QueryServer::ExecuteBatch.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen.h"
#include "lps/lps.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunResult {
  MetricTable e2e = EndToEndTable();
  MetricTable layer = PerLayerTable();
  OpCounts ops;
  /// Human-readable "name value unit" lines printed before the JSON:
  /// headline metrics and workload properties.
  std::vector<Metric> notes;
};

using RunFn = RunResult (*)(const RunConfig&);
RunResult RunServeSocial(const RunConfig& config);
RunResult RunChurnServe(const RunConfig& config);
RunResult RunSetFixpoint(const RunConfig& config);

/// Milliseconds between two clock readings.
double MsBetween(Clock::time_point a, Clock::time_point b);

/// ru_maxrss of this process, in MB.
double PeakRssMb();

/// User + system CPU seconds this process has used so far.
double CpuSeconds();

/// Checks that must hold before timing starts: on failure prints `what`
/// and the status, and exits with code 3 without printing a result.
void MustOk(const lps::Status& status, const std::string& what);
void MustHold(bool ok, const std::string& what);

/// Appends <name>_p50_ms, the tail <name>_<pNN>_ms chosen by
/// TailPercentileFor (when it is above the median) and <name>_samples.
void AddLatencyNotes(const std::string& name,
                     const std::vector<double>& samples_ms,
                     std::vector<Metric>* notes);

/// Median wall time of `setups` repetitions of `setup`, each after an
/// untimed `teardown` of the previous one; the caller keeps the state
/// of the last repetition.
double MedianSetupSeconds(int setups, const std::function<void()>& teardown,
                          const std::function<void()>& setup);

// ---- Serving -------------------------------------------------------------

/// What the serving loops learn from every batch.
struct ServeLog {
  std::vector<double> latency_ms;     // open loop: due -> batch end, or +inf
  std::vector<double> queue_wait_ms;  // open loop: due -> batch start
  std::vector<double> batch_ms;
  std::vector<double> batch_size;
  std::vector<double> service_ms;     // ServeAnswer::micros
  std::vector<double> answer_rows;
  std::vector<uint32_t> keys;         // every request's key, in order
  Lateness late;
  uint64_t correct = 0;
  uint64_t next_request_id = 1;
};

/// One request the load generator wants served, plus its check.
struct ReadOp {
  lps::serve::ServeRequest request;
  uint32_t key = 0;
  int kind = 0;  // workload-defined query kind, handed back to check
};

struct ServeHooks {
  /// Produces the next request (a deterministic sequence per seed).
  std::function<ReadOp()> make;
  /// Called right before each ExecuteBatch.
  std::function<void()> before_batch;
  /// Oracle for one answer; called after its batch returns.
  std::function<bool(const ReadOp&, const lps::serve::ServeAnswer&)> check;
};

/// Open loop: request i falls due at start + i / rate; every request
/// that is due joins the next batch, and its latency runs from its due
/// time to the end of that batch, so a stall also delays the requests
/// that fall due behind it. Runs for `seconds`.
void RunOpenLoop(lps::serve::QueryServer* server, double rate,
                 double seconds, const ServeHooks& hooks, OpCounts* ops,
                 ServeLog* log);

/// Closed loop: back-to-back batches of `batch` requests for `seconds`;
/// returns correct reads completed per second at the median batch time.
double RunClosedLoop(lps::serve::QueryServer* server, size_t batch,
                     double seconds, const ServeHooks& hooks, OpCounts* ops,
                     ServeLog* log);

/// Serves one batch of `batch` requests outside any measurement; true
/// when every answer passed its check.
bool WarmUp(lps::serve::QueryServer* server, size_t batch,
            const ServeHooks& hooks);

/// Per-layer serve metrics from a log and the server counters gained
/// over the same interval.
void FillServeLayer(const ServeLog& log, const lps::serve::ServeStats& before,
                    const lps::serve::ServeStats& after, MetricTable* layer);

/// Span self time per module into <module>.self_ms, and the span count.
void FillTraceLayer(MetricTable* layer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
