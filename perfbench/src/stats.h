// Accounting helpers: percentiles under the benchmark's reporting rule,
// failed operations counted as infinitely late, per-operation
// attempted/failed counts, and the metric lists a run prints.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

constexpr double kInfinitelyLate = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (p in [0, 100]) of unsorted `samples`;
/// 0 for an empty list. +inf samples (failed operations) sort last.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// The reporting rule for tails: the highest percentile on the ladder
/// 99.9, 99.5, 99, 98, 97.5, 95, 90, 80, 75, 50 that leaves at least
/// ten samples beyond it; 50 when even that has fewer (so small runs
/// report a median, never an unsupported tail).
double TailPercentileFor(size_t samples);

/// Renders a percentile for a metric name: 99 -> "p99", 97.5 -> "p97.5".
std::string PercentileLabel(double p);

/// Attempted/failed counts per operation type ("read", "commit", ...).
class OpCounts {
 public:
  void Attempt(const std::string& op, bool failed) {
    Entry& e = ops_[op];
    ++e.attempted;
    if (failed) ++e.failed;
  }
  void Merge(const OpCounts& other) {
    for (const auto& [op, e] : other.ops_) {
      ops_[op].attempted += e.attempted;
      ops_[op].failed += e.failed;
    }
  }
  uint64_t attempted() const;
  uint64_t failed() const;
  const auto& ops() const { return ops_; }

 private:
  struct Entry {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Entry> ops_;
};

/// How far behind its schedule an open-loop generator ran: each time it
/// sleeps until a request's due time, the oversleep is one sample.
/// Requests issued late because a batch was still running count in
/// their queue wait instead (serve.queue_wait_ms).
class Lateness {
 public:
  void Record(double late_ms) { samples_.push_back(late_ms); }
  double Max() const;
  double P(double p) const { return Percentile(samples_, p); }

 private:
  std::vector<double> samples_;
};

/// Metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A named metric table in a fixed order; Set() on an unknown name is a
/// programming error and aborts, so a run can never print a metric that
/// BENCHMARK.json does not declare.
class MetricTable {
 public:
  explicit MetricTable(std::vector<Metric> declared)
      : metrics_(std::move(declared)) {}
  void Set(const std::string& name, double value);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The metrics every untraced run prints (BENCHMARK.json end_to_end)
/// and every traced run prints (BENCHMARK.json per_layer), all zero.
MetricTable EndToEndTable();
MetricTable PerLayerTable();

/// Formats a number for JSON: full precision, inf clamped to 1e300.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
