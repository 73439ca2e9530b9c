// Span recording for the traced run (--trace 1). The benchmark wraps
// every public call it makes into the library in a Span named after the
// call and tagged with the module that owns it; spans nest through a
// per-thread stack of open spans. Serving requests get a request span
// (due -> batch start -> batch end) whose parent is their batch.
// Spans stay in memory and are written out once, when the run ends.
// Disabled, a Span costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Record {
    const char* name = "";
    const char* module = "";
    uint32_t id = 0;      // 1-based
    uint32_t parent = 0;  // 0 = root
    uint64_t request = 0; // 0 = a call span, else a serving request id
    int64_t start_ns = 0;
    int64_t mid_ns = 0;   // request spans: when their batch started
    int64_t end_ns = 0;
  };

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a call span under this thread's innermost open span.
  uint32_t Open(const char* name, const char* module);
  void Close(uint32_t id);

  /// Records one serving request served by batch span `batch`.
  void Request(uint64_t request_id, uint32_t batch, Clock::time_point due,
               Clock::time_point batch_start, Clock::time_point batch_end);

  size_t size() const;
  /// Per module: total span time minus the time its child call spans
  /// cover, in ms. Request spans are waits, not work, and are left out.
  std::map<std::string, double> SelfMsByModule() const;
  /// Writes every span as one JSON object per line; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  const Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_; index = id - 1
};

/// The process-wide tracer the workloads record into.
Tracer& Trace();

/// RAII call span on Trace().
class Span {
 public:
  Span(const char* name, const char* module)
      : id_(Trace().enabled() ? Trace().Open(name, module) : 0) {}
  ~Span() {
    if (id_ != 0) Trace().Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint32_t id() const { return id_; }

 private:
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
