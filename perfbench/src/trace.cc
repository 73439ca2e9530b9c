#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Open call spans of the calling thread, innermost last.
thread_local std::vector<uint32_t> open_spans;

}  // namespace

Tracer& Trace() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Open(const char* name, const char* module) {
  Record r;
  r.name = name;
  r.module = module;
  r.parent = open_spans.empty() ? 0 : open_spans.back();
  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<uint32_t>(spans_.size() + 1);
    r.id = id;
    r.start_ns = Ns(Clock::now());
    spans_.push_back(r);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::Close(uint32_t id) {
  const int64_t end = Ns(Clock::now());
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

void Tracer::Request(uint64_t request_id, uint32_t batch,
                     Clock::time_point due, Clock::time_point batch_start,
                     Clock::time_point batch_end) {
  Record r;
  r.name = "request";
  r.module = "serve";
  r.parent = batch;
  r.request = request_id;
  r.start_ns = Ns(due);
  r.mid_ns = Ns(batch_start);
  r.end_ns = Ns(batch_end);
  std::lock_guard<std::mutex> lock(mu_);
  r.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(r);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByModule() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Record& r : spans_) {
    if (r.request == 0 && r.parent != 0) {
      children[r.parent - 1].push_back({r.start_ns, r.end_ns});
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.request != 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = r.start_ns;
    for (auto [s, e] : kids) {
      s = std::max(s, cursor);
      e = std::min(e, r.end_ns);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self_ms[r.module] +=
        static_cast<double>(r.end_ns - r.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& r : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"module\":\"%s\","
                 "\"request\":%llu,\"start_us\":%.3f,\"batch_start_us\":%.3f,"
                 "\"end_us\":%.3f}\n",
                 r.id, r.parent, r.name, r.module,
                 static_cast<unsigned long long>(r.request),
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.mid_ns) / 1e3,
                 static_cast<double>(r.end_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
