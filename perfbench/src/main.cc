// lps_e2e: the end-to-end benchmark program.
//
//   lps_e2e --workload serve_social|churn_serve|set_fixpoint
//           --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one workload in this process, checks every answer against an
// engine-free oracle, prints the headline metrics and workload
// properties as "name value unit" lines, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. Untraced (--trace 0)
// the metrics are the end-to-end table; traced (--trace 1) the
// per-layer table, and the spans go to --trace-out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

using perfbench::Metric;

int Usage() {
  std::fprintf(stderr,
               "usage: lps_e2e --workload serve_social|churn_serve|"
               "set_fixpoint --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  return 2;
}

void PrintJson(const perfbench::RunResult& r,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.ops.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.ops.attempted());
  out += ", \"failed\": " + std::to_string(r.ops.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " +
           perfbench::JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  perfbench::RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds) return Usage();

  perfbench::RunFn run = nullptr;
  if (workload == "serve_social") run = perfbench::RunServeSocial;
  if (workload == "churn_serve") run = perfbench::RunChurnServe;
  if (workload == "set_fixpoint") run = perfbench::RunSetFixpoint;
  if (run == nullptr) return Usage();

  perfbench::RunResult r = run(config);
  const double attempted = static_cast<double>(r.ops.attempted());
  r.layer.Set("failed_share",
              attempted > 0 ? static_cast<double>(r.ops.failed()) / attempted
                            : 0);
  if (config.trace) {
    perfbench::FillTraceLayer(&r.layer);
    if (!trace_out.empty() && !perfbench::Trace().Write(trace_out)) {
      std::fprintf(stderr, "lps_e2e: cannot write spans to %s\n",
                   trace_out.c_str());
      return 4;
    }
  }

  for (const auto& [op, e] : r.ops.ops()) {
    std::printf("ops %s attempted=%llu failed=%llu\n", op.c_str(),
                static_cast<unsigned long long>(e.attempted),
                static_cast<unsigned long long>(e.failed));
  }
  for (const Metric& m : r.notes) {
    std::printf("note %s %s %s\n", m.name.c_str(),
                perfbench::JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  const std::vector<Metric>& metrics =
      config.trace ? r.layer.metrics() : r.e2e.metrics();
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(),
                perfbench::JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  PrintJson(r, metrics);
  return 0;
}
