// Service benchmark for trajsearch.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Generates the workload's corpus and queries from the seed, serves them
// through QueryService from a v4 snapshot, checks results against a
// SearchEngine over the flattened corpus, and prints a table of metrics
// followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports end-to-end metrics, --trace 1 per-layer metrics. Exits
// 1 when any check failed, 2 on bad arguments or a failed set-up.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::RunOptions;

int Usage(const char* problem) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload <", problem);
  const auto names = perfbench::WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", names[i].c_str());
  }
  std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1> "
                       "[--workdir <dir>]\n");
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed glibc malloc settings, so a run's allocator state does not depend
  // on the order in which its first large buffers were freed:
  // - one arena for every thread. With one arena per worker, which worker
  //   ran a compaction decided where its freed 28 MB column buffers stayed
  //   resident, and porto-live's peak_rss_mb moved by up to 90 MB between
  //   runs of the same seed;
  // - the mmap and trim thresholds at the ceiling glibc's dynamic threshold
  //   rises to. Left dynamic, an ingest round sometimes got its delta
  //   chunks from freshly faulted pages and sometimes from reused ones,
  //   and appends_per_s on the read-only workloads moved 2-3x per round.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  RunOptions options;
  options.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--seed" && ParseNumber(value, &number) && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) &&
               number > 0 && number <= 120) {
      options.seconds = number;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");

  Report report;
  const bool ran = perfbench::RunWorkload(options, &report);
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  if (!ran) return 2;

  const double error_rate =
      static_cast<double>(report.failed) /
      static_cast<double>(report.attempted == 0 ? 1 : report.attempted);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& metric : report.metrics) {
    std::printf("  %-28s %16.6g %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
  std::printf("  %-28s %16.6g %-6s %llu failed of %llu attempted\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  const char* separator = "\"";
  for (const Metric& metric : report.metrics) {
    if (metric.table_only) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += separator + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    separator = ", \"";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 ? 0 : 1;
}
