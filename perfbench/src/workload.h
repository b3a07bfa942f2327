#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  /// Length of the timed phase. A traced run splits it into an untraced
  /// and a traced half.
  double seconds = 10;
  bool trace = false;
  /// Directory for the snapshot file the run writes and removes.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Human-readable context (sample counts, which percentile); not part of
  /// the JSON result.
  std::string note;
  /// Printed in the table only, not in the JSON result.
  bool table_only = false;
};

struct Report {
  /// Service calls plus result checks attempted, and how many of them
  /// failed (a non-OK status or a result that differs from its reference).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failure, for stderr.
  std::vector<std::string> problems;
  /// End-to-end metrics on an untraced run, per-layer metrics on a traced
  /// one.
  std::vector<Metric> metrics;
};

/// Names of the workloads RunWorkload accepts.
std::vector<std::string> WorkloadNames();

/// Runs one workload. Returns false when the run could not produce metrics
/// (unknown workload, snapshot write or open failure); `report->problems`
/// says why.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench
