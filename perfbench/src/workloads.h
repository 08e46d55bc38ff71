// The three workloads (see ../README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics, decorators absent. true: per-layer metrics
  /// from a run with the tracing decorators installed.
  bool trace = false;
  /// Telemetry snapshots and span files are written here.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra human-readable lines printed before the result.
  std::vector<std::string> notes;
};

Report run_workload(const Options& opt);

/// Same seed -> identical generated inputs; different seed -> different.
bool self_test();

}  // namespace perfbench
