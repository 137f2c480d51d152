#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;    // serve-mix | verify-batch | ingest-mix
  uint64_t seed = 1;
  double seconds = 10;     // length of the timed window
  bool trace = false;      // per-layer (traced) run instead of end-to-end
  std::string trace_out;   // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // what a ratio or per-item figure is taken over
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;       // the reported set (JSON)
  std::vector<Metric> extra;         // printed only (no gate)
  std::vector<std::string> problems; // why `correct` is false
};

bool KnownWorkload(const std::string& name);

/// Runs one workload. Exits the process with a non-zero code, without a
/// result, when the oracle-liveness check fails.
Outcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
