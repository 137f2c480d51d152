// Wall-clock benchmark of the verified serving stack.
//
//   perfbench --workload <serve-mix|verify-batch|ingest-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints every metric with its unit, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-mix|verify-batch|"
               "ingest-mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  std::exit(2);
}

bool ParseUnsigned(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = perfbench::KnownWorkload(value);
    } else if (flag == "--seed") {
      have_seed = ParseUnsigned(value, &opt.seed);
    } else if (flag == "--seconds") {
      have_seconds = ParseUnsigned(value, &n) && n >= 1 && n <= 600;
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) Usage();

  perfbench::Outcome out = perfbench::RunWorkload(opt);

  std::printf("workload %s, seed %llu, %g s window, %s\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const auto* list : {&out.metrics, &out.extra}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("  %-40s %14.4f %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    }
  }
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
