// Sharded serving throughput: aggregate qps of the multi-threaded sharded
// query server as the shard count grows, measured with the closed-loop
// multi-client driver (real proof construction, real stitching, real
// latencies — no simulator). The paper measures a single-threaded QS; this
// bench is the scaling story on top: K shards serve a uniform range
// workload from C concurrent clients, and speedup tracks min(K, cores).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"
#include "sim/multi_client.h"

namespace authdb {
namespace {

struct Workload {
  uint64_t n_records;
  size_t clients;
  size_t ops_per_client;
  uint64_t query_span;
  double update_fraction;
};

double RunShards(const std::shared_ptr<const BasContext>& ctx,
                 DataAggregator* da,
                 const std::vector<SignedRecordUpdate>& stream,
                 const Workload& w, size_t shards,
                 MultiClientReport* report_out) {
  ServerConfig cfg;
  ShardedQueryServer server(
      ctx, ShardRouter::Uniform(shards, 0,
                                static_cast<int64_t>(w.n_records) - 1),
      cfg);
  for (const auto& msg : stream) {
    Status s = server.ApplyUpdate(msg);
    AUTHDB_CHECK(s.ok());
  }

  std::vector<SignedRecordUpdate> updates;
  if (w.update_fraction > 0) {
    Rng urng(77);
    size_t n_updates = static_cast<size_t>(
        static_cast<double>(w.clients * w.ops_per_client) *
        w.update_fraction * 1.5);
    for (size_t i = 0; i < n_updates; ++i) {
      int64_t key = static_cast<int64_t>(urng.Uniform(w.n_records));
      auto msg = da->ModifyRecord(key, {key, static_cast<int64_t>(i)});
      AUTHDB_CHECK(msg.ok());
      updates.push_back(std::move(msg.value()));
    }
  }

  MultiClientOptions opts;
  opts.clients = w.clients;
  opts.ops_per_client = w.ops_per_client;
  opts.update_fraction = w.update_fraction;
  opts.key_lo = 0;
  opts.key_hi = static_cast<int64_t>(w.n_records) - 1;
  opts.query_span = w.query_span;
  opts.seed = 42;
  MultiClientReport report =
      RunMultiClientLoad(&server, std::move(updates), opts);
  AUTHDB_CHECK(report.failures == 0);
  if (report_out != nullptr) *report_out = report;
  return report.ops_per_second;
}

void Run(bench::BenchRun* run) {
  const bool smoke = run->smoke();
  Workload w;
  w.n_records = smoke ? 1024 : 8192;
  w.clients = 4;
  w.ops_per_client = smoke ? 50 : 400;
  w.query_span = 32;
  w.update_fraction = 0.0;  // the uniform read workload is the headline

  unsigned cores = std::thread::hardware_concurrency();
  bench::Header(
      "Sharded serving throughput (real proofs, closed-loop clients)",
      "N = " + std::to_string(w.n_records) + " records, " +
          std::to_string(w.clients) + " clients, span " +
          std::to_string(w.query_span) + "; " + std::to_string(cores) +
          " hardware threads — speedup is capped by min(shards, cores)");

  SystemClock clock;
  Rng rng(4);
  auto ctx = BasContext::Default();
  DataAggregator::Options da_opt;
  da_opt.record_len = 128;
  da_opt.piggyback_renewal = false;
  DataAggregator da(ctx, &clock, &rng, da_opt);
  std::vector<Record> records;
  for (uint64_t k = 0; k < w.n_records; ++k) {
    Record r;
    r.attrs = {static_cast<int64_t>(k), static_cast<int64_t>(k * 3)};
    records.push_back(r);
  }
  auto stream = da.BulkLoad(std::move(records));
  AUTHDB_CHECK(stream.ok());

  std::printf("\n%8s %12s %12s %12s %12s %10s\n", "shards", "qps", "mean us",
              "p50 us", "p99 us", "speedup");
  double base_qps = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    MultiClientReport report;
    double qps = RunShards(ctx, &da, stream.value(), w, shards, &report);
    if (shards == 1) base_qps = qps;
    double speedup = base_qps > 0 ? qps / base_qps : 0;
    std::printf("%8zu %12.0f %12.0f %12llu %12llu %9.2fx\n", shards, qps,
                report.query_latency.MeanMicros(),
                static_cast<unsigned long long>(
                    report.query_latency.PercentileMicros(0.50)),
                static_cast<unsigned long long>(
                    report.query_latency.PercentileMicros(0.99)),
                speedup);
    run->Metric("qps_shards_" + std::to_string(shards), qps);
    if (shards == 4) run->Metric("speedup_4_shards", speedup);
  }

  // The mixed workload: 10% pre-signed DA updates drained concurrently.
  w.update_fraction = 0.10;
  std::printf("\nWith Upd%% = 10 (pre-signed DA modifications):\n");
  std::printf("%8s %12s %14s %14s\n", "shards", "qps", "query p99 us",
              "update p99 us");
  for (size_t shards : {size_t{1}, size_t{4}}) {
    MultiClientReport report;
    double qps = RunShards(ctx, &da, stream.value(), w, shards, &report);
    std::printf("%8zu %12.0f %14llu %14llu\n", shards, qps,
                static_cast<unsigned long long>(
                    report.query_latency.PercentileMicros(0.99)),
                static_cast<unsigned long long>(
                    report.update_latency.PercentileMicros(0.99)));
    run->Metric("mixed_qps_shards_" + std::to_string(shards), qps);
  }
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "sharded_throughput");
  authdb::Run(&run);
  return 0;
}
