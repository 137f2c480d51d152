// SigCache tuning: plan a signature cache for your workload's query-length
// profile (Algorithm 1), pin it at the query server, and watch the proof
// construction cost drop (Section 4).
//
// Build & run:  ./build/examples/sigcache_tuning
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

using namespace authdb;

int main() {
  auto ctx = BasContext::Default();
  SystemClock clock;
  Rng rng(5);

  const uint64_t kN = 4096;
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.buffer_pages = 1024;
  DataAggregator da(ctx, &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t k = 0; k < static_cast<int64_t>(kN); ++k) {
    Record r;
    r.attrs = {k, k * 3};
    records.push_back(r);
  }
  ShardedQueryServer qs(ctx, ShardRouter({}), ServerConfig{});
  auto stream = da.BulkLoad(std::move(records));
  if (!stream.ok() || !qs.ApplyUpdates(stream.value()).ok()) return 1;

  // 1. Plan against the expected query-cardinality distribution.
  auto dist = CardinalityDist::Harmonic(kN);
  auto plan = SigCachePlanner::Plan(kN, dist, /*max_pairs=*/8);
  std::printf("planned %zu cached nodes; expected additions/query: %.1f -> "
              "%.1f (%.0f%% saved)\n",
              plan.chosen.size(), plan.base_cost,
              plan.cost_after_pairs.back(),
              100 * (plan.base_cost - plan.cost_after_pairs.back()) /
                  plan.base_cost);

  // 2. Pin a cache at the query server (lazy maintenance, the paper's
  //    recommended strategy). The server runs the same planner per shard
  //    against the shard's size — here one shard holding all kN records.
  qs.EnableSigCache(SigCache::RefreshMode::kLazy, /*max_pairs=*/8);

  // 3. Serve queries; cached aggregates cut the EC additions. Answers stay
  //    byte-for-byte verifiable.
  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec,
                        BasContext::HashMode::kFast);
  size_t adds_cold = 0, adds_warm = 0, warm_hits = 0, n_queries = 50;
  for (size_t round = 0; round < 2; ++round) {
    const ServerMetrics before = qs.Metrics();
    Rng local(17);
    for (size_t i = 0; i < n_queries; ++i) {
      uint64_t q = 1 + local.Uniform(kN / 2);
      int64_t lo = static_cast<int64_t>(local.Uniform(kN - q));
      auto ans = qs.Select(lo, lo + static_cast<int64_t>(q) - 1);
      if (!ans.ok()) return 1;
      Status ok = client.VerifySelectionStatic(
          lo, lo + static_cast<int64_t>(q) - 1, ans.value());
      if (!ok.ok()) {
        std::printf("verification failed: %s\n", ok.ToString().c_str());
        return 1;
      }
    }
    const ServerMetrics::Exec pass = qs.Metrics().Delta(before).exec;
    (round == 0 ? adds_cold : adds_warm) = pass.agg_point_adds;
    if (round == 1) warm_hits = pass.agg_cache_hits;
  }
  std::printf("EC additions over %zu queries: first pass %zu (fills the "
              "cache), second pass %zu (%zu cached aggregates reused)\n",
              n_queries, adds_cold, adds_warm, warm_hits);

  // 4. An update starts a new chain generation; cached windows of the old
  //    one are never reused, so correctness is unaffected.
  auto upd = da.ModifyRecord(2048, {2048, 777});
  if (!upd.ok() || !qs.ApplyUpdate(upd.value()).ok()) return 1;
  auto ans = qs.Select(2000, 2100);
  if (!ans.ok()) return 1;
  Status ok = client.VerifySelectionStatic(2000, 2100, ans.value());
  std::printf("after update through cached interval: %s\n",
              ok.ToString().c_str());
  return ok.ok() ? 0 : 1;
}
