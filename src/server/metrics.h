#ifndef AUTHDB_SERVER_METRICS_H_
#define AUTHDB_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace authdb {

/// How Delta() and MetricsCore treat a metric.
enum class MetricKind {
  kCounter,    ///< monotonic: Delta subtracts, MetricsCore adds
  kGauge,      ///< point-in-time: both keep the latest value
  kHighWater,  ///< running maximum: Delta keeps the later value
};

/// One row of the metric registry: the field, its dotted Flatten() name
/// (for per-shard rows, a prefix the shard index is appended to), its kind,
/// and the doc the README metrics table renders.
template <typename Section>
struct MetricDef {
  uint64_t Section::*member;
  const char* name;
  MetricKind kind;
  const char* doc;
};

// The metric registry: every serving metric is declared exactly once, as an
// X(S, member, "dotted.name", kind, "doc") row of its section's list, in
// Flatten() order. Each section's uint64_t fields and its MetricDef table
// (ServerMetrics::k*Metrics) are generated from the list; Flatten(),
// Delta(), MetricsCore and the README metrics table iterate the tables.
#define AUTHDB_EXEC_METRICS(X, S)                                             \
  X(S, batches, "exec.batches", kCounter,                                     \
    "`ExecuteBatch` calls served (`Execute` is a batch of one)")              \
  X(S, plans, "exec.plans", kCounter, "plans submitted (valid or not)")       \
  X(S, invalid_plans, "exec.invalid_plans", kCounter,                         \
    "plans rejected by validation")                                           \
  X(S, shards_queried, "exec.shards_queried", kCounter,                       \
    "per-plan sub-ranges fanned out, summed")                                 \
  X(S, shard_visits, "exec.batch.shard_visits", kCounter,                     \
    "shard visits dispatched (≤ shards per batch)")                           \
  X(S, batch_finalizes, "exec.batch.finalizes", kCounter,                     \
    "shared-inversion finalizations (per-visit SigCache batch fills plus "    \
    "one per batch)")                                                         \
  X(S, agg_point_adds, "exec.agg.point_adds", kCounter,                       \
    "EC point additions during aggregation")                                  \
  X(S, agg_leaf_fetches, "exec.agg.leaf_fetches", kCounter,                   \
    "signature leaf fetches")                                                 \
  X(S, agg_cache_hits, "exec.agg.cache_hits", kCounter,                       \
    "SigCache window hits")                                                   \
  X(S, agg_refreshes, "exec.agg.refreshes", kCounter,                         \
    "SigCache window fills (lazy refreshes)")                                 \
  X(S, agg_span_hits, "exec.agg.span_hits", kCounter,                         \
    "aggregations served from epoch-barrier chunk aggregates (precomputed "   \
    "prefixes)")                                                              \
  X(S, digests_hashed, "exec.crypto.digests_hashed", kCounter,                \
    "tuple digests produced through the multi-buffer SHA front end")          \
  X(S, bloom_probes, "exec.bloom.probes", kCounter,                           \
    "join values probed against a certified partition filter (batched "       \
    "`ProbeMany`)")                                                           \
  X(S, bloom_block_hits, "exec.bloom.block_hits", kCounter,                   \
    "probes the blocked filter answered \"maybe present\"")                   \
  X(S, bloom_fp_fallbacks, "exec.bloom.fp_fallbacks", kCounter,               \
    "filter positives on absent values, resolved by boundary absence proofs") \
  X(S, bloom_delta_merges, "exec.bloom.delta_merges", kCounter,               \
    "partition refreshes installed as delta merges at the epoch barrier")     \
  X(S, bloom_full_rebuilds, "exec.bloom.full_rebuilds", kCounter,             \
    "partition refreshes installed as full certified rebuilds")               \
  X(S, last_epoch, "exec.last_epoch", kGauge,                                 \
    "epoch the most recent batch pinned")

#define AUTHDB_SHARD_BUSY_METRICS(X, S)                                  \
  X(S, visit_us, "exec.batch.shard_busy_us.", kCounter,                  \
    "shard *s* whole-visit busy time (µs), lock waits and the SigCache " \
    "fill included")                                                     \
  X(S, select_us, "exec.batch.select_us.", kCounter,                     \
    "shard *s* selection slice (µs)")                                    \
  X(S, project_us, "exec.batch.project_us.", kCounter,                   \
    "shard *s* projection slice (µs)")                                   \
  X(S, join_us, "exec.batch.join_us.", kCounter,                         \
    "shard *s* join-probe slice (µs)")

#define AUTHDB_ADMISSION_METRICS(X, S)                                        \
  X(S, enabled, "admission.enabled", kGauge,                                  \
    "1 when admission control is on")                                         \
  X(S, admitted_total, "admission.admitted_total", kCounter,                  \
    "plans granted an execution slot")                                        \
  X(S, shed_total, "admission.shed_total", kCounter,                          \
    "plans refused with `kShedRetryAfter`")                                   \
  X(S, select_admitted, "admission.select.admitted", kCounter,                \
    "selections admitted (priority lane)")                                    \
  X(S, select_shed, "admission.select.shed", kCounter,                        \
    "selections shed (priority lane)")                                        \
  X(S, project_admitted, "admission.project.admitted", kCounter,              \
    "projections admitted (bulk lane)")                                       \
  X(S, project_shed, "admission.project.shed", kCounter,                      \
    "projections shed (bulk lane)")                                           \
  X(S, join_admitted, "admission.join.admitted", kCounter,                    \
    "joins admitted (bulk lane)")                                             \
  X(S, join_shed, "admission.join.shed", kCounter, "joins shed (bulk lane)")  \
  X(S, priority_grants, "admission.priority_grants", kCounter,                \
    "slots granted to the priority lane")                                     \
  X(S, bulk_grants, "admission.bulk_grants", kCounter,                        \
    "slots granted to the bulk lane")                                         \
  X(S, starvation_grants, "admission.starvation_grants", kCounter,            \
    "bulk admitted ahead of queued priority work (starvation bound reached)") \
  X(S, queue_wait_us, "admission.queue_wait_us", kCounter,                    \
    "total intake-queue wait (µs)")                                           \
  X(S, queue_depth_max, "admission.queue_depth_max", kHighWater,              \
    "intake-queue high-water mark, both lanes")

#define AUTHDB_EPOCH_METRICS(X, S)                                         \
  X(S, current, "epoch.current", kGauge, "currently published epoch")      \
  X(S, pinned, "epoch.pinned", kGauge,                                     \
    "superseded epochs still reader-pinned")                               \
  X(S, published_total, "epoch.published_total", kCounter,                 \
    "descriptor installs (republish included)")                            \
  X(S, publish_backpressure_us, "epoch.publish_backpressure_us", kCounter, \
    "publisher time blocked on `max_pinned_epochs` (µs)")

#define AUTHDB_INGEST_METRICS(X, S)                                 \
  X(S, updates_pushed, "ingest.updates_pushed", kCounter,           \
    "`PushUpdate` calls")                                           \
  X(S, pieces_applied, "ingest.pieces_applied", kCounter,           \
    "per-shard apply operations")                                   \
  X(S, summaries_published, "ingest.summaries_published", kCounter, \
    "epoch barriers completed")                                     \
  X(S, apply_failures, "ingest.apply_failures", kCounter,           \
    "pieces a shard rejected (logged)")                             \
  X(S, queue_depth_max, "ingest.queue_depth_max", kHighWater,       \
    "shard-queue high-water mark")                                  \
  X(S, push_block_us, "ingest.push_block_us", kCounter,             \
    "producer time blocked on a full shard queue (µs)")             \
  X(S, publish_wait_us, "ingest.publish_wait_us", kCounter,         \
    "`PushSummary` → epoch publication wait, summed (µs)")

#define AUTHDB_METRIC_FIELD(S, member, name, kind, doc) uint64_t member = 0;
#define AUTHDB_METRIC_DEF(S, member, name, kind, doc) \
  {&S::member, name, MetricKind::kind, doc},

/// Per-shard busy time in microseconds. The per-kind slices cover request
/// processing inside a visit, so select_us + project_us + join_us <=
/// visit_us.
struct ShardBusy {
  AUTHDB_SHARD_BUSY_METRICS(AUTHDB_METRIC_FIELD, ShardBusy)
};

/// One consistent snapshot of every serving-side metric — the single
/// telemetry surface of the server layer. Producers:
///   * ShardedQueryServer::Metrics() fills `exec`, `admission`, `epoch`;
///   * UpdateStream::Metrics() additionally fills `ingest`.
/// The dotted names are a STABLE contract (pinned by tests/metrics_test.cc,
/// which also checks the README table against the registry) — gated bench
/// metrics hang off them, so renaming one is an API break, not a refactor.
struct ServerMetrics {
  struct Exec {
    AUTHDB_EXEC_METRICS(AUTHDB_METRIC_FIELD, Exec)
    std::vector<ShardBusy> shard_busy;  ///< indexed by shard
  } exec;

  struct Admission {
    AUTHDB_ADMISSION_METRICS(AUTHDB_METRIC_FIELD, Admission)
  } admission;

  struct Epoch {
    AUTHDB_EPOCH_METRICS(AUTHDB_METRIC_FIELD, Epoch)
  } epoch;

  struct Ingest {
    AUTHDB_INGEST_METRICS(AUTHDB_METRIC_FIELD, Ingest)
  } ingest;

  static constexpr MetricDef<Exec> kExecMetrics[] = {
      AUTHDB_EXEC_METRICS(AUTHDB_METRIC_DEF, Exec)};
  static constexpr MetricDef<ShardBusy> kShardBusyMetrics[] = {
      AUTHDB_SHARD_BUSY_METRICS(AUTHDB_METRIC_DEF, ShardBusy)};
  static constexpr MetricDef<Admission> kAdmissionMetrics[] = {
      AUTHDB_ADMISSION_METRICS(AUTHDB_METRIC_DEF, Admission)};
  static constexpr MetricDef<Epoch> kEpochMetrics[] = {
      AUTHDB_EPOCH_METRICS(AUTHDB_METRIC_DEF, Epoch)};
  static constexpr MetricDef<Ingest> kIngestMetrics[] = {
      AUTHDB_INGEST_METRICS(AUTHDB_METRIC_DEF, Ingest)};

  /// The stable dotted-name view: one (name, value) pair per registry row,
  /// per-shard rows once per shard with the shard index appended. Bench
  /// JSON and the name-stability test consume this.
  std::vector<std::pair<std::string, double>> Flatten() const;

  /// Lookup in Flatten() by exact dotted name; 0 when absent.
  double Value(const std::string& name) const;

  /// Difference `*this - since` for windowed measurement (a load run
  /// brackets itself with two snapshots): counter rows subtract; gauge and
  /// high-water rows keep this snapshot's value.
  ServerMetrics Delta(const ServerMetrics& since) const;
};

#undef AUTHDB_METRIC_FIELD
#undef AUTHDB_METRIC_DEF
#undef AUTHDB_EXEC_METRICS
#undef AUTHDB_SHARD_BUSY_METRICS
#undef AUTHDB_ADMISSION_METRICS
#undef AUTHDB_EPOCH_METRICS
#undef AUTHDB_INGEST_METRICS

/// Lock-free cumulative serving counters embedded in ShardedQueryServer:
/// one relaxed atomic per registry row of `exec`, per-shard busy time, and
/// `epoch`. ExecuteBatch folds one call's tally per call (read paths never
/// take a lock for telemetry), publishers record epoch installs and
/// partition refreshes, and Snapshot() materializes the `exec` and `epoch`
/// slices of a ServerMetrics. Snapshots are monotonic but not a
/// cross-counter atomic cut — each counter is individually exact.
class MetricsCore {
 public:
  explicit MetricsCore(size_t shards);

  /// Fold one tally: counter rows add, gauge rows (`last_epoch`) take the
  /// tally's value, busy time adds per shard. Rows a tally leaves at 0 are
  /// untouched.
  void FoldBatch(const ServerMetrics::Exec& tally);
  void RecordPublish(uint64_t backpressure_us);
  /// A partition refresh installed `delta_merges` merged deltas and
  /// `full_rebuilds` full certified filters.
  void RecordPartitionRefresh(uint64_t delta_merges, uint64_t full_rebuilds);

  /// Fill `out->exec` and the publication counters of `out->epoch` (its
  /// gauges stay 0 for the server to fill).
  void Snapshot(ServerMetrics* out) const;

 private:
  template <size_t N>
  using Cells = std::array<std::atomic<uint64_t>, N>;

  Cells<std::size(ServerMetrics::kExecMetrics)> exec_{};
  Cells<std::size(ServerMetrics::kEpochMetrics)> epoch_{};
  std::vector<Cells<std::size(ServerMetrics::kShardBusyMetrics)>> shard_busy_;
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_METRICS_H_
