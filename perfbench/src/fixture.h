#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

// The set-up every workload shares: a composite-keyed S relation certified
// by the DA (attribute signatures and join partitions on), a 4-shard
// ShardedQueryServer on the default ServerConfig loaded through the update
// stream, the lazy SigCache, and a few rho-periods of update history. The
// fixture also owns the DA writer (one update or one period close at a
// time) and the reference model the serve-mix oracle checks rows against.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/data_aggregator.h"
#include "server/config.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"
#include "trace.h"

namespace perfbench {

struct Sizes {
  uint64_t distinct_b = 1024;     // distinct B values of S
  uint32_t n_attrs = 4;
  uint32_t max_dups = 3;          // rows per B value: 1..max_dups
  size_t shards = 4;
  size_t sigcache_pairs = 8;      // lazy SigCache pairs per shard
  size_t values_per_partition = 8;
  double bloom_bits_per_value = 8.0;
  size_t history_periods = 10;
  size_t history_updates_per_period = 20;
};

/// Key -> attribute values of every live S row.
using Reference = std::map<int64_t, std::vector<int64_t>>;

/// Timings of the DA writer: the set-up history and the ingest-mix writer
/// both fill one.
struct WriterLog {
  enum Kind { kModify = 0, kInsert = 1, kDelete = 2 };
  std::vector<double> sign_us[3];       // DA call per update kind
  std::vector<double> push_update_us;   // UpdateStream::PushUpdate
  std::vector<double> publish_summary_ms;
  std::vector<double> freshness_lag_ms;  // period due -> epoch published
  uint64_t updates = 0;
  uint64_t signatures = 0;  // signatures_issued() delta over the updates
  uint64_t failures = 0;    // DA calls that returned an error
  double busy_s = 0;        // time spent inside writer calls
  double wall_s = 0;        // set-up history only: its whole duration
};

/// The epoch readers are served from now: the one stamped on the descriptor
/// PinCurrentEpoch() returns. The freshness tracker is not used for this,
/// because PublishEpoch advances it just before it swaps the descriptor in:
/// for that moment the tracker names an epoch no reader can be served yet.
uint64_t PublishedEpoch(const authdb::ShardedQueryServer& server);

/// Blocks until the server's published epoch reaches `target`, polling
/// PublishedEpoch() every 50 us and calling `on_poll` (if set) with the
/// time of each poll. Returns the time the epoch was first seen.
int64_t WaitForEpoch(const authdb::ShardedQueryServer& server, uint64_t target,
                     const std::function<void(int64_t)>& on_poll = nullptr);

class Fixture {
 public:
  /// Runs the whole set-up. Aborts the process if any step fails.
  Fixture(const Sizes& sizes, uint64_t seed);
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  /// The update kinds of one rho-period of `n` updates: exactly n/10
  /// inserts, n/10 deletes and the rest modifies, in seeded random order.
  /// A fixed composition keeps the period's DA work the same across seeds.
  static std::vector<WriterLog::Kind> PeriodKinds(authdb::Rng* rng, size_t n);
  /// One DA update of the given kind on a random key, pushed to the
  /// stream. Runs on the writer thread only.
  void WriteOne(WriterLog::Kind kind, authdb::Rng* rng, WriterLog* log,
                SpanLog* spans);
  /// Closes the current rho-period: PublishSummary, the recertifications,
  /// then PushSummary with the partition refresh. Returns the epoch that
  /// makes the period visible.
  uint64_t ClosePeriod(WriterLog* log, SpanLog* spans);

  const Sizes& sizes() const { return sizes_; }
  const authdb::Clock& clock() const { return clock_; }
  authdb::DataAggregator& da() { return *da_; }
  authdb::ShardedQueryServer& server() { return *server_; }
  authdb::UpdateStream& stream() { return *stream_; }
  const Reference& reference() const { return reference_; }

  double bulk_load_s() const { return bulk_load_s_; }
  const WriterLog& history() const { return history_; }
  /// Server and stream counters over the set-up history.
  const authdb::ServerMetrics& history_metrics() const {
    return history_metrics_;
  }

 private:
  int64_t key_hi() const;
  int64_t PickLiveKey(authdb::Rng* rng) const;
  void AddLive(int64_t key);
  void RemoveLive(int64_t key);

  Sizes sizes_;
  authdb::SystemClock clock_;
  authdb::Rng da_rng_;
  authdb::ServerConfig config_;
  std::unique_ptr<authdb::DataAggregator> da_;
  std::unique_ptr<authdb::ShardedQueryServer> server_;
  std::unique_ptr<authdb::UpdateStream> stream_;
  Reference reference_;
  std::vector<int64_t> live_;                     // live keys, any order
  std::unordered_map<int64_t, size_t> live_pos_;  // key -> index in live_
  double bulk_load_s_ = 0;
  WriterLog history_;
  authdb::ServerMetrics history_metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
