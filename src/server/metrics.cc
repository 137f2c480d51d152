#include "server/metrics.h"

namespace authdb {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

using Flat = std::vector<std::pair<std::string, double>>;

template <typename S, size_t N>
void Put(const MetricDef<S> (&rows)[N], const S& s, const std::string& suffix,
         Flat* out) {
  for (const MetricDef<S>& row : rows)
    out->emplace_back(row.name + suffix, static_cast<double>(s.*row.member));
}

template <typename S, size_t N>
void SubtractCounters(const MetricDef<S> (&rows)[N], const S& since, S* d) {
  for (const MetricDef<S>& row : rows) {
    if (row.kind != MetricKind::kCounter) continue;
    uint64_t& v = d->*row.member;
    const uint64_t then = since.*row.member;
    v = v >= then ? v - then : 0;
  }
}

template <typename S, size_t N>
void Fold(const MetricDef<S> (&rows)[N], const S& tally,
          std::array<std::atomic<uint64_t>, N>* cells) {
  for (size_t i = 0; i < N; ++i) {
    const uint64_t v = tally.*rows[i].member;
    if (v == 0) continue;  // not set by this tally
    if (rows[i].kind == MetricKind::kCounter) {
      (*cells)[i].fetch_add(v, kRelaxed);
    } else {
      (*cells)[i].store(v, kRelaxed);
    }
  }
}

template <typename S, size_t N>
void Load(const MetricDef<S> (&rows)[N],
          const std::array<std::atomic<uint64_t>, N>& cells, S* out) {
  for (size_t i = 0; i < N; ++i) out->*rows[i].member = cells[i].load(kRelaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerMetrics

Flat ServerMetrics::Flatten() const {
  Flat out;
  Put(kExecMetrics, exec, "", &out);
  for (size_t s = 0; s < exec.shard_busy.size(); ++s)
    Put(kShardBusyMetrics, exec.shard_busy[s], std::to_string(s), &out);
  Put(kAdmissionMetrics, admission, "", &out);
  Put(kEpochMetrics, epoch, "", &out);
  Put(kIngestMetrics, ingest, "", &out);
  return out;
}

double ServerMetrics::Value(const std::string& name) const {
  for (const auto& [n, v] : Flatten()) {
    if (n == name) return v;
  }
  return 0.0;
}

ServerMetrics ServerMetrics::Delta(const ServerMetrics& since) const {
  ServerMetrics d = *this;
  SubtractCounters(kExecMetrics, since.exec, &d.exec);
  for (size_t s = 0;
       s < d.exec.shard_busy.size() && s < since.exec.shard_busy.size(); ++s)
    SubtractCounters(kShardBusyMetrics, since.exec.shard_busy[s],
                     &d.exec.shard_busy[s]);
  SubtractCounters(kAdmissionMetrics, since.admission, &d.admission);
  SubtractCounters(kEpochMetrics, since.epoch, &d.epoch);
  SubtractCounters(kIngestMetrics, since.ingest, &d.ingest);
  return d;
}

// ---------------------------------------------------------------------------
// MetricsCore

MetricsCore::MetricsCore(size_t shards) : shard_busy_(shards) {}

void MetricsCore::FoldBatch(const ServerMetrics::Exec& tally) {
  Fold(ServerMetrics::kExecMetrics, tally, &exec_);
  for (size_t s = 0; s < tally.shard_busy.size() && s < shard_busy_.size();
       ++s)
    Fold(ServerMetrics::kShardBusyMetrics, tally.shard_busy[s],
         &shard_busy_[s]);
}

void MetricsCore::RecordPublish(uint64_t backpressure_us) {
  ServerMetrics::Epoch tally;
  tally.published_total = 1;
  tally.publish_backpressure_us = backpressure_us;
  Fold(ServerMetrics::kEpochMetrics, tally, &epoch_);
}

void MetricsCore::RecordPartitionRefresh(uint64_t delta_merges,
                                         uint64_t full_rebuilds) {
  ServerMetrics::Exec tally;
  tally.bloom_delta_merges = delta_merges;
  tally.bloom_full_rebuilds = full_rebuilds;
  FoldBatch(tally);
}

void MetricsCore::Snapshot(ServerMetrics* out) const {
  Load(ServerMetrics::kExecMetrics, exec_, &out->exec);
  out->exec.shard_busy.resize(shard_busy_.size());
  for (size_t s = 0; s < shard_busy_.size(); ++s)
    Load(ServerMetrics::kShardBusyMetrics, shard_busy_[s],
         &out->exec.shard_busy[s]);
  Load(ServerMetrics::kEpochMetrics, epoch_, &out->epoch);
}

}  // namespace authdb
