#include "fixture.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <utility>

#include "core/join.h"
#include "workload/generator.h"

namespace perfbench {

using authdb::JoinBValue;
using authdb::JoinCompositeKey;

namespace {

void Require(bool cond, const char* what) {
  if (cond) return;
  std::fprintf(stderr, "perfbench: set-up failed: %s\n", what);
  std::exit(2);
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// Dup indices a fresh insert may use; the generator uses 0..max_dups-1.
constexpr uint32_t kInsertDupSlots = 8;

}  // namespace

uint64_t PublishedEpoch(const authdb::ShardedQueryServer& server) {
  return server.PinCurrentEpoch()->epoch;
}

int64_t WaitForEpoch(const authdb::ShardedQueryServer& server, uint64_t target,
                     const std::function<void(int64_t)>& on_poll) {
  while (PublishedEpoch(server) < target) {
    if (on_poll) on_poll(NowNs());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return NowNs();
}

Fixture::Fixture(const Sizes& sizes, uint64_t seed)
    : sizes_(sizes), da_rng_(seed * 0x2545F4914F6CDD1DULL + 1) {
  authdb::WorkloadGenerator::Config wcfg;
  wcfg.n_records = sizes.distinct_b;
  wcfg.n_attrs = sizes.n_attrs;
  wcfg.join_max_dups = sizes.max_dups;
  wcfg.seed = seed;
  std::vector<authdb::Record> rows =
      authdb::WorkloadGenerator(wcfg).MakeCompositeRecords();
  for (const authdb::Record& r : rows) {
    reference_[r.key()] = r.attrs;
    AddLive(r.key());
  }

  auto ctx = authdb::BasContext::Default();
  authdb::DataAggregator::Options da_opt;
  da_opt.sign_attributes = true;  // projections are served
  da_ = std::make_unique<authdb::DataAggregator>(ctx, &clock_, &da_rng_,
                                                 da_opt);
  int64_t t0 = NowNs();
  auto bulk = da_->BulkLoad(std::move(rows));
  bulk_load_s_ = Seconds(t0, NowNs());
  Require(bulk.ok(), "BulkLoad");
  da_->EnableJoinPartitions(sizes.values_per_partition,
                            sizes.bloom_bits_per_value);

  Require(config_.Validated().ok(), "ServerConfig");
  server_ = std::make_unique<authdb::ShardedQueryServer>(
      ctx, authdb::ShardRouter::Uniform(sizes.shards, 0, key_hi()), config_);
  {
    // Bulk messages ride their own stream so the high-water marks of the
    // measured stream below start from the steady state.
    authdb::UpdateStream loader(server_.get(), config_);
    for (authdb::SignedRecordUpdate& msg : bulk.value())
      loader.PushUpdate(std::move(msg));
    authdb::DataAggregator::PeriodOutput p0 = da_->PublishSummary();
    for (authdb::SignedRecordUpdate& msg : p0.recertifications)
      loader.PushUpdate(std::move(msg));
    loader.PushSummary(std::move(p0.summary), da_->join_partitions());
    loader.Close();
    Require(loader.Metrics().ingest.apply_failures == 0, "bulk apply");
  }
  server_->EnableSigCache(authdb::SigCache::RefreshMode::kLazy,
                          sizes.sigcache_pairs);
  stream_ = std::make_unique<authdb::UpdateStream>(server_.get(), config_);
  const authdb::ServerMetrics before_history = stream_->Metrics();

  authdb::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  const int64_t history_start = NowNs();
  for (size_t p = 0; p < sizes.history_periods; ++p) {
    for (WriterLog::Kind kind :
         PeriodKinds(&rng, sizes.history_updates_per_period))
      WriteOne(kind, &rng, &history_, nullptr);
    int64_t due = NowNs();
    uint64_t target = ClosePeriod(&history_, nullptr);
    history_.freshness_lag_ms.push_back(
        Seconds(due, WaitForEpoch(*server_, target)) * 1e3);
  }
  stream_->Flush();
  history_.wall_s = Seconds(history_start, NowNs());
  history_metrics_ = stream_->Metrics().Delta(before_history);
  Require(history_.failures == 0, "history update");
  Require(history_metrics_.ingest.apply_failures == 0, "history apply");
}

Fixture::~Fixture() {
  if (stream_) stream_->Close();
}

int64_t Fixture::key_hi() const {
  return JoinCompositeKey(static_cast<int64_t>(sizes_.distinct_b) - 1,
                          authdb::kJoinMaxDup);
}

int64_t Fixture::PickLiveKey(authdb::Rng* rng) const {
  return live_[rng->Uniform(live_.size())];
}

void Fixture::AddLive(int64_t key) {
  live_pos_[key] = live_.size();
  live_.push_back(key);
}

void Fixture::RemoveLive(int64_t key) {
  size_t pos = live_pos_.at(key);
  live_pos_[live_.back()] = pos;
  live_[pos] = live_.back();
  live_.pop_back();
  live_pos_.erase(key);
}

std::vector<WriterLog::Kind> Fixture::PeriodKinds(authdb::Rng* rng,
                                                  size_t n) {
  std::vector<WriterLog::Kind> kinds(n, WriterLog::kModify);
  for (size_t i = 0; i < n / 10; ++i) {
    kinds[2 * i] = WriterLog::kInsert;
    kinds[2 * i + 1] = WriterLog::kDelete;
  }
  for (size_t i = n; i > 1; --i)
    std::swap(kinds[i - 1], kinds[rng->Uniform(i)]);
  return kinds;
}

void Fixture::WriteOne(WriterLog::Kind kind, authdb::Rng* rng, WriterLog* log,
                       SpanLog* spans) {
  int64_t t0 = NowNs();
  ScopedSpan root(spans, kWriterUpdate);
  int64_t key = 0;
  std::vector<int64_t> attrs;
  if (kind == WriterLog::kInsert) {
    // A fresh dup slot of an existing B value keeps the key space and the
    // join domain fixed; retry on an occupied slot.
    do {
      int64_t b = static_cast<int64_t>(rng->Uniform(sizes_.distinct_b));
      key = JoinCompositeKey(
          b, static_cast<uint32_t>(rng->Uniform(kInsertDupSlots)));
    } while (live_pos_.count(key) != 0);
  } else {
    key = PickLiveKey(rng);
  }
  if (kind != WriterLog::kDelete) {
    attrs.resize(sizes_.n_attrs);
    attrs[0] = key;
    attrs[1] = JoinBValue(key);
    for (uint32_t a = 2; a < sizes_.n_attrs; ++a)
      attrs[a] = static_cast<int64_t>(rng->Next() >> 16);
  }

  uint64_t sigs_before = da_->signatures_issued();
  int64_t s0 = NowNs();
  authdb::Result<authdb::SignedRecordUpdate> msg =
      authdb::Status::Internal("unreached");
  switch (kind) {
    case WriterLog::kModify: {
      ScopedSpan s(spans, kDaModify);
      msg = da_->ModifyRecord(key, attrs);
      break;
    }
    case WriterLog::kInsert: {
      ScopedSpan s(spans, kDaInsert);
      msg = da_->InsertRecord(attrs);
      break;
    }
    case WriterLog::kDelete: {
      ScopedSpan s(spans, kDaDelete);
      msg = da_->DeleteRecord(key);
      break;
    }
  }
  int64_t s1 = NowNs();
  log->sign_us[kind].push_back(static_cast<double>(s1 - s0) * 1e-3);
  log->signatures += da_->signatures_issued() - sigs_before;
  ++log->updates;
  if (!msg.ok()) {
    ++log->failures;
    log->busy_s += Seconds(t0, NowNs());
    return;
  }
  if (kind == WriterLog::kDelete) {
    reference_.erase(key);
    RemoveLive(key);
  } else {
    if (kind == WriterLog::kInsert) AddLive(key);
    reference_[key] = std::move(attrs);
  }
  {
    ScopedSpan s(spans, kPushUpdate);
    int64_t p0 = NowNs();
    stream_->PushUpdate(std::move(msg.value()));
    log->push_update_us.push_back(static_cast<double>(NowNs() - p0) * 1e-3);
  }
  log->busy_s += Seconds(t0, NowNs());
}

uint64_t Fixture::ClosePeriod(WriterLog* log, SpanLog* spans) {
  int64_t t0 = NowNs();
  ScopedSpan root(spans, kWriterClose);
  authdb::DataAggregator::PeriodOutput out;
  {
    ScopedSpan s(spans, kDaPublish);
    out = da_->PublishSummary();
  }
  log->publish_summary_ms.push_back(Seconds(t0, NowNs()) * 1e3);
  const uint64_t target = out.summary.seq + 1;
  for (authdb::SignedRecordUpdate& msg : out.recertifications) {
    ScopedSpan s(spans, kPushUpdate);
    int64_t p0 = NowNs();
    stream_->PushUpdate(std::move(msg));
    log->push_update_us.push_back(static_cast<double>(NowNs() - p0) * 1e-3);
  }
  {
    ScopedSpan s(spans, kPushSummary);
    stream_->PushSummary(std::move(out.summary),
                         std::move(out.partition_refresh));
  }
  log->busy_s += Seconds(t0, NowNs());
  return target;
}

}  // namespace perfbench
