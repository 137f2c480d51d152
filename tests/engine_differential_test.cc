// Differential test of the proof engine. One seeded workload drives a data
// aggregator through bulk load, random inserts, modifies and deletes, and
// rho-periods with certified partition refreshes; a 1-shard and a 3-shard
// ShardedQueryServer (seams placed inside duplicate runs of S.B) replay the
// same signed stream and answer the same random plans: selections,
// projections, and joins under both proof methods. Every answer must
//  (1) equal the other server's answer field for field,
//  (2) pass the unmodified ClientVerifier::VerifyAnswerFresh, and
//  (3) carry exactly the rows, boundary keys, witnesses and Bloom verdicts
//      a scan of the DA's own AuthTable predicts (tests/answer_oracle.h) —
//      an oracle that shares no code with the engine.
// Every failure message names the seed that reproduces it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "answer_oracle.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

constexpr int kRows = 300;
constexpr int64_t kBValues = 120;  // S.B drawn from [0, 120): ~2.5 rows each
constexpr int kPeriods = 12;
constexpr int kUpdatesPerPeriod = 10;
constexpr int kPlansPerPeriod = 4;

std::shared_ptr<const BasContext> TestCtx() {
  static auto* ctx = [] {
    Rng rng(0xD1FF);
    return new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }();
  return *ctx;
}

std::unique_ptr<ShardedQueryServer> MakeServer(ShardRouter router) {
  return std::make_unique<ShardedQueryServer>(TestCtx(), std::move(router),
                                              ServerConfig{});
}

class EngineDifferential {
 public:
  explicit EngineDifferential(uint64_t seed)
      : seed_(seed), rng_(seed), da_rng_(seed ^ 0x5EED), clock_(1'000'000) {
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.sign_attributes = true;
    da_ = std::make_unique<DataAggregator>(TestCtx(), &clock_, &da_rng_, opt);
    verifier_ = std::make_unique<ClientVerifier>(
        &da_->public_key(), &codec_, BasContext::HashMode::kFast);
  }

  void Run() {
    std::vector<Record> rows;
    for (int i = 0; i < kRows; ++i) {
      const int64_t b = static_cast<int64_t>(rng_.Uniform(kBValues));
      rows.push_back(NewRow(b));
    }
    auto stream = da_->BulkLoad(std::move(rows));
    ASSERT_TRUE(stream.ok()) << Where();
    da_->EnableJoinPartitions(/*values_per_partition=*/4,
                              /*bits_per_value=*/6.0);

    const int64_t seam_a = SeamInsideDuplicates(kBValues / 3);
    const int64_t seam_b = SeamInsideDuplicates(2 * kBValues / 3);
    seam_b_values_ = {JoinBValue(seam_a), JoinBValue(seam_b)};
    servers_.push_back(MakeServer(ShardRouter({})));
    servers_.push_back(MakeServer(ShardRouter({seam_a, seam_b})));
    for (auto& server : servers_) {
      ASSERT_TRUE(server->ApplyUpdates(stream.value()).ok()) << Where();
      server->SetJoinPartitions(da_->join_partitions());
    }

    for (int period = 0; period < kPeriods; ++period) {
      int updates = kUpdatesPerPeriod, plans = kPlansPerPeriod;
      while (updates + plans > 0) {
        clock_.AdvanceMicros(10'000);
        if (rng_.Uniform(updates + plans) < static_cast<uint64_t>(updates)) {
          --updates;
          ASSERT_NO_FATAL_FAILURE(Mutate());
        } else {
          --plans;
          ASSERT_NO_FATAL_FAILURE(RunPlan(RandomPlan()));
        }
      }
      clock_.AdvanceSeconds(1.0);
      DataAggregator::PeriodOutput out = da_->PublishSummary();
      for (auto& server : servers_) {
        server->AddSummary(out.summary, out.partition_refresh);
        ASSERT_TRUE(server->ApplyUpdates(out.recertifications).ok())
            << Where();
      }
      epoch_ = out.summary.seq + 1;
    }
  }

  int plans_run() const { return plans_run_; }

 private:
  std::string Where() const {
    return "seed " + std::to_string(seed_) + ", plan " +
           std::to_string(plans_run_);
  }

  /// A fresh row with S.B = b: composite key (b, next duplicate index).
  Record NewRow(int64_t b) {
    Record r;
    const int64_t key = JoinCompositeKey(b, next_dup_[b]++);
    r.attrs = {key, b, static_cast<int64_t>(rng_.Uniform(1'000'000))};
    live_.push_back(key);
    return r;
  }

  /// A split key between the first two rows of the first duplicated B
  /// value at or above `from`, so a match group straddles the seam.
  int64_t SeamInsideDuplicates(int64_t from) {
    for (int64_t b = from; b < kBValues; ++b) {
      if (next_dup_[b] >= 2) return JoinCompositeKey(b, 1);
    }
    return JoinCompositeKey(from, 0);
  }

  void Apply(const Result<SignedRecordUpdate>& msg) {
    ASSERT_TRUE(msg.ok()) << Where() << ": " << msg.status().ToString();
    for (auto& server : servers_)
      ASSERT_TRUE(server->ApplyUpdate(msg.value()).ok()) << Where();
  }

  void Mutate() {
    const uint64_t kind = rng_.Uniform(10);
    if (kind < 3) {
      const int64_t b = static_cast<int64_t>(rng_.Uniform(kBValues + 10));
      Record r = NewRow(b);
      Apply(da_->InsertRecord(r.attrs));
      return;
    }
    const size_t victim = rng_.Uniform(live_.size());
    const int64_t key = live_[victim];
    if (kind < 5 && live_.size() > kRows / 2) {
      live_[victim] = live_.back();
      live_.pop_back();
      Apply(da_->DeleteRecord(key));
      return;
    }
    const int64_t value = static_cast<int64_t>(rng_.Uniform(1'000'000));
    Apply(da_->ModifyRecord(key, {key, JoinBValue(key), value}));
  }

  /// A composite key near S.B value `b` (off the stored duplicates with
  /// some probability, so empty ranges and gaps come up).
  int64_t KeyNear(int64_t b) {
    return JoinCompositeKey(b, static_cast<uint32_t>(rng_.Uniform(4)));
  }

  int64_t RandomLiveKey() { return live_[rng_.Uniform(live_.size())]; }
  /// A B value around the stored domain (a few fall outside it).
  int64_t RandomB() {
    return static_cast<int64_t>(rng_.Uniform(kBValues + 20)) - 5;
  }

  Query RandomPlan() {
    int64_t b_lo = RandomB();
    int64_t b_hi = b_lo + static_cast<int64_t>(rng_.Uniform(16));
    // Ranges ending or starting at a seam's B value make the 3-shard
    // server resolve boundary keys on the neighboring shard.
    const uint64_t at_seam = rng_.Uniform(8);
    if (at_seam < 2) b_hi = seam_b_values_[at_seam];
    if (at_seam == 2) b_lo = seam_b_values_[rng_.Uniform(2)];
    if (b_lo > b_hi) std::swap(b_lo, b_hi);
    int64_t lo = KeyNear(b_lo), hi = KeyNear(b_hi);
    if (rng_.Uniform(8) == 0) lo = hi = RandomLiveKey();
    if (lo > hi) std::swap(lo, hi);
    switch (rng_.Uniform(4)) {
      case 0:
        return Query::Select(lo, hi);
      case 1: {
        static const std::vector<std::vector<uint32_t>> kAttrSets = {
            {}, {1}, {2}, {1, 2}, {2, 1}, {0, 2}};
        return Query::Project(lo, hi,
                              kAttrSets[rng_.Uniform(kAttrSets.size())]);
      }
      default: {
        std::vector<int64_t> values;
        const uint64_t n = 1 + rng_.Uniform(8);
        for (uint64_t i = 0; i < n; ++i) {
          const bool stored = rng_.Uniform(2) == 0;
          values.push_back(stored ? JoinBValue(RandomLiveKey()) : RandomB());
        }
        JoinMethod method = JoinMethod::kBloomFilter;
        if (rng_.Uniform(2) == 0) method = JoinMethod::kBoundaryValues;
        return Query::Join(std::move(values), method);
      }
    }
  }

  void RunPlan(const Query& q) {
    ++plans_run_;
    std::vector<QueryAnswer> answers;
    for (auto& server : servers_) {
      Result<QueryAnswer> ans = server->Execute(q);
      ASSERT_TRUE(ans.ok()) << Where() << ": " << ans.status().ToString();
      answers.push_back(ans.MoveValue());
    }
    const CurveGroup& curve = TestCtx()->curve();
    EXPECT_EQ(oracle::DiffAnswers(curve, answers[0], answers[1]), "")
        << Where() << ": 1-shard vs 3-shard answer";
    const auto& parts = da_->join_partitions();
    EXPECT_EQ(oracle::CheckAgainstTable(da_->table(), parts, q, answers[0]), "")
        << Where() << ": answer vs DA table";
    for (const QueryAnswer& ans : answers) {
      Status v =
          verifier_->VerifyAnswerFresh(q, ans, clock_.NowMicros(), epoch_);
      EXPECT_TRUE(v.ok()) << Where() << ": " << v.ToString();
    }
  }

  const uint64_t seed_;
  Rng rng_, da_rng_;
  ManualClock clock_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  std::unique_ptr<ClientVerifier> verifier_;
  std::vector<std::unique_ptr<ShardedQueryServer>> servers_;
  std::vector<int64_t> seam_b_values_;    ///< S.B values the seams split
  std::map<int64_t, uint32_t> next_dup_;  ///< S.B -> next duplicate index
  std::vector<int64_t> live_;             ///< composite keys in the table
  uint64_t epoch_ = 0;
  int plans_run_ = 0;
};

TEST(EngineDifferentialTest, ShardCountsAgreeWithEachOtherAndTheDaTable) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    EngineDifferential run(seed);
    ASSERT_NO_FATAL_FAILURE(run.Run()) << "seed " << seed;
    EXPECT_EQ(run.plans_run(), kPeriods * kPlansPerPeriod) << "seed " << seed;
  }
}

}  // namespace
}  // namespace authdb
