#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/join.h"
#include "core/protocol.h"
#include "core/verifier.h"
#include "crypto/sha.h"
#include "fixture.h"
#include "histogram.h"
#include "trace.h"

namespace perfbench {
namespace {

using authdb::ClientVerifier;
using authdb::JoinCompositeKey;
using authdb::PlanBatch;
using authdb::Query;
using authdb::QueryAnswer;
using authdb::Result;
using authdb::ServerMetrics;
using authdb::Status;

// Plan mix shared by every workload: 50% select, 25% project on attrs
// {1,2}, 25% join of 4 probes over [0, 2N), about half of them absent.
// Range plans cover g whole B groups with P(g) proportional to 1/g over
// 1..kMaxRangeGroups, the harmonic profile Algorithm 1 plans the SigCache
// for. PlanSource draws them.
constexpr uint32_t kMaxRangeGroups = 128;
constexpr size_t kJoinProbes = 4;
constexpr size_t kBatchPlans = 8;

// Set-up is repeated in an end-to-end run and setup_s is the median.
constexpr size_t kSetupRepeats = 3;

// The end-to-end window is cut into this many equal slices; throughput and
// latency percentiles are the median over the slices, so a short slowdown
// of the host does not move them.
constexpr size_t kSlices = 5;

// Answers kept per client (reservoir) for verification after the window.
constexpr size_t kSamplesPerClient = 12;
constexpr size_t kSampleVerifyThreads = 4;

// ingest-mix writer: open loop, one event every 1/kEventRate s; a
// rho-period is kUpdatesPerPeriod updates (Fixture::PeriodKinds) followed by
// one event that closes it.
constexpr double kEventRate = 80;
constexpr size_t kUpdatesPerPeriod = 20;

struct Spec {
  const char* name;
  size_t clients;
  bool batched;        // ExecuteBatch of kBatchPlans instead of Execute
  bool verify_inline;  // VerifyAnswerBatch on every answer
  bool writer;         // live DA writer beside the readers
  bool row_oracle;     // every answer checked against the reference model
};

const Spec kSpecs[] = {
    {"serve-mix", 4, false, false, false, true},
    {"verify-batch", 4, true, true, false, false},
    {"ingest-mix", 3, true, false, true, false},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// One client's plans. Kinds come from shuffled decks of 8 (4 select, 2
/// project, 2 join), so every 8 consecutive plans, and so every batch of 8,
/// carry the mix exactly. Range lengths come from shuffled decks of
/// kGroupDeck stratified draws of the harmonic profile, and the i-th join
/// probe is uniform over the i-th quarter of [0, 2N). Every marginal is as
/// specified; stratifying keeps the work per run nearly the same across
/// seeds.
class PlanSource {
 public:
  PlanSource(uint64_t distinct_b, uint64_t seed) : rng_(seed), n_(distinct_b) {
    double total = 0;
    for (uint32_t g = 1; g <= kMaxRangeGroups; ++g) {
      total += 1.0 / g;
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::vector<Query> NextBatch(size_t n) {
    std::vector<Query> plans;
    for (size_t i = 0; i < n; ++i) plans.push_back(Next());
    return plans;
  }

 private:
  static constexpr size_t kGroupDeck = 64;

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i)
      std::swap((*v)[i - 1], (*v)[rng_.Uniform(i)]);
  }

  Query Next() {
    if (kinds_.empty()) {
      kinds_ = {authdb::QueryKind::kSelect,  authdb::QueryKind::kSelect,
                authdb::QueryKind::kSelect,  authdb::QueryKind::kSelect,
                authdb::QueryKind::kProject, authdb::QueryKind::kProject,
                authdb::QueryKind::kJoin,    authdb::QueryKind::kJoin};
      Shuffle(&kinds_);
    }
    const authdb::QueryKind kind = kinds_.back();
    kinds_.pop_back();
    if (kind == authdb::QueryKind::kJoin) {
      std::vector<int64_t> probes;
      const uint64_t quarter = std::max<uint64_t>(2 * n_ / kJoinProbes, 1);
      for (size_t i = 0; i < kJoinProbes; ++i)
        probes.push_back(
            static_cast<int64_t>(i * quarter + rng_.Uniform(quarter)));
      return Query::Join(std::move(probes));
    }
    if (groups_.empty()) {
      for (size_t j = 0; j < kGroupDeck; ++j) {
        double u = (static_cast<double>(j) + rng_.NextDouble()) / kGroupDeck;
        groups_.push_back(static_cast<uint64_t>(
                              std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                              cdf_.begin()) +
                          1);
      }
      Shuffle(&groups_);
    }
    const uint64_t g = std::min(groups_.back(), n_);
    groups_.pop_back();
    int64_t b0 = static_cast<int64_t>(rng_.Uniform(n_ - g + 1));
    int64_t lo = JoinCompositeKey(b0, 0);
    int64_t hi = JoinCompositeKey(b0 + static_cast<int64_t>(g) - 1,
                                  authdb::kJoinMaxDup);
    if (kind == authdb::QueryKind::kSelect) return Query::Select(lo, hi);
    return Query::Project(lo, hi, {1, 2});
  }

  authdb::Rng rng_;
  uint64_t n_;
  std::vector<double> cdf_;  // harmonic CDF over 1..kMaxRangeGroups
  std::vector<authdb::QueryKind> kinds_;
  std::vector<uint64_t> groups_;
};

/// The serve-mix oracle: the answer's rows are exactly the reference
/// model's rows for the plan.
bool RowsMatch(const Query& q, const QueryAnswer& a, const Reference& ref) {
  if (a.kind != q.kind || a.outcome != authdb::AnswerOutcome::kServed)
    return false;
  switch (q.kind) {
    case authdb::QueryKind::kSelect: {
      const std::vector<authdb::Record>& recs = a.selection.records;
      size_t i = 0;
      for (auto it = ref.lower_bound(q.lo);
           it != ref.end() && it->first <= q.hi; ++it, ++i) {
        if (i >= recs.size() || recs[i].attrs != it->second) return false;
      }
      return i == recs.size();
    }
    case authdb::QueryKind::kProject: {
      const std::vector<uint32_t> attrs =
          authdb::EffectiveProjectionAttrs(q.attr_indices);
      const std::vector<authdb::ProjectedTuple>& tuples = a.projection.tuples;
      size_t i = 0;
      for (auto it = ref.lower_bound(q.lo);
           it != ref.end() && it->first <= q.hi; ++it, ++i) {
        if (i >= tuples.size() || tuples[i].attr_indices != attrs ||
            tuples[i].values.size() != attrs.size())
          return false;
        for (size_t j = 0; j < attrs.size(); ++j)
          if (tuples[i].values[j] != it->second[attrs[j]]) return false;
      }
      return i == tuples.size();
    }
    case authdb::QueryKind::kJoin: {
      std::vector<int64_t> values = q.join_values;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      size_t present = 0;
      for (int64_t v : values) {
        auto it = ref.lower_bound(JoinCompositeKey(v, 0));
        auto end = ref.upper_bound(JoinCompositeKey(v, authdb::kJoinMaxDup));
        const authdb::JoinMatch* match = nullptr;
        for (const authdb::JoinMatch& m : a.join.matches)
          if (m.a_value == v) match = &m;
        if (it == end) {
          bool proven = false;
          for (const auto& np : a.join.negative_probes)
            proven |= np.first == v;
          for (const auto& ap : a.join.absence_proofs)
            proven |= ap.a_value == v;
          if (match != nullptr || !proven) return false;
          continue;
        }
        ++present;
        if (match == nullptr) return false;
        size_t i = 0;
        for (; it != end; ++it, ++i) {
          if (i >= match->s_records.size() ||
              match->s_records[i].attrs != it->second)
            return false;
        }
        if (i != match->s_records.size()) return false;
      }
      return present == a.join.matches.size();
    }
  }
  return false;
}

/// Timed-window boundaries. Clients run from `start` on; the warm-up ends
/// at `window`; an end-to-end run measures [window, traced); a traced run
/// also measures [traced, end) with spans on.
struct Windows {
  int64_t start = 0, window = 0, traced = 0, end = 0;
  /// 0 warm-up, 1 timed (untraced), 2 traced, 3 after the end.
  int Phase(int64_t t) const {
    return t < window ? 0 : t < traced ? 1 : t < end ? 2 : 3;
  }
  /// Start of slice i of the timed window (i == kSlices: its end).
  int64_t SliceStart(size_t i) const {
    return window + (traced - window) * static_cast<int64_t>(i) /
                        static_cast<int64_t>(kSlices);
  }
  double Seconds(int phase) const {
    return static_cast<double>(phase == 1 ? traced - window : end - traced) *
           1e-9;
  }
};

/// One client's counts for one phase of the run. Fixed size: nothing in
/// the client loop grows with the number of operations.
struct Tally {
  uint64_t plans = 0, ok = 0, failed = 0, served = 0, vo = 0, calls = 0;
  uint64_t claims = 0, inversions = 0;  // BatchVerifyStats
  uint64_t behind_tracker = 0;  // served below the tracker's epoch at send
  double verify_s = 0, op_s = 0;
  Histogram latency_ns;  // call -> answers (-> verdicts in verify-batch)
  Histogram epoch_lag;   // current epoch at arrival - served epoch

  void Merge(const Tally& o) {
    plans += o.plans;
    ok += o.ok;
    failed += o.failed;
    served += o.served;
    vo += o.vo;
    calls += o.calls;
    claims += o.claims;
    inversions += o.inversions;
    behind_tracker += o.behind_tracker;
    verify_s += o.verify_s;
    op_s += o.op_s;
    latency_ns.Merge(o.latency_ns);
    epoch_lag.Merge(o.epoch_lag);
  }
};

/// One slice of the timed (untraced) window: the good answers of the calls
/// that overlap it, each call's share in proportion to the overlap, and the
/// latencies of the calls that complete in it.
struct Slice {
  double ok = 0;
  Histogram latency_ns;
};

struct Sample {
  Query query;
  QueryAnswer answer;
  uint64_t now_us = 0;     // arrival time
  uint64_t min_epoch = 0;  // published epoch when the plan was sent
};

struct Client {
  Client(const std::atomic<bool>* tracing, uint32_t id) : spans(tracing, id) {}
  SpanLog spans;
  Tally tally[4];  // by Windows::Phase of the completion time
  Slice slices[kSlices];
  std::vector<Sample> samples;
  uint64_t sample_seen = 0;
  std::vector<std::string> failures;  // first few, for the log
};

void RunClient(const Spec& spec, Fixture* fx, const Windows& w, uint64_t seed,
               size_t id, const std::atomic<bool>& stop, Client* c) {
  PlanSource plans(fx->sizes().distinct_b,
                   seed * 0x9E3779B97F4A7C15ULL + 101 + id);
  authdb::Rng sample_rng(seed * 0xD1B54A32D192ED03ULL + 7 + id);
  authdb::VarintGapCodec codec;
  ClientVerifier verifier(&fx->da().public_key(), &codec,
                          fx->da().hash_mode());
  const authdb::SizeModel size_model;
  const authdb::ShardedQueryServer& server = fx->server();

  while (!stop.load(std::memory_order_relaxed)) {
    PlanBatch batch;
    std::vector<Result<QueryAnswer>> answers;
    std::vector<Status> verdicts;
    ClientVerifier::BatchVerifyStats vstats;
    uint64_t min_epoch = 0, tracker_epoch = 0;
    int64_t t0 = 0, t1 = 0, done = 0;
    {
      ScopedSpan root(&c->spans, kClientOp);
      batch.plans = plans.NextBatch(spec.batched ? kBatchPlans : 1);
      tracker_epoch = server.freshness_tracker().current_epoch();
      min_epoch = PublishedEpoch(server);
      t0 = NowNs();
      if (spec.batched) {
        ScopedSpan s(&c->spans, kExecuteBatch);
        answers = server.ExecuteBatch(batch);
      } else {
        ScopedSpan s(&c->spans, kExecute);
        answers.push_back(server.Execute(batch.plans[0]));
      }
      t1 = NowNs();
      if (spec.verify_inline) {
        ScopedSpan s(&c->spans, kVerifyBatch);
        verdicts = verifier.VerifyAnswerBatch(
            batch, answers, fx->clock().NowMicros(), min_epoch,
            ClientVerifier::BatchVerifyOptions(), &vstats);
      }
      done = NowNs();
    }
    const uint64_t now_us = fx->clock().NowMicros();
    const uint64_t current = PublishedEpoch(server);
    const int phase = w.Phase(done);
    Tally& t = c->tally[phase];
    ++t.calls;
    t.plans += batch.plans.size();
    t.claims += vstats.aggregate_claims;
    t.inversions += vstats.shared_inversions;
    t.op_s += static_cast<double>(done - t0) * 1e-9;
    if (spec.verify_inline) t.verify_s += static_cast<double>(done - t1) * 1e-9;
    t.latency_ns.Record(done - t0);
    const uint64_t ok_before = t.ok;
    uint64_t epoch_lag = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
      const bool served =
          answers[i].ok() &&
          answers[i].value().outcome == authdb::AnswerOutcome::kServed;
      std::string why;
      if (!answers[i].ok()) {
        why = answers[i].status().ToString();
      } else if (!served) {
        why = "shed";
      } else if (spec.verify_inline && !verdicts[i].ok()) {
        why = "rejected: " + verdicts[i].ToString();
      } else if (spec.row_oracle &&
                 !RowsMatch(batch.plans[i], answers[i].value(),
                            fx->reference())) {
        why = "rows differ from the reference model";
      }
      if (served) {
        const QueryAnswer& a = answers[i].value();
        ++t.served;
        t.vo += a.vo_bytes(size_model);
        if (current > a.served_epoch)
          epoch_lag = std::max(epoch_lag, current - a.served_epoch);
        if (a.served_epoch < tracker_epoch) ++t.behind_tracker;
      }
      if (!why.empty()) {
        ++t.failed;
        if (c->failures.size() < 4) c->failures.push_back(why);
        continue;
      }
      ++t.ok;
      if (spec.verify_inline || phase != 1) continue;
      // Reservoir sample of the window's answers, verified after it.
      uint64_t slot = c->sample_seen++;
      if (c->samples.size() < kSamplesPerClient) {
        c->samples.push_back(
            {batch.plans[i], answers[i].value(), now_us, min_epoch});
      } else {
        uint64_t j = sample_rng.Uniform(slot + 1);
        if (j < kSamplesPerClient)
          c->samples[j] = {batch.plans[i], answers[i].value(), now_us,
                           min_epoch};
      }
    }
    t.epoch_lag.Record(static_cast<int64_t>(epoch_lag));
    // Crediting each slice with its share of a call keeps a slice's rate
    // from being counted in whole calls: a verify-batch call takes about
    // 0.4 s of a 3 s slice.
    const double good = static_cast<double>(t.ok - ok_before);
    for (size_t i = 0; i < kSlices; ++i) {
      const int64_t lo = std::max(t0, w.SliceStart(i));
      const int64_t hi = std::min(done, w.SliceStart(i + 1));
      if (hi > lo)
        c->slices[i].ok += good * static_cast<double>(hi - lo) /
                           static_cast<double>(done - t0);
    }
    if (phase == 1)
      c->slices[static_cast<size_t>((done - w.window) *
                                    static_cast<int64_t>(kSlices) /
                                    (w.traced - w.window))]
          .latency_ns.Record(done - t0);
  }
}

/// Watches the published epoch from outside the writer: for every period
/// close it records the time from the close's due time until the server
/// publishes the epoch that makes it visible, and samples how many
/// superseded epochs readers keep pinned.
class EpochObserver {
 public:
  EpochObserver(const authdb::ShardedQueryServer* server,
                const std::atomic<bool>* tracing, const Windows* w)
      : server_(server), w_(w), spans_(tracing, 1000) {}

  void Expect(uint64_t target, int64_t due_ns) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back({target, due_ns});
    }
    cv_.notify_one();
  }

  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
  }

  void Run() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !pending_.empty(); });
        if (pending_.empty()) return;
        p = pending_.front();
        pending_.pop_front();
      }
      int span = spans_.BeginAt(kEpochWait, p.due_ns);
      int64_t next_pin_sample = 0;
      const int64_t seen = WaitForEpoch(*server_, p.target, [&](int64_t now) {
        if (now < next_pin_sample) return;
        SamplePins(now);
        next_pin_sample = now + 1'000'000;
      });
      spans_.End(span);
      SamplePins(seen);
      lag_ms[w_->Phase(p.due_ns)].push_back(
          static_cast<double>(seen - p.due_ns) * 1e-6);
    }
  }

  std::vector<double> lag_ms[4];
  uint64_t pinned_max[4] = {0, 0, 0, 0};
  const SpanLog& spans() const { return spans_; }

 private:
  struct Pending {
    uint64_t target = 0;
    int64_t due_ns = 0;
  };

  void SamplePins(int64_t now) {
    uint64_t& m = pinned_max[w_->Phase(now)];
    m = std::max<uint64_t>(m, server_->pinned_epochs());
  }

  const authdb::ShardedQueryServer* server_;
  const Windows* w_;
  SpanLog spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool done_ = false;
};

struct WriterState {
  explicit WriterState(const std::atomic<bool>* tracing)
      : spans(tracing, 999) {}
  SpanLog spans;
  WriterLog logs[4];                 // by phase of the event's due time
  std::vector<double> lateness_ms[4];
};

void RunWriter(Fixture* fx, const Windows& w, uint64_t seed,
               const std::atomic<bool>& stop, EpochObserver* observer,
               WriterState* ws) {
  authdb::Rng rng(seed * 0xA0761D6478BD642FULL + 3);
  const double interval_ns = 1e9 / kEventRate;
  std::vector<WriterLog::Kind> period;
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const int64_t due =
        w.start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    SleepUntilNs(due);
    if (stop.load(std::memory_order_relaxed)) break;
    const int phase = w.Phase(due);
    ws->lateness_ms[phase].push_back(static_cast<double>(NowNs() - due) *
                                     1e-6);
    const size_t slot = i % (kUpdatesPerPeriod + 1);
    if (slot == 0) period = Fixture::PeriodKinds(&rng, kUpdatesPerPeriod);
    if (slot == kUpdatesPerPeriod) {
      observer->Expect(fx->ClosePeriod(&ws->logs[phase], &ws->spans), due);
    } else {
      fx->WriteOne(period[slot], &rng, &ws->logs[phase], &ws->spans);
    }
  }
}

/// Tampers with one real answer in two ways and aborts the run unless the
/// verifier rejects both (and, for serve-mix, unless the row oracle catches
/// a changed value): a broken oracle must not report a clean error rate.
void CheckOracleLiveness(const Spec& spec, Fixture* fx) {
  const int64_t lo = JoinCompositeKey(10, 0);
  const int64_t hi = JoinCompositeKey(20, authdb::kJoinMaxDup);
  const Query q = Query::Select(lo, hi);
  Result<QueryAnswer> honest = fx->server().Execute(q);
  const uint64_t epoch = PublishedEpoch(fx->server());
  bool ok = honest.ok() && honest.value().selection.records.size() >= 3;
  std::vector<std::string> problems;
  if (!ok) problems.push_back("no usable answer to tamper with");

  if (ok) {
    QueryAnswer dropped = honest.value();
    auto& recs = dropped.selection.records;
    recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(recs.size() / 2));
    QueryAnswer stale = honest.value();
    stale.served_epoch = epoch - 1;
    stale.selection.served_epoch = epoch - 1;

    authdb::VarintGapCodec codec;
    ClientVerifier v(&fx->da().public_key(), &codec, fx->da().hash_mode());
    const uint64_t now = fx->clock().NowMicros();
    std::vector<Status> verdicts;
    if (spec.verify_inline) {
      PlanBatch batch = PlanBatch::Of({q, q, q});
      std::vector<Result<QueryAnswer>> answers = {honest.value(), dropped,
                                                  stale};
      verdicts = v.VerifyAnswerBatch(batch, answers, now, epoch);
    } else {
      verdicts.push_back(v.VerifyAnswerFresh(q, honest.value(), now, epoch));
      verdicts.push_back(v.VerifyAnswerFresh(q, dropped, now, epoch));
      verdicts.push_back(v.VerifyAnswerFresh(q, stale, now, epoch));
    }
    if (!verdicts[0].ok())
      problems.push_back("honest answer rejected: " + verdicts[0].ToString());
    if (verdicts[1].ok()) problems.push_back("dropped record accepted");
    if (verdicts[2].ok()) problems.push_back("stale served_epoch accepted");

    if (spec.row_oracle) {
      QueryAnswer changed = honest.value();
      changed.selection.records[0].attrs.back() += 1;
      if (!RowsMatch(q, honest.value(), fx->reference()))
        problems.push_back("row oracle rejects an honest answer");
      if (RowsMatch(q, changed, fx->reference()))
        problems.push_back("row oracle accepts a changed value");
    }
  }
  if (problems.empty()) return;
  for (const std::string& p : problems)
    std::fprintf(stderr, "perfbench: oracle liveness failed: %s\n", p.c_str());
  std::exit(3);
}

struct SampleResult {
  uint64_t verified = 0, rejected = 0;
  double seconds = 0;  // summed verification time
};

/// Verifies the sampled answers with the unmodified VerifyAnswerFresh, each
/// with the arrival time and the epoch recorded when its plan was sent.
/// Each thread's verifier sees its answers in served-epoch order, as a
/// client following the summary feed would.
SampleResult VerifySamples(Fixture* fx, const std::vector<Client>& clients) {
  std::vector<const Sample*> all;
  for (const Client& c : clients)
    for (const Sample& s : c.samples) all.push_back(&s);
  std::stable_sort(all.begin(), all.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->answer.served_epoch < b->answer.served_epoch;
                   });
  SampleResult parts[kSampleVerifyThreads];
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kSampleVerifyThreads; ++t) {
    threads.emplace_back([&, t] {
      authdb::VarintGapCodec codec;
      ClientVerifier v(&fx->da().public_key(), &codec, fx->da().hash_mode());
      for (size_t i = t; i < all.size(); i += kSampleVerifyThreads) {
        int64_t t0 = NowNs();
        Status s = v.VerifyAnswerFresh(all[i]->query, all[i]->answer,
                                       all[i]->now_us, all[i]->min_epoch);
        parts[t].seconds += static_cast<double>(NowNs() - t0) * 1e-9;
        ++parts[t].verified;
        if (!s.ok()) {
          ++parts[t].rejected;
          std::fprintf(stderr, "perfbench: sampled answer rejected: %s\n",
                       s.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SampleResult out;
  for (const SampleResult& p : parts) {
    out.verified += p.verified;
    out.rejected += p.rejected;
    out.seconds += p.seconds;
  }
  return out;
}

/// Unit costs of the public crypto primitives, timed once per traced run
/// (median of five repetitions).
struct CryptoCosts {
  double pairing_us = 0, ec_add_ns = 0, sha256_ns = 0, bas_sign_us = 0;
};

template <typename F>
double MedianPerCall(size_t calls, F&& f) {
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < calls; ++i) f(i);
    per.push_back(static_cast<double>(NowNs() - t0) /
                  static_cast<double>(calls));
  }
  return Median(per);
}

CryptoCosts CalibrateCrypto(Fixture* fx) {
  const authdb::BasContext& ctx = fx->da().context();
  const authdb::ECPoint& g = ctx.generator();
  const authdb::ECPoint& pk = fx->da().public_key().point();
  CryptoCosts c;
  volatile bool sink = false;
  c.pairing_us = MedianPerCall(4, [&](size_t) {
                   sink = ctx.pairing().Pair(g, pk).re.IsZero();
                 }) * 1e-3;
  authdb::CurveGroup::Jacobian acc = ctx.curve().ToJacobian(g);
  c.ec_add_ns = MedianPerCall(20000, [&](size_t) {
    acc = ctx.curve().JacAddAffine(acc, pk);
  });
  sink = acc.Z.IsZero();
  uint8_t msg[64] = {0};
  c.sha256_ns = MedianPerCall(20000, [&](size_t i) {
    msg[0] = static_cast<uint8_t>(i);
    msg[1] ^= authdb::Sha256::Hash(authdb::Slice(msg, sizeof(msg))).bytes[0];
  });
  c.bas_sign_us = MedianPerCall(64, [&](size_t i) {
                    msg[0] = static_cast<uint8_t>(i);
                    sink = fx->da()
                               .private_key()
                               ->Sign(authdb::Slice(msg, sizeof(msg)),
                                      fx->da().hash_mode())
                               .point.infinity;
                  }) * 1e-3;
  (void)sink;
  return c;
}

struct TraceSummary {
  size_t spans = 0, roots = 0;
  size_t bad_nesting = 0;
  double root_s = 0, self_s = 0;  // over client and writer roots
};

/// Checks that every child lies inside its parent and shares its operation
/// id, and sums root time and root self time (root minus the union of its
/// direct children).
TraceSummary AnalyzeSpans(const std::vector<const SpanLog*>& logs) {
  TraceSummary t;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      ++t.spans;
      if (s.end_ns < s.start_ns) ++t.bad_nesting;
      if (s.parent < 0) continue;
      const Span& p = spans[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op)
        ++t.bad_nesting;
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0 || s.name == kEpochWait) continue;
      ++t.roots;
      std::vector<std::pair<int64_t, int64_t>>& ch = children[i];
      std::sort(ch.begin(), ch.end());
      int64_t covered = 0, reach = s.start_ns;
      for (const auto& [b, e] : ch) {
        int64_t from = std::max(b, reach);
        if (e > from) {
          covered += e - from;
          reach = e;
        }
      }
      t.root_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
  }
  return t;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\top\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << t << '\t' << s.op << '\t' << s.parent << '\t'
          << SpanNameStr(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
          << '\n';
    }
  }
  return static_cast<bool>(out);
}

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit, const std::string& base = "") {
  out->push_back({name, value, unit, base});
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

Outcome RunWorkload(const RunOptions& opt) {
  const Spec& spec = *FindSpec(opt.workload);
  const Sizes sizes;
  Outcome out;

  // Set-up, repeated in the end-to-end run; the last one is kept.
  std::vector<double> setup_s, bulk_load_s, history_lag_ms;
  std::unique_ptr<Fixture> fx;
  for (size_t r = 0; r < (opt.trace ? 1 : kSetupRepeats); ++r) {
    fx.reset();
    int64_t t0 = NowNs();
    fx = std::make_unique<Fixture>(sizes, opt.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    bulk_load_s.push_back(fx->bulk_load_s());
    for (double lag : fx->history().freshness_lag_ms)
      history_lag_ms.push_back(lag);
  }

  CheckOracleLiveness(spec, fx.get());
  CryptoCosts crypto;
  if (opt.trace) crypto = CalibrateCrypto(fx.get());

  // A traced run splits its time into an untraced and a traced half, so
  // both kinds of run take equally long.
  const double warmup_s = std::min(5.0, std::max(1.0, 0.25 * opt.seconds));
  const double measured_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Windows w;
  w.start = NowNs();
  w.window = w.start + static_cast<int64_t>(warmup_s * 1e9);
  w.traced = w.window + static_cast<int64_t>(measured_s * 1e9);
  w.end = opt.trace ? w.traced + static_cast<int64_t>(measured_s * 1e9)
                    : w.traced;

  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::vector<Client> clients;
  clients.reserve(spec.clients);
  for (size_t i = 0; i < spec.clients; ++i)
    clients.emplace_back(&tracing, static_cast<uint32_t>(i));
  EpochObserver observer(&fx->server(), &tracing, &w);
  WriterState writer_state(&tracing);

  std::vector<std::thread> threads;
  for (size_t i = 0; i < spec.clients; ++i)
    threads.emplace_back(RunClient, std::cref(spec), fx.get(), std::cref(w),
                         opt.seed, i, std::cref(stop), &clients[i]);
  std::thread writer, observer_thread;
  if (spec.writer) {
    observer_thread = std::thread([&] { observer.Run(); });
    writer = std::thread(RunWriter, fx.get(), std::cref(w), opt.seed,
                         std::cref(stop), &observer, &writer_state);
  }

  // Counter snapshots at the window edges: [0] window start, [1] end of the
  // untraced window, [2] end of the traced window.
  ServerMetrics m[3];
  double cpu[3] = {0, 0, 0};
  SleepUntilNs(w.window);
  m[0] = fx->stream().Metrics();
  cpu[0] = CpuSeconds();
  SleepUntilNs(w.traced);
  m[1] = fx->stream().Metrics();
  cpu[1] = CpuSeconds();
  if (opt.trace) {
    tracing.store(true);
    SleepUntilNs(w.end);
    m[2] = fx->stream().Metrics();
    cpu[2] = CpuSeconds();
    tracing.store(false);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  if (spec.writer) {
    writer.join();
    fx->stream().Flush();
    observer.Finish();
    observer_thread.join();
  }

  // Client tallies merged by phase, and the timed window's slices.
  std::vector<Tally> tally(4);
  std::vector<Slice> slices(kSlices);
  for (const Client& c : clients) {
    for (int p = 0; p < 4; ++p) tally[p].Merge(c.tally[p]);
    for (size_t i = 0; i < kSlices; ++i) {
      slices[i].ok += c.slices[i].ok;
      slices[i].latency_ns.Merge(c.slices[i].latency_ns);
    }
    for (const std::string& f : c.failures)
      std::fprintf(stderr, "perfbench: failed operation: %s\n", f.c_str());
  }

  // Failures count wherever they happen, warm-up included.
  for (int p = 0; p < 4; ++p) {
    out.attempted += tally[p].plans + writer_state.logs[p].updates;
    out.failed += tally[p].failed + writer_state.logs[p].failures;
  }
  out.failed += fx->stream().Metrics().ingest.apply_failures;
  const int phase = opt.trace ? 2 : 1;
  const Tally& tw = tally[phase];

  SampleResult samples;
  if (!spec.verify_inline) {
    samples = VerifySamples(fx.get(), clients);
    out.attempted += samples.verified;
    out.failed += samples.rejected;
  }
  if (out.failed > 0) {
    out.correct = false;
    out.problems.push_back(std::to_string(out.failed) + " of " +
                           std::to_string(out.attempted) +
                           " operations failed");
  }

  const double window_s = w.Seconds(phase);
  const std::vector<double>& lag_ms =
      spec.writer ? observer.lag_ms[phase] : history_lag_ms;
  const std::string lag_base =
      spec.writer ? "period closes in the window"
                  : "set-up history period closes: a set-up figure, no live "
                    "writer in this workload";

  if (!opt.trace) {
    Add(&out.metrics, "setup_s", Median(setup_s), "s",
        std::to_string(setup_s.size()) + " set-ups, median");
    std::vector<double> rate, p50, p90;
    for (const Slice& sl : slices) {
      rate.push_back(sl.ok * kSlices / window_s);
      p50.push_back(sl.latency_ns.Percentile(0.50) * 1e-3);
      p90.push_back(sl.latency_ns.Percentile(0.90) * 1e-3);
    }
    const std::string per_slice =
        " over " + std::to_string(kSlices) + " slices, " +
        std::to_string(tw.calls) + " calls";
    Add(&out.metrics, "ops_per_s", Median(rate), "1/s",
        (spec.verify_inline ? "answers verified ok" : "read plans answered") +
            std::string(", median") + per_slice);
    Add(&out.metrics, "latency_p50_us", Median(p50), "us",
        "median" + per_slice);
    Add(&out.metrics, "latency_p90_us", Median(p90), "us",
        "median" + per_slice);
    // The mean, not the median, is gated: per-period lags fall in two modes
    // (PublishSummary runs in about 32 or about 46 ms, in stretches), and
    // the median jumps between them as their mix shifts from run to run.
    Add(&out.metrics, "freshness_lag_mean_ms", Mean(lag_ms), "ms",
        std::to_string(lag_ms.size()) + " " + lag_base);
    Add(&out.metrics, "freshness_lag_p90_ms", Percentile(lag_ms, 0.90), "ms",
        std::to_string(lag_ms.size()) + " " + lag_base);
    Add(&out.metrics, "vo_bytes_per_answer",
        Ratio(static_cast<double>(tw.vo), static_cast<double>(tw.served)),
        "bytes", std::to_string(tw.served) + " answers, SizeModel{}");
    Add(&out.metrics, "peak_rss_mb", PeakRssMb(), "MB");
    Add(&out.extra, "freshness_lag_p50_ms", Percentile(lag_ms, 0.50), "ms",
        std::to_string(lag_ms.size()) + " " + lag_base);
    if (!spec.verify_inline)
      Add(&out.extra, "latency_p99_us", tw.latency_ns.Percentile(0.99) * 1e-3,
          "us", std::to_string(tw.calls) + " calls");
    Add(&out.extra, "error_rate",
        Ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        "ratio", std::to_string(out.attempted) + " attempted");
    // Not a failure: the tracker runs ahead of the descriptor swap (see
    // PublishedEpoch), so these answers were fresh when they were served.
    uint64_t behind = 0, served = 0;
    for (const Tally& t : tally) {
      behind += t.behind_tracker;
      served += t.served;
    }
    Add(&out.extra, "answers_behind_tracker", static_cast<double>(behind),
        "count",
        std::to_string(served) +
            " answers; served below freshness_tracker()'s epoch at send");
    return out;
  }

  // ---- Traced run: the per-layer account of the traced window. ----
  const ServerMetrics md = m[2].Delta(m[1]);
  const auto& ex = md.exec;
  std::vector<const SpanLog*> logs;
  for (const Client& c : clients) logs.push_back(&c.spans);
  logs.push_back(&writer_state.spans);
  logs.push_back(&observer.spans());
  const TraceSummary ts = AnalyzeSpans(logs);

  std::vector<double> exec_us;
  for (const Client& c : clients)
    for (const Span& s : c.spans.spans())
      if (s.name == kExecute || s.name == kExecuteBatch)
        exec_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  double exec_total_us = 0;
  for (double x : exec_us) exec_total_us += x;
  double visit_us = 0, busy_max = 0;
  for (const authdb::ShardBusy& b : ex.shard_busy) {
    visit_us += static_cast<double>(b.visit_us);
    busy_max = std::max(busy_max, static_cast<double>(b.visit_us));
  }
  const double busy_mean =
      ex.shard_busy.empty() ? 0 : visit_us / ex.shard_busy.size();
  const double plans = static_cast<double>(ex.plans);
  const double reuse =
      static_cast<double>(ex.agg_cache_hits + ex.agg_span_hits);
  const double lookups = reuse + static_cast<double>(ex.agg_leaf_fetches);
  const std::string per_plan = std::to_string(ex.plans) + " plans";

  auto& pl = out.metrics;
  Add(&pl, "server.execute_us_p50", Percentile(exec_us, 0.50), "us",
      std::to_string(exec_us.size()) + " calls");
  Add(&pl, "server.execute_us_p99", Percentile(exec_us, 0.99), "us",
      std::to_string(exec_us.size()) + " calls");
  Add(&pl, "server.execute_calls", static_cast<double>(exec_us.size()),
      "count");
  Add(&pl, "server.plans", plans, "count");
  Add(&pl, "server.visit_busy_share", Ratio(visit_us, exec_total_us), "ratio",
      "sum of shard visit_us over sum of execute-call time");
  Add(&pl, "server.shard_visits_per_plan",
      Ratio(static_cast<double>(ex.shard_visits), plans), "count", per_plan);
  Add(&pl, "server.agg_point_adds_per_plan",
      Ratio(static_cast<double>(ex.agg_point_adds), plans), "count", per_plan);
  Add(&pl, "server.agg_leaf_fetches_per_plan",
      Ratio(static_cast<double>(ex.agg_leaf_fetches), plans), "count",
      per_plan);
  Add(&pl, "server.agg_reuse_ratio", Ratio(reuse, lookups), "ratio",
      std::to_string(static_cast<uint64_t>(lookups)) +
          " cache hits + span hits + leaf fetches");
  Add(&pl, "server.agg_lookups", lookups, "count");
  Add(&pl, "server.bloom_fp_fallback_ratio",
      Ratio(static_cast<double>(ex.bloom_fp_fallbacks),
            static_cast<double>(ex.bloom_probes)),
      "ratio", std::to_string(ex.bloom_probes) + " bloom probes");
  Add(&pl, "server.bloom_probes", static_cast<double>(ex.bloom_probes),
      "count");
  Add(&pl, "server.digests_hashed_per_plan",
      Ratio(static_cast<double>(ex.digests_hashed), plans), "count", per_plan);
  Add(&pl, "server.shard_busy_imbalance", Ratio(busy_max, busy_mean), "ratio",
      "max over mean shard visit_us, " +
          std::to_string(ex.shard_busy.size()) + " shards");

  // DA and ingest layers: the live writer's traced window in ingest-mix,
  // the set-up history elsewhere (the only ingest those workloads run).
  const WriterLog& wl = spec.writer ? writer_state.logs[2] : fx->history();
  const ServerMetrics& im = spec.writer ? md : fx->history_metrics();
  const std::string src = spec.writer ? "" : " (set-up history)";
  const double barriers = static_cast<double>(im.ingest.summaries_published);
  const std::string per_barrier =
      std::to_string(im.ingest.summaries_published) + " barriers" + src;
  Add(&pl, "ingest.push_update_us_p99", Percentile(wl.push_update_us, 0.99),
      "us", std::to_string(wl.push_update_us.size()) + " pushes" + src);
  Add(&pl, "ingest.push_block_us_per_update",
      Ratio(static_cast<double>(im.ingest.push_block_us),
            static_cast<double>(im.ingest.updates_pushed)),
      "us", std::to_string(im.ingest.updates_pushed) + " updates" + src);
  Add(&pl, "ingest.publish_wait_ms_mean",
      Ratio(static_cast<double>(im.ingest.publish_wait_us) * 1e-3, barriers),
      "ms", per_barrier);
  Add(&pl, "ingest.queue_depth_max",
      static_cast<double>(im.ingest.queue_depth_max), "count");
  Add(&pl, "ingest.barriers", barriers, "count", src);
  Add(&pl, "ingest.bloom_full_rebuilds_per_barrier",
      Ratio(static_cast<double>(im.exec.bloom_full_rebuilds), barriers),
      "count", per_barrier);
  Add(&pl, "ingest.bloom_delta_merges_per_barrier",
      Ratio(static_cast<double>(im.exec.bloom_delta_merges), barriers),
      "count", per_barrier);
  Add(&pl, "epoch.pinned_max",
      static_cast<double>(spec.writer ? observer.pinned_max[2]
                                      : md.epoch.pinned),
      "count");
  Add(&pl, "ingest.served_epoch_lag_p99", tw.epoch_lag.Percentile(0.99),
      "epochs", std::to_string(tw.epoch_lag.count()) + " calls");

  Add(&pl, "da.sign_modify_us_p50", Percentile(wl.sign_us[0], 0.5), "us",
      std::to_string(wl.sign_us[0].size()) + " modifies" + src);
  Add(&pl, "da.sign_insert_us_p50", Percentile(wl.sign_us[1], 0.5), "us",
      std::to_string(wl.sign_us[1].size()) + " inserts" + src);
  Add(&pl, "da.sign_delete_us_p50", Percentile(wl.sign_us[2], 0.5), "us",
      std::to_string(wl.sign_us[2].size()) + " deletes" + src);
  Add(&pl, "da.publish_summary_ms_p50", Percentile(wl.publish_summary_ms, 0.5),
      "ms", std::to_string(wl.publish_summary_ms.size()) + " periods" + src);
  Add(&pl, "da.signatures_per_update",
      Ratio(static_cast<double>(wl.signatures),
            static_cast<double>(wl.updates)),
      "count", std::to_string(wl.updates) + " updates" + src);
  Add(&pl, "da.updates", static_cast<double>(wl.updates), "count", src);
  Add(&pl, "da.writer_busy_share",
      Ratio(wl.busy_s, spec.writer ? window_s : wl.wall_s), "ratio",
      spec.writer ? "writer busy over the traced window"
                  : "writer busy over the set-up history's wall time");
  Add(&pl, "da.bulk_load_s", Median(bulk_load_s), "s",
      std::to_string(sizes.distinct_b) + " distinct B values");

  // Verifier: inline batches in verify-batch; the post-window sample
  // (VerifyAnswerFresh) elsewhere.
  const double answers =
      spec.verify_inline ? static_cast<double>(tw.plans)
                         : static_cast<double>(samples.verified);
  const double verify_s = spec.verify_inline ? tw.verify_s : samples.seconds;
  Add(&pl, "verifier.verify_ms_per_answer", Ratio(verify_s * 1e3, answers),
      "ms",
      std::to_string(static_cast<uint64_t>(answers)) +
          (spec.verify_inline ? " answers in batches"
                              : " sampled answers, VerifyAnswerFresh"));
  Add(&pl, "verifier.answers", answers, "count");
  Add(&pl, "verifier.verify_share", Ratio(tw.verify_s, tw.op_s), "ratio",
      "verifier time over client-call time");
  Add(&pl, "verifier.aggregate_claims_per_batch",
      Ratio(static_cast<double>(tw.claims), static_cast<double>(tw.calls)),
      "count", std::to_string(tw.calls) + " calls");
  Add(&pl, "verifier.shared_inversions_per_batch",
      Ratio(static_cast<double>(tw.inversions), static_cast<double>(tw.calls)),
      "count", std::to_string(tw.calls) + " calls");

  Add(&pl, "crypto.pairing_us", crypto.pairing_us, "us");
  Add(&pl, "crypto.ec_add_ns", crypto.ec_add_ns, "ns", "Jacobian + affine");
  Add(&pl, "crypto.sha256_ns", crypto.sha256_ns, "ns", "64-byte message");
  Add(&pl, "crypto.bas_sign_us", crypto.bas_sign_us, "us");

  Add(&pl, "driver.self_share", Ratio(ts.self_s, ts.root_s), "ratio",
      std::to_string(ts.roots) + " client and writer root spans");
  Add(&pl, "driver.root_spans", static_cast<double>(ts.roots), "count");
  Add(&pl, "trace.spans", static_cast<double>(ts.spans), "count");
  Add(&pl, "process.cores_busy",
      Ratio(cpu[1] - cpu[0], w.Seconds(1)), "cores",
      "CPU seconds over wall seconds, untraced window");
  Add(&pl, "writer.lateness_p99_ms",
      Percentile(writer_state.lateness_ms[2], 0.99), "ms",
      std::to_string(writer_state.lateness_ms[2].size()) + " writer events");
  Add(&pl, "trace.overhead",
      Ratio(static_cast<double>(tally[2].ok) / w.Seconds(2),
            static_cast<double>(tally[1].ok) / w.Seconds(1)),
      "ratio", "traced over untraced ops_per_s, same process");

  if (ts.bad_nesting > 0) {
    out.correct = false;
    out.problems.push_back(std::to_string(ts.bad_nesting) +
                           " spans do not nest inside their parent");
  }
  if (Ratio(ts.self_s, ts.root_s) >= 0.10) {
    out.correct = false;
    out.problems.push_back("driver.self_share is not below 10%");
  }
  if (!opt.trace_out.empty() && !WriteSpans(opt.trace_out, logs)) {
    out.correct = false;
    out.problems.push_back("could not write spans to " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
