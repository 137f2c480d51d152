// ServerMetrics contract tests: the dotted names Flatten() emits are a
// STABLE telemetry surface — bench JSON keys, the README metrics table,
// and downstream dashboards all hang off them. This suite pins the full
// name set, so renaming or dropping a counter fails here first, as an
// explicit API break; it checks Delta() and MetricsCore row by row over
// the metric registry, so a new row is covered with no new test code; and
// it checks the README metrics table against the registry's docs.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "server/metrics.h"

namespace authdb {
namespace {

// The frozen name set (scalar counters; per-shard names are prefix + shard
// index and are pinned separately below). Additions append; renames and
// removals are breaking.
const char* const kStableNames[] = {
    "exec.batches",
    "exec.plans",
    "exec.invalid_plans",
    "exec.shards_queried",
    "exec.batch.shard_visits",
    "exec.batch.finalizes",
    "exec.agg.point_adds",
    "exec.agg.leaf_fetches",
    "exec.agg.cache_hits",
    "exec.agg.refreshes",
    "exec.agg.span_hits",
    "exec.crypto.digests_hashed",
    "exec.bloom.probes",
    "exec.bloom.block_hits",
    "exec.bloom.fp_fallbacks",
    "exec.bloom.delta_merges",
    "exec.bloom.full_rebuilds",
    "exec.last_epoch",
    "admission.enabled",
    "admission.admitted_total",
    "admission.shed_total",
    "admission.select.admitted",
    "admission.select.shed",
    "admission.project.admitted",
    "admission.project.shed",
    "admission.join.admitted",
    "admission.join.shed",
    "admission.priority_grants",
    "admission.bulk_grants",
    "admission.starvation_grants",
    "admission.queue_wait_us",
    "admission.queue_depth_max",
    "epoch.current",
    "epoch.pinned",
    "epoch.published_total",
    "epoch.publish_backpressure_us",
    "ingest.updates_pushed",
    "ingest.pieces_applied",
    "ingest.summaries_published",
    "ingest.apply_failures",
    "ingest.queue_depth_max",
    "ingest.push_block_us",
    "ingest.publish_wait_us",
};

const char* const kPerShardPrefixes[] = {
    "exec.batch.shard_busy_us.",
    "exec.batch.select_us.",
    "exec.batch.project_us.",
    "exec.batch.join_us.",
};

TEST(ServerMetricsTest, FlattenEmitsExactlyTheStableNames) {
  ServerMetrics m;
  m.exec.shard_busy.resize(3);
  std::set<std::string> emitted;
  for (const auto& [name, value] : m.Flatten()) {
    EXPECT_TRUE(emitted.insert(name).second) << "duplicate name " << name;
  }
  std::set<std::string> expected;
  for (const char* name : kStableNames) expected.insert(name);
  for (const char* prefix : kPerShardPrefixes)
    for (int s = 0; s < 3; ++s) expected.insert(prefix + std::to_string(s));
  EXPECT_EQ(emitted, expected);
}

TEST(ServerMetricsTest, ValueLooksUpByExactName) {
  ServerMetrics m;
  m.exec.batches = 7;
  m.admission.enabled = true;
  m.admission.shed_total = 13;
  m.ingest.publish_wait_us = 450;
  EXPECT_EQ(m.Value("exec.batches"), 7.0);
  EXPECT_EQ(m.Value("admission.enabled"), 1.0);
  EXPECT_EQ(m.Value("admission.shed_total"), 13.0);
  EXPECT_EQ(m.Value("ingest.publish_wait_us"), 450.0);
  EXPECT_EQ(m.Value("no.such.counter"), 0.0);
}

TEST(ServerMetricsTest, DeltaSubtractsCountersButKeepsPointInTimeValues) {
  ServerMetrics before;
  before.exec.batches = 10;
  before.exec.plans = 40;
  before.exec.last_epoch = 3;
  before.epoch.current = 3;
  before.epoch.pinned = 1;
  before.admission.shed_total = 5;
  before.ingest.updates_pushed = 100;
  before.ingest.queue_depth_max = 4;
  before.exec.shard_busy.resize(2);
  before.exec.shard_busy[1].visit_us = 50;

  ServerMetrics after = before;
  after.exec.batches = 25;
  after.exec.plans = 90;
  after.exec.last_epoch = 7;
  after.epoch.current = 7;
  after.epoch.pinned = 2;
  after.admission.shed_total = 9;
  after.ingest.updates_pushed = 260;
  after.ingest.queue_depth_max = 6;
  after.exec.shard_busy[1].visit_us = 80;

  ServerMetrics d = after.Delta(before);
  // Monotonic counters subtract...
  EXPECT_EQ(d.exec.batches, 15u);
  EXPECT_EQ(d.exec.plans, 50u);
  EXPECT_EQ(d.admission.shed_total, 4u);
  EXPECT_EQ(d.ingest.updates_pushed, 160u);
  EXPECT_EQ(d.exec.shard_busy[1].visit_us, 30u);
  // ...point-in-time values and high-water marks keep the later snapshot.
  EXPECT_EQ(d.exec.last_epoch, 7u);
  EXPECT_EQ(d.epoch.current, 7u);
  EXPECT_EQ(d.epoch.pinned, 2u);
  EXPECT_EQ(d.ingest.queue_depth_max, 6u);
}

TEST(MetricsCoreTest, FoldAndSnapshotAccumulate) {
  MetricsCore core(2);
  ServerMetrics::Exec batch;
  batch.batches = 1;
  batch.last_epoch = 4;
  batch.plans = 3;
  batch.shards_queried = 5;
  batch.shard_visits = 2;
  batch.batch_finalizes = 1;
  batch.shard_busy.resize(2);
  batch.shard_busy[0].visit_us = 10;
  batch.shard_busy[0].select_us = 6;
  core.FoldBatch(batch);
  core.FoldBatch(batch);
  core.RecordPublish(/*backpressure_us=*/120);
  core.RecordPartitionRefresh(/*delta_merges=*/3, /*full_rebuilds=*/1);

  ServerMetrics m;
  core.Snapshot(&m);
  EXPECT_EQ(m.exec.batches, 2u);
  EXPECT_EQ(m.exec.plans, 6u);
  EXPECT_EQ(m.exec.shards_queried, 10u);
  EXPECT_EQ(m.exec.shard_visits, 4u);
  EXPECT_EQ(m.exec.last_epoch, 4u);
  ASSERT_EQ(m.exec.shard_busy.size(), 2u);
  EXPECT_EQ(m.exec.shard_busy[0].visit_us, 20u);
  EXPECT_EQ(m.exec.shard_busy[0].select_us, 12u);
  EXPECT_EQ(m.exec.shard_busy[1].visit_us, 0u);
  EXPECT_EQ(m.epoch.published_total, 1u);
  EXPECT_EQ(m.epoch.publish_backpressure_us, 120u);
  EXPECT_EQ(m.exec.bloom_delta_merges, 3u);
  EXPECT_EQ(m.exec.bloom_full_rebuilds, 1u);
}

// ---------------------------------------------------------------------------
// Registry-driven checks: every row of every registry table, no per-metric
// code.

struct RowRef {
  std::string name;
  MetricKind kind;
  uint64_t* value;
};

template <typename S, size_t N>
void Collect(const MetricDef<S> (&rows)[N], S* s, const std::string& suffix,
             std::vector<RowRef>* out) {
  for (const MetricDef<S>& row : rows)
    out->push_back(RowRef{row.name + suffix, row.kind, &(s->*row.member)});
}

/// Every registry row of `m` in Flatten() order, per-shard rows once per
/// shard.
std::vector<RowRef> AllRows(ServerMetrics* m) {
  std::vector<RowRef> out;
  Collect(ServerMetrics::kExecMetrics, &m->exec, "", &out);
  for (size_t s = 0; s < m->exec.shard_busy.size(); ++s) {
    Collect(ServerMetrics::kShardBusyMetrics, &m->exec.shard_busy[s],
            std::to_string(s), &out);
  }
  Collect(ServerMetrics::kAdmissionMetrics, &m->admission, "", &out);
  Collect(ServerMetrics::kEpochMetrics, &m->epoch, "", &out);
  Collect(ServerMetrics::kIngestMetrics, &m->ingest, "", &out);
  return out;
}

TEST(MetricRegistryTest, FlattenReadsEveryRowInRegistryOrder) {
  ServerMetrics m;
  m.exec.shard_busy.resize(2);
  std::vector<RowRef> rows = AllRows(&m);
  for (size_t i = 0; i < rows.size(); ++i) *rows[i].value = 7 + i;
  const auto flat = m.Flatten();
  ASSERT_EQ(flat.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(flat[i].first, rows[i].name);
    EXPECT_EQ(flat[i].second, static_cast<double>(7 + i)) << rows[i].name;
  }
}

TEST(MetricRegistryTest, DeltaSubtractsCountersAndKeepsGaugesAndHighWater) {
  // For every row: `since` holds 1000 + i and `b` holds 1 + i. The later
  // snapshot holds since + b on counter rows and b elsewhere, so Delta must
  // give back exactly b on every row. Values are distinct per row, so two
  // rows bound to one field fail too.
  ServerMetrics since, later;
  since.exec.shard_busy.resize(2);
  later.exec.shard_busy.resize(2);
  std::vector<RowRef> since_rows = AllRows(&since);
  std::vector<RowRef> later_rows = AllRows(&later);
  ASSERT_EQ(since_rows.size(), later_rows.size());
  for (size_t i = 0; i < since_rows.size(); ++i) {
    *since_rows[i].value = 1000 + i;
    *later_rows[i].value =
        since_rows[i].kind == MetricKind::kCounter ? 1001 + 2 * i : 1 + i;
  }
  ServerMetrics d = later.Delta(since);
  std::vector<RowRef> d_rows = AllRows(&d);
  ASSERT_EQ(d_rows.size(), since_rows.size());
  for (size_t i = 0; i < d_rows.size(); ++i)
    EXPECT_EQ(*d_rows[i].value, 1 + i) << d_rows[i].name;
}

TEST(MetricRegistryTest, FoldingATallyTwiceDoublesEveryExecCounter) {
  ServerMetrics t;
  t.exec.shard_busy.resize(2);
  std::vector<RowRef> tally;
  Collect(ServerMetrics::kExecMetrics, &t.exec, "", &tally);
  for (size_t s = 0; s < 2; ++s) {
    Collect(ServerMetrics::kShardBusyMetrics, &t.exec.shard_busy[s],
            std::to_string(s), &tally);
  }
  for (size_t i = 0; i < tally.size(); ++i) *tally[i].value = 100 + i;

  MetricsCore core(2);
  core.FoldBatch(t.exec);
  core.FoldBatch(t.exec);
  ServerMetrics m;
  core.Snapshot(&m);
  ASSERT_EQ(m.exec.shard_busy.size(), 2u);
  std::vector<RowRef> got;
  Collect(ServerMetrics::kExecMetrics, &m.exec, "", &got);
  for (size_t s = 0; s < 2; ++s) {
    Collect(ServerMetrics::kShardBusyMetrics, &m.exec.shard_busy[s],
            std::to_string(s), &got);
  }
  ASSERT_EQ(got.size(), tally.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const uint64_t want =
        got[i].kind == MetricKind::kCounter ? 2 * (100 + i) : 100 + i;
    EXPECT_EQ(*got[i].value, want) << got[i].name;
  }
}

// ---------------------------------------------------------------------------
// The README metrics table is rendered from the registry: one row per
// name, per-shard rows with a `<s>` placeholder for the shard index.

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHighWater:
      return "high-water";
  }
  return "?";
}

template <typename S, size_t N>
void RenderRows(const MetricDef<S> (&rows)[N], const std::string& suffix,
                std::string* out) {
  for (const MetricDef<S>& row : rows) {
    *out += "| `" + std::string(row.name) + suffix + "` | " +
            KindName(row.kind) + " | " + row.doc + " |\n";
  }
}

std::string RenderMetricsTable() {
  std::string out = "| name | kind | meaning |\n|---|---|---|\n";
  RenderRows(ServerMetrics::kExecMetrics, "", &out);
  RenderRows(ServerMetrics::kShardBusyMetrics, "<s>", &out);
  RenderRows(ServerMetrics::kAdmissionMetrics, "", &out);
  RenderRows(ServerMetrics::kEpochMetrics, "", &out);
  RenderRows(ServerMetrics::kIngestMetrics, "", &out);
  return out;
}

TEST(MetricRegistryTest, ReadmeTableMatchesTheRegistry) {
  std::ifstream in(AUTHDB_README_PATH);
  ASSERT_TRUE(in.good()) << "cannot read " << AUTHDB_README_PATH;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string readme = buf.str();
  const std::string expected = RenderMetricsTable();
  const std::string hint =
      "the README block between the metrics-table markers should read:\n" +
      expected;
  const size_t begin = readme.find("<!-- metrics-table:begin");
  ASSERT_NE(begin, std::string::npos) << hint;
  const size_t body = readme.find('\n', begin) + 1;
  const size_t end = readme.find("<!-- metrics-table:end -->", body);
  ASSERT_NE(end, std::string::npos) << hint;
  EXPECT_EQ(readme.substr(body, end - body), expected)
      << "README metrics table differs from the registry in "
         "src/server/metrics.h; "
      << hint;
}

}  // namespace
}  // namespace authdb
