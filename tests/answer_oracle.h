// Test-side oracles for served answers, shared by the engine suites:
//
//  * DiffAnswers — two servers (e.g. a 1-shard and a K-shard
//    ShardedQueryServer) must agree on an answer field for field;
//  * CheckAgainstTable — the rows, boundary keys, witnesses and Bloom
//    verdicts an answer must carry, computed from the data aggregator's own
//    AuthTable (AuthTable::Scan / NeighborKeys) and certified partitions.
//    The DA table is a B+-tree over disk pages that shares no code with the
//    serving engine's epoch snapshots, so it is an independent oracle.
//
// Both return "" on agreement and the name of the first mismatching field
// otherwise, so a seeded caller can print the seed next to it.
#ifndef AUTHDB_TESTS_ANSWER_ORACLE_H_
#define AUTHDB_TESTS_ANSWER_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/auth_table.h"
#include "core/chain.h"
#include "core/join.h"
#include "core/protocol.h"

namespace authdb {
namespace oracle {

/// Collects the first failed comparison.
class Mismatch {
 public:
  void Check(bool same, const std::string& what) {
    if (first_.empty() && !same) first_ = what;
  }
  bool found() const { return !first_.empty(); }
  const std::string& first() const { return first_; }

 private:
  std::string first_;
};

inline std::string At(const char* field, size_t i) {
  return std::string(field) + "[" + std::to_string(i) + "]";
}

inline void CheckSummaries(const CurveGroup& curve, const char* field,
                           const std::vector<UpdateSummary>& a,
                           const std::vector<UpdateSummary>& b, Mismatch* m) {
  m->Check(a.size() == b.size(), std::string(field) + ".size");
  for (size_t i = 0; i < a.size() && !m->found(); ++i) {
    const std::string at = At(field, i);
    m->Check(a[i].seq == b[i].seq, at + ".seq");
    m->Check(a[i].publish_ts == b[i].publish_ts, at + ".publish_ts");
    m->Check(a[i].nbits == b[i].nbits, at + ".nbits");
    m->Check(a[i].compressed_bitmap == b[i].compressed_bitmap, at + ".bitmap");
    m->Check(curve.Equal(a[i].sig.point, b[i].sig.point), at + ".sig");
  }
}

inline void CheckWitness(const std::optional<DigestWitness>& a,
                         const std::optional<DigestWitness>& b,
                         const std::string& field, Mismatch* m) {
  m->Check(a.has_value() == b.has_value(), field);
  if (!a || !b) return;
  m->Check(a->key == b->key, field + ".key");
  m->Check(a->rid == b->rid, field + ".rid");
  m->Check(a->ts == b->ts, field + ".ts");
  m->Check(a->digest == b->digest, field + ".digest");
}

inline void CheckAbsence(const AbsenceProof& a, const AbsenceProof& b,
                         const std::string& at, Mismatch* m) {
  m->Check(a.a_value == b.a_value, at + ".a_value");
  m->Check(a.rec_key == b.rec_key, at + ".rec_key");
  m->Check(a.rec_rid == b.rec_rid, at + ".rec_rid");
  m->Check(a.rec_ts == b.rec_ts, at + ".rec_ts");
  m->Check(a.rec_digest == b.rec_digest, at + ".rec_digest");
  m->Check(a.left_key == b.left_key, at + ".left_key");
  m->Check(a.right_key == b.right_key, at + ".right_key");
}

/// Field-for-field comparison of two served answers: payload, proofs,
/// aggregate signature, attached summaries and the epoch stamp.
inline std::string DiffAnswers(const CurveGroup& curve, const QueryAnswer& a,
                               const QueryAnswer& b) {
  Mismatch m;
  m.Check(a.kind == b.kind, "kind");
  m.Check(a.outcome == b.outcome, "outcome");
  m.Check(a.served_epoch == b.served_epoch, "served_epoch");
  CheckSummaries(curve, "summaries", a.summaries, b.summaries, &m);
  if (m.found()) return m.first();
  switch (a.kind) {
    case QueryKind::kSelect: {
      const SelectionAnswer& x = a.selection;
      const SelectionAnswer& y = b.selection;
      m.Check(x.records == y.records, "selection.records");
      m.Check(x.left_key == y.left_key, "selection.left_key");
      m.Check(x.right_key == y.right_key, "selection.right_key");
      m.Check(x.proof_record == y.proof_record, "selection.proof_record");
      m.Check(curve.Equal(x.agg_sig.point, y.agg_sig.point), "selection.sig");
      CheckSummaries(curve, "selection.summaries", x.summaries, y.summaries,
                     &m);
      m.Check(x.served_epoch == y.served_epoch, "selection.served_epoch");
      break;
    }
    case QueryKind::kProject: {
      const ProjectedRangeAnswer& x = a.projection;
      const ProjectedRangeAnswer& y = b.projection;
      m.Check(x.tuples.size() == y.tuples.size(), "projection.tuples.size");
      for (size_t i = 0; i < x.tuples.size() && !m.found(); ++i) {
        const std::string at = At("projection.tuples", i);
        const ProjectedTuple& s = x.tuples[i];
        const ProjectedTuple& t = y.tuples[i];
        m.Check(s.rid == t.rid, at + ".rid");
        m.Check(s.ts == t.ts, at + ".ts");
        m.Check(s.attr_indices == t.attr_indices, at + ".attr_indices");
        m.Check(s.values == t.values, at + ".values");
      }
      m.Check(x.digests == y.digests, "projection.digests");
      m.Check(x.left_key == y.left_key, "projection.left_key");
      m.Check(x.right_key == y.right_key, "projection.right_key");
      CheckWitness(x.proof, y.proof, "projection.proof", &m);
      m.Check(curve.Equal(x.agg_sig.point, y.agg_sig.point), "projection.sig");
      break;
    }
    case QueryKind::kJoin: {
      const JoinAnswer& x = a.join;
      const JoinAnswer& y = b.join;
      m.Check(x.method == y.method, "join.method");
      m.Check(x.matches.size() == y.matches.size(), "join.matches.size");
      for (size_t i = 0; i < x.matches.size() && !m.found(); ++i) {
        const std::string at = At("join.matches", i);
        const JoinMatch& s = x.matches[i];
        const JoinMatch& t = y.matches[i];
        m.Check(s.a_value == t.a_value, at + ".a_value");
        m.Check(s.s_records == t.s_records, at + ".s_records");
        m.Check(s.left_key == t.left_key, at + ".left_key");
        m.Check(s.right_key == t.right_key, at + ".right_key");
      }
      m.Check(x.negative_probes == y.negative_probes, "join.negative_probes");
      m.Check(x.partitions.size() == y.partitions.size(), "join.partitions");
      for (size_t i = 0; i < x.partitions.size() && !m.found(); ++i) {
        const std::string at = At("join.partitions", i);
        const CertifiedPartition& s = x.partitions[i];
        const CertifiedPartition& t = y.partitions[i];
        m.Check(s.idx == t.idx, at + ".idx");
        m.Check(s.lo_b == t.lo_b && s.hi_b == t.hi_b, at + ".range");
        m.Check(s.ts == t.ts, at + ".ts");
        m.Check(s.filter.bit_count() == t.filter.bit_count(), at + ".bits");
        m.Check(s.filter.hash_count() == t.filter.hash_count(), at + ".k");
        m.Check(s.filter.bytes() == t.filter.bytes(), at + ".filter");
        m.Check(curve.Equal(s.sig.point, t.sig.point), at + ".sig");
      }
      m.Check(x.absence_proofs.size() == y.absence_proofs.size(),
              "join.absence_proofs.size");
      for (size_t i = 0; i < x.absence_proofs.size() && !m.found(); ++i) {
        CheckAbsence(x.absence_proofs[i], y.absence_proofs[i],
                     At("join.absence_proofs", i), &m);
      }
      m.Check(curve.Equal(x.agg_sig.point, y.agg_sig.point), "join.sig");
      break;
    }
  }
  return m.first();
}

/// What a scan of the DA's table says about the range [lo, hi]: its rows,
/// and either the boundary keys around them or — when the range is empty —
/// the witness record whose chain spans it and that record's neighbors.
struct TableRange {
  std::vector<Record> rows;
  int64_t left_key = kChainMinusInf;
  int64_t right_key = kChainPlusInf;
  std::optional<Record> witness;
};

inline TableRange ScanTable(const AuthTable& table, int64_t lo, int64_t hi) {
  AuthTable::RangeOut scan = table.Scan(lo, hi);
  TableRange out;
  for (const AuthTable::Item& item : scan.items)
    out.rows.push_back(item.record);
  if (!out.rows.empty()) {
    if (scan.left_boundary) out.left_key = scan.left_boundary->record.key();
    if (scan.right_boundary) out.right_key = scan.right_boundary->record.key();
    return out;
  }
  if (scan.left_boundary) {
    out.witness = scan.left_boundary->record;
  } else if (scan.right_boundary) {
    out.witness = scan.right_boundary->record;
  }
  if (out.witness) {
    auto [left, right] = table.NeighborKeys(out.witness->key());
    out.left_key = left;
    out.right_key = right;
  }
  return out;
}

/// The digest-only witness a projection ships for an empty range.
inline std::optional<DigestWitness> WitnessOf(const TableRange& range) {
  if (!range.witness) return std::nullopt;
  const Record& r = *range.witness;
  return DigestWitness{r.key(), r.rid, r.ts, r.Digest()};
}

/// Checks one join value against the table: a match group with exactly the
/// table's rows and boundaries, a negative probe the DA's own filter
/// confirms, or an absence witness the table's scan picks. Advances the
/// cursor of the proof list the value was answered from.
inline void CheckJoinValue(const AuthTable& table,
                           const std::vector<CertifiedPartition>& partitions,
                           const Query& q, int64_t a, const JoinAnswer& got,
                           size_t cursor[3], std::set<uint32_t>* used,
                           Mismatch* m) {
  const std::string at = "join value " + std::to_string(a);
  const int64_t lo = JoinCompositeKey(a, 0);
  const TableRange want =
      ScanTable(table, lo, JoinCompositeKey(a, kJoinMaxDup));
  if (!want.rows.empty()) {
    m->Check(cursor[0] < got.matches.size(), at + ": no match group");
    if (m->found()) return;
    const JoinMatch& match = got.matches[cursor[0]++];
    m->Check(match.a_value == a, at + ": match a_value");
    m->Check(match.s_records == want.rows, at + ": match rows vs table");
    m->Check(match.left_key == want.left_key, at + ": match left_key");
    m->Check(match.right_key == want.right_key, at + ": match right_key");
    return;
  }
  const CertifiedPartition* part = nullptr;
  if (q.join_method == JoinMethod::kBloomFilter)
    part = FindCoveringPartition(partitions, a);
  if (part != nullptr) {
    used->insert(part->idx);
    if (!part->filter.MayContainInt64(a)) {
      m->Check(cursor[1] < got.negative_probes.size(), at + ": no probe");
      if (m->found()) return;
      const auto& [value, idx] = got.negative_probes[cursor[1]++];
      m->Check(value == a && idx == part->idx, at + ": negative probe");
      return;
    }
  }
  m->Check(want.witness.has_value(), at + ": table has no witness");
  m->Check(cursor[2] < got.absence_proofs.size(), at + ": no witness");
  if (m->found()) return;
  AbsenceProof expect;
  expect.a_value = a;
  expect.rec_key = want.witness->key();
  expect.rec_rid = want.witness->rid;
  expect.rec_ts = want.witness->ts;
  expect.rec_digest = want.witness->Digest();
  std::tie(expect.left_key, expect.right_key) =
      table.NeighborKeys(expect.rec_key);
  CheckAbsence(got.absence_proofs[cursor[2]++], expect, at + ": witness", m);
}

/// Checks `ans` (the answer to `q`) against the DA's table and its current
/// certified partitions: selected rows and boundary keys; projected tuples,
/// digest spine and empty-range witness; for joins, every match group's
/// rows and boundaries, every absence witness, and every negative probe
/// (which the DA's own filter must answer "absent"), with each shipped
/// partition identical to the DA's.
inline std::string CheckAgainstTable(
    const AuthTable& table, const std::vector<CertifiedPartition>& partitions,
    const Query& q, const QueryAnswer& ans) {
  Mismatch m;
  m.Check(ans.kind == q.kind, "kind");
  if (m.found()) return m.first();
  switch (q.kind) {
    case QueryKind::kSelect: {
      const TableRange want = ScanTable(table, q.lo, q.hi);
      const SelectionAnswer& got = ans.selection;
      m.Check(got.records == want.rows, "selection rows vs table");
      m.Check(got.left_key == want.left_key, "selection left_key vs table");
      m.Check(got.right_key == want.right_key, "selection right_key");
      m.Check(got.proof_record == want.witness, "selection proof_record");
      break;
    }
    case QueryKind::kProject: {
      const TableRange want = ScanTable(table, q.lo, q.hi);
      const ProjectedRangeAnswer& got = ans.projection;
      const std::vector<uint32_t> attrs =
          EffectiveProjectionAttrs(q.attr_indices);
      m.Check(got.tuples.size() == want.rows.size(), "projection tuples");
      m.Check(got.digests.size() == want.rows.size(), "projection digests");
      for (size_t i = 0; i < want.rows.size() && !m.found(); ++i) {
        const std::string at = At("projection tuple", i);
        const Record& row = want.rows[i];
        std::vector<int64_t> values;
        for (uint32_t attr : attrs) values.push_back(row.attrs.at(attr));
        const ProjectedTuple& t = got.tuples[i];
        m.Check(t.rid == row.rid, at + ".rid vs table");
        m.Check(t.ts == row.ts, at + ".ts vs table");
        m.Check(t.attr_indices == attrs, at + ".attr_indices");
        m.Check(t.values == values, at + ".values vs table");
        m.Check(got.digests[i] == row.Digest(), at + " digest vs table");
      }
      m.Check(got.left_key == want.left_key, "projection left_key");
      m.Check(got.right_key == want.right_key, "projection right_key");
      CheckWitness(got.proof, WitnessOf(want), "projection proof", &m);
      break;
    }
    case QueryKind::kJoin: {
      std::vector<int64_t> values = q.join_values;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      const JoinAnswer& got = ans.join;
      size_t cursor[3] = {0, 0, 0};  // matches, negative probes, witnesses
      std::set<uint32_t> used;
      for (size_t i = 0; i < values.size() && !m.found(); ++i)
        CheckJoinValue(table, partitions, q, values[i], got, cursor, &used, &m);
      m.Check(cursor[0] == got.matches.size(), "join: extra match groups");
      m.Check(cursor[1] == got.negative_probes.size(), "join: extra probes");
      m.Check(cursor[2] == got.absence_proofs.size(), "join: extra witness");
      m.Check(got.partitions.size() == used.size(), "join partition count");
      for (const CertifiedPartition& shipped : got.partitions) {
        const std::string at = "join partition " + std::to_string(shipped.idx);
        const CertifiedPartition* da = nullptr;
        for (const CertifiedPartition& p : partitions)
          if (p.idx == shipped.idx) da = &p;
        m.Check(da != nullptr && used.count(shipped.idx) == 1, at + " unused");
        if (m.found()) break;
        m.Check(shipped.ts == da->ts, at + " ts vs DA");
        m.Check(shipped.filter.bytes() == da->filter.bytes(), at + " vs DA");
      }
      break;
    }
  }
  return m.first();
}

}  // namespace oracle
}  // namespace authdb

#endif  // AUTHDB_TESTS_ANSWER_ORACLE_H_
