#include "core/sigcache.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace authdb {

namespace {
bool IsPowerOfTwo(uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

int Log2(uint64_t n) {
  int l = 0;
  while ((uint64_t{1} << l) < n) ++l;
  return l;
}
}  // namespace

CardinalityDist CardinalityDist::Harmonic(uint64_t n) {
  std::vector<double> p(n + 1, 0.0);
  double h = 0;
  for (uint64_t q = 1; q <= n; ++q) h += 1.0 / q;
  for (uint64_t q = 1; q <= n; ++q) p[q] = (1.0 / q) / h;
  return CardinalityDist(std::move(p));
}

CardinalityDist CardinalityDist::Uniform(uint64_t n) {
  std::vector<double> p(n + 1, 1.0 / n);
  p[0] = 0;
  return CardinalityDist(std::move(p));
}

CardinalityDist CardinalityDist::UniformRange(uint64_t n, uint64_t lo,
                                              uint64_t hi) {
  AUTHDB_CHECK(1 <= lo && lo <= hi && hi <= n);
  std::vector<double> p(n + 1, 0.0);
  double w = 1.0 / static_cast<double>(hi - lo + 1);
  for (uint64_t q = lo; q <= hi; ++q) p[q] = w;
  return CardinalityDist(std::move(p));
}

uint64_t SigTreeXi(uint64_t n, int level, uint64_t j, uint64_t q) {
  AUTHDB_CHECK(IsPowerOfTwo(n));
  uint64_t m = uint64_t{1} << level;
  uint64_t nodes = n / m;  // M = N / 2^i
  AUTHDB_CHECK(j < nodes && q >= 1 && q <= n);
  if (q < m) return 0;  // 2^i > q
  if (q < 2 * m) {
    // 2^i <= q < 2^{i+1}
    if (j > 0 && j + 1 < nodes) return q - m + 1;
    return 1;
  }
  // q >= 2^{i+1}. D is the node's edge distance that gates usability.
  if (nodes < 2) return 0;  // the root cannot serve q > N anyway
  uint64_t d = (j % 2 == 1) ? (nodes - j) : (j + 1);
  if (q <= m * d) return m;                           // full usability
  if (q < m * (d + 1)) return m * (d + 1) - q;        // partial: m - q + D*m
  return 0;
}

// ---------------------------------------------------------------------------
// Planner

namespace {
/// Prefix sums of w(q) = P(q)/(N-q+1) and q*w(q), enabling O(1) per-node
/// probabilities: every xi segment is linear in q.
struct WeightSums {
  std::vector<double> w_sum, qw_sum;  // cumulative over q = 1..N

  explicit WeightSums(const CardinalityDist& dist) {
    uint64_t n = dist.N();
    w_sum.assign(n + 1, 0.0);
    qw_sum.assign(n + 1, 0.0);
    for (uint64_t q = 1; q <= n; ++q) {
      double w = dist.P(q) / static_cast<double>(n - q + 1);
      w_sum[q] = w_sum[q - 1] + w;
      qw_sum[q] = qw_sum[q - 1] + static_cast<double>(q) * w;
    }
  }
  double W(uint64_t a, uint64_t b) const {  // sum over [a, b], clamped
    uint64_t n = w_sum.size() - 1;
    if (a > b || a > n) return 0;
    b = std::min(b, n);
    return w_sum[b] - w_sum[a - 1];
  }
  double QW(uint64_t a, uint64_t b) const {
    uint64_t n = qw_sum.size() - 1;
    if (a > b || a > n) return 0;
    b = std::min(b, n);
    return qw_sum[b] - qw_sum[a - 1];
  }
};

double NodeProbabilityWithSums(uint64_t n, const WeightSums& sums, int level,
                               uint64_t j) {
  uint64_t m = uint64_t{1} << level;
  uint64_t nodes = n / m;
  double p = 0;
  // Segment 1: q in [m, 2m-1].
  if (j > 0 && j + 1 < nodes) {
    p += sums.QW(m, 2 * m - 1) -
         static_cast<double>(m - 1) * sums.W(m, 2 * m - 1);
  } else {
    p += sums.W(m, 2 * m - 1);
  }
  // Segment 2: q >= 2m.
  if (nodes >= 2) {
    uint64_t d = (j % 2 == 1) ? (nodes - j) : (j + 1);
    p += static_cast<double>(m) * sums.W(2 * m, m * d);
    uint64_t lo = std::max(2 * m, m * d + 1);
    uint64_t hi = m * d + m - 1;
    if (lo <= hi) {
      p += static_cast<double>(m) * static_cast<double>(d + 1) *
               sums.W(lo, hi) -
           sums.QW(lo, hi);
    }
  }
  return p;
}
}  // namespace

double SigCachePlanner::NodeProbability(uint64_t n,
                                        const CardinalityDist& dist,
                                        int level, uint64_t j) {
  WeightSums sums(dist);
  return NodeProbabilityWithSums(n, sums, level, j);
}

SigCachePlanner::PlanResult SigCachePlanner::Plan(uint64_t n,
                                                  const CardinalityDist& dist,
                                                  size_t max_pairs,
                                                  size_t edge_band) {
  AUTHDB_CHECK(IsPowerOfTwo(n));
  WeightSums sums(dist);
  int levels = Log2(n);

  struct Node {
    int level;
    uint64_t j;
    double prob;
    double savings;  // current savings (additions avoided), mutable
  };
  // Candidate set: per level, an edge band on each side (plus whole levels
  // when small). Closed under the ancestor relation.
  std::vector<Node> nodes;
  std::map<std::pair<int, uint64_t>, size_t> index;
  for (int level = 1; level <= levels; ++level) {
    uint64_t count = n >> level;
    auto add = [&](uint64_t j) {
      if (index.count({level, j})) return;
      index[{level, j}] = nodes.size();
      nodes.push_back(Node{level, j, NodeProbabilityWithSums(n, sums, level, j),
                           static_cast<double>((uint64_t{1} << level) - 1)});
    };
    if (count <= 2 * edge_band) {
      for (uint64_t j = 0; j < count; ++j) add(j);
    } else {
      for (uint64_t j = 0; j < edge_band; ++j) {
        add(j);
        add(count - 1 - j);
      }
    }
  }

  double base_cost = 0;
  for (uint64_t q = 1; q <= n; ++q)
    base_cost += static_cast<double>(q - 1) * dist.P(q);

  // Greedy order by initial utility.
  std::vector<size_t> order(nodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return nodes[a].prob * nodes[a].savings > nodes[b].prob * nodes[b].savings;
  });

  std::set<size_t> cached;
  double cached_utility_sum = 0;  // sum of prob*savings over cached nodes
  auto ancestors_of = [&](size_t idx) {
    std::vector<size_t> out;
    int level = nodes[idx].level;
    uint64_t j = nodes[idx].j;
    for (int l = level + 1; l <= levels; ++l) {
      j >>= 1;
      auto it = index.find({l, j});
      if (it != index.end()) out.push_back(it->second);
    }
    return out;
  };

  PlanResult result;
  result.base_cost = base_cost;
  result.cost_after_pairs.push_back(base_cost);
  double prev_cost = base_cost;

  for (size_t oi = 0; oi < order.size() && cached.size() / 2 < max_pairs;
       ++oi) {
    size_t idx = order[oi];
    if (cached.count(idx)) continue;
    const Node& node = nodes[idx];
    // Mirror partner (Section 4.1's symmetry optimization).
    uint64_t count = n >> node.level;
    uint64_t mirror_j = count - 1 - node.j;
    size_t midx = idx;
    auto mit = index.find({node.level, mirror_j});
    if (mit != index.end()) midx = mit->second;

    std::vector<size_t> members = {idx};
    if (midx != idx && !cached.count(midx)) members.push_back(midx);

    // Tentatively cache the pair: each member lowers its ancestors' savings
    // by its own current savings (Algorithm 1 line 11).
    std::vector<std::pair<size_t, double>> undo;  // (node, delta applied)
    double utility_before = cached_utility_sum;
    for (size_t mem : members) {
      double s = nodes[mem].savings;
      for (size_t anc : ancestors_of(mem)) {
        nodes[anc].savings -= s;
        if (cached.count(anc)) cached_utility_sum -= nodes[anc].prob * s;
        undo.push_back({anc, s});
      }
      cached.insert(mem);
      cached_utility_sum += nodes[mem].prob * nodes[mem].savings;
    }
    double curr_cost = base_cost - cached_utility_sum;
    if (curr_cost > prev_cost) {
      // Adding this pair raises the expected cost: revert (lines 14-16).
      for (auto it = undo.rbegin(); it != undo.rend(); ++it)
        nodes[it->first].savings += it->second;
      for (size_t mem : members) cached.erase(mem);
      cached_utility_sum = utility_before;
      continue;
    }
    prev_cost = curr_cost;
    for (size_t mem : members) {
      result.chosen.push_back(
          Choice{nodes[mem].level, nodes[mem].j,
                 nodes[mem].prob * nodes[mem].savings});
    }
    result.cost_after_pairs.push_back(curr_cost);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Runtime cache

SigCache::SigCache(std::shared_ptr<const BasContext> ctx,
                   uint64_t n_positions, RefreshMode mode,
                   LeafProvider leaves)
    : ctx_(std::move(ctx)),
      n_(n_positions),
      max_level_(Log2(std::max<uint64_t>(1, n_positions))),
      mode_(mode),
      leaves_(std::move(leaves)) {}

void SigCache::Pin(int level, uint64_t j) {
  MutexLock lock(mu_);
  entries_[Key{level, j}];  // default-constructed: invalid
}

void SigCache::PinPlan(const std::vector<SigCachePlanner::Choice>& plan) {
  MutexLock lock(mu_);
  for (const auto& c : plan) entries_[Key{c.level, c.j}];
}

void SigCache::WarmAll() {
  // Fill bottom-up so higher nodes reuse the lower cached nodes.
  MutexLock lock(mu_);
  AggStats scratch;
  for (auto& [key, entry] : entries_) {
    if (!entry.valid) {
      entry.sig = ComputeNode(key, entry.generation, leaves_, &scratch);
      entry.valid = true;
    }
  }
}

BasSignature SigCache::ComputeNode(const Key& key, uint64_t generation,
                                   const LeafProvider& leaves,
                                   AggStats* stats) {
  // Derive from smaller cached nodes / leaves over the node's interval.
  // Accumulation stays in Jacobian coordinates: one inversion at the end
  // instead of one per addition.
  const CurveGroup& curve = ctx_->curve();
  size_t lo = key.j << key.level;
  size_t hi = lo + (size_t{1} << key.level) - 1;
  CurveGroup::Jacobian acc = curve.ToJacobian(ECPoint{});
  size_t pos = lo;
  while (pos <= hi && pos < n_) {
    bool used_cache = false;
    for (int level = key.level - 1; level >= 1; --level) {
      size_t m = size_t{1} << level;
      if (pos % m != 0 || pos + m - 1 > hi) continue;
      auto it = entries_.find(Key{level, pos >> level});
      // Sub-windows are reusable only within the same chain generation —
      // mixing generations inside one recomputed node is exactly what the
      // tag exists to prevent.
      if (it == entries_.end() || !it->second.valid ||
          it->second.generation != generation) {
        continue;
      }
      ++it->second.access_count;
      ++stats->cache_hits;
      if (!it->second.sig.point.infinity)
        acc = curve.JacAddAffine(acc, it->second.sig.point);
      ++stats->point_adds;
      pos += m;
      used_cache = true;
      break;
    }
    if (used_cache) continue;
    BasSignature leaf = leaves(pos);
    ++stats->leaf_fetches;
    if (!leaf.point.infinity) acc = curve.JacAddAffine(acc, leaf.point);
    ++stats->point_adds;
    ++pos;
  }
  if (stats->point_adds > 0) --stats->point_adds;  // n items = n-1 additions
  return BasSignature{curve.ToAffine(acc)};
}

BasSignature SigCache::RangeAggregate(size_t lo, size_t hi, AggStats* stats) {
  AggStats local;
  AggStats* s = stats != nullptr ? stats : &local;
  *s = AggStats{};  // counters cover this call only
  MutexLock lock(mu_);
  const CurveGroup& curve = ctx_->curve();
  CurveGroup::Jacobian acc = curve.ToJacobian(ECPoint{});
  size_t items = 0;
  size_t pos = lo;
  while (pos <= hi && pos < n_) {
    bool used_cache = false;
    for (int level = max_level_; level >= 1; --level) {
      size_t m = size_t{1} << level;
      if (pos % m != 0 || pos + m - 1 > hi) continue;
      auto it = entries_.find(Key{level, pos >> level});
      if (it == entries_.end()) continue;
      if (!it->second.valid) {
        // Lazy refresh: recompute this node now, charged to this query.
        ++s->refreshes;
        it->second.sig =
            ComputeNode(it->first, it->second.generation, leaves_, s);
        it->second.valid = true;
      }
      ++it->second.access_count;
      ++s->cache_hits;
      if (!it->second.sig.point.infinity)
        acc = curve.JacAddAffine(acc, it->second.sig.point);
      if (items++ > 0) ++s->point_adds;
      pos += m;
      used_cache = true;
      break;
    }
    if (used_cache) continue;
    BasSignature leaf = leaves_(pos);
    ++s->leaf_fetches;
    if (!leaf.point.infinity) acc = curve.JacAddAffine(acc, leaf.point);
    if (items++ > 0) ++s->point_adds;
    ++pos;
  }
  return BasSignature{curve.ToAffine(acc)};
}

BasSignature SigCache::RangeAggregate(size_t lo, size_t hi,
                                      uint64_t generation,
                                      const LeafProvider& leaves,
                                      AggStats* stats,
                                      const SpanProvider& spans) {
  // A batch of one: the decomposition, tagging, and stats discipline live
  // in RangeAggregateBatch so the scalar and batched paths cannot drift.
  std::vector<AggStats> st(1);
  if (stats != nullptr) st[0] = *stats;  // accumulated, not reset
  std::vector<BasSignature> out = RangeAggregateBatch(
      {RangeSpec{lo, hi}}, generation, leaves, &st, spans);
  if (stats != nullptr) *stats = st[0];
  return out[0];
}

struct SigCache::BatchState {
  std::map<Key, size_t> staged;          ///< window -> index into jacs/keys
  std::vector<CurveGroup::Jacobian> jacs;
  std::vector<Key> keys;
};

CurveGroup::Jacobian SigCache::JacComputeNode(const Key& key,
                                              uint64_t generation,
                                              const LeafProvider& leaves,
                                              const SpanProvider& spans,
                                              BatchState* batch,
                                              AggStats* stats) {
  const CurveGroup& curve = ctx_->curve();
  size_t lo = key.j << key.level;
  size_t hi = lo + (size_t{1} << key.level) - 1;
  CurveGroup::Jacobian acc{};
  size_t pos = lo;
  while (pos <= hi && pos < n_) {
    bool used_cache = false;
    for (int level = key.level - 1; level >= 1; --level) {
      size_t m = size_t{1} << level;
      if (pos % m != 0 || pos + m - 1 > hi) continue;
      Key sub{level, pos >> level};
      auto it = entries_.find(sub);
      if (it == entries_.end()) continue;
      auto st = batch->staged.find(sub);
      bool is_staged = st != batch->staged.end();
      // Sub-windows are reusable only within the same chain generation —
      // mixing generations inside one recomputed node is exactly what the
      // tag exists to prevent. A window staged this call IS generation
      // `generation`; its entry flags just haven't been written yet.
      if (!is_staged &&
          (!it->second.valid || it->second.generation != generation)) {
        continue;
      }
      ++it->second.access_count;
      ++stats->cache_hits;
      if (is_staged) {
        acc = curve.JacAdd(acc, batch->jacs[st->second]);
      } else if (!it->second.sig.point.infinity) {
        acc = curve.JacAddAffine(acc, it->second.sig.point);
      }
      ++stats->point_adds;
      pos += m;
      used_cache = true;
      break;
    }
    if (used_cache) continue;
    // Precomputed prefix (a frozen chunk aggregate) before single leaves:
    // the fill consumes whole chunks in one addition each. The clamp to
    // this node's interval keeps the fold byte-identical to the leaf walk.
    if (spans != nullptr) {
      ECPoint span_agg;
      size_t len = spans(pos, std::min(hi, n_ - 1), &span_agg);
      if (len > 0) {
        ++stats->span_hits;
        if (!span_agg.infinity) acc = curve.JacAddAffine(acc, span_agg);
        ++stats->point_adds;
        pos += len;
        continue;
      }
    }
    BasSignature leaf = leaves(pos);
    ++stats->leaf_fetches;
    if (!leaf.point.infinity) acc = curve.JacAddAffine(acc, leaf.point);
    ++stats->point_adds;
    ++pos;
  }
  if (stats->point_adds > 0) --stats->point_adds;  // n items = n-1 additions
  return acc;
}

CurveGroup::Jacobian SigCache::JacRangeWalk(size_t lo, size_t hi,
                                            uint64_t generation,
                                            const LeafProvider& leaves,
                                            const SpanProvider& spans,
                                            BatchState* batch,
                                            AggStats* s) {
  const CurveGroup& curve = ctx_->curve();
  CurveGroup::Jacobian acc{};
  size_t items = 0;
  size_t pos = lo;
  while (pos <= hi) {
    bool used_cache = false;
    // Cached windows apply only inside [0, n_); a shard that grew past its
    // planning size serves the tail from leaves below.
    if (pos < n_) {
      for (int level = max_level_; level >= 1; --level) {
        size_t m = size_t{1} << level;
        if (pos % m != 0 || pos + m - 1 > hi || pos + m > n_) continue;
        Key key{level, pos >> level};
        auto it = entries_.find(key);
        if (it == entries_.end()) continue;
        auto st = batch->staged.find(key);
        bool is_staged = st != batch->staged.end();
        if (!is_staged && it->second.valid &&
            it->second.generation > generation) {
          // The window already serves a NEWER generation: a reader still
          // pinned to an older epoch must not clobber it (alternating
          // old/new readers would otherwise thrash full recomputes) —
          // fall through to this pos's leaves instead.
          continue;
        }
        if (!is_staged &&
            (!it->second.valid || it->second.generation < generation)) {
          // Stale or never-filled window: recompute against this reader's
          // pinned snapshot and stage the fill — it advances the tag when
          // the batch's shared inversion writes it back.
          ++s->refreshes;
          CurveGroup::Jacobian node =
              JacComputeNode(key, generation, leaves, spans, batch, s);
          batch->staged[key] = batch->jacs.size();
          batch->jacs.push_back(std::move(node));
          batch->keys.push_back(key);
          st = batch->staged.find(key);
          is_staged = true;
        }
        ++it->second.access_count;
        ++s->cache_hits;
        if (is_staged) {
          acc = curve.JacAdd(acc, batch->jacs[st->second]);
        } else if (!it->second.sig.point.infinity) {
          acc = curve.JacAddAffine(acc, it->second.sig.point);
        }
        if (items++ > 0) ++s->point_adds;
        pos += m;
        used_cache = true;
        break;
      }
    }
    if (used_cache) continue;
    // Precomputed prefix before single leaves — the seam-stitch fallback
    // consumes whole frozen chunks in one addition each.
    if (spans != nullptr) {
      ECPoint span_agg;
      size_t len = spans(pos, hi, &span_agg);
      if (len > 0) {
        ++s->span_hits;
        if (!span_agg.infinity) acc = curve.JacAddAffine(acc, span_agg);
        if (items++ > 0) ++s->point_adds;
        pos += len;
        continue;
      }
    }
    BasSignature leaf = leaves(pos);
    ++s->leaf_fetches;
    if (!leaf.point.infinity) acc = curve.JacAddAffine(acc, leaf.point);
    if (items++ > 0) ++s->point_adds;
    ++pos;
  }
  return acc;
}

std::vector<BasSignature> SigCache::RangeAggregateBatch(
    const std::vector<RangeSpec>& ranges, uint64_t generation,
    const LeafProvider& leaves, std::vector<AggStats>* per_range_stats,
    const SpanProvider& spans) {
  const CurveGroup& curve = ctx_->curve();
  if (per_range_stats != nullptr && per_range_stats->size() < ranges.size())
    per_range_stats->resize(ranges.size());
  MutexLock lock(mu_);
  BatchState batch;
  std::vector<CurveGroup::Jacobian> range_jacs;
  range_jacs.reserve(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    AggStats local;
    AggStats* s =
        per_range_stats != nullptr ? &(*per_range_stats)[i] : &local;
    range_jacs.push_back(JacRangeWalk(ranges[i].lo, ranges[i].hi, generation,
                                      leaves, spans, &batch, s));
  }
  // ONE shared inversion finalizes every staged window fill and every
  // range result together.
  std::vector<CurveGroup::Jacobian> all = std::move(batch.jacs);
  for (CurveGroup::Jacobian& rj : range_jacs) all.push_back(std::move(rj));
  std::vector<ECPoint> pts = curve.ToAffineBatch(all);
  for (size_t f = 0; f < batch.keys.size(); ++f) {
    Entry& e = entries_[batch.keys[f]];
    e.sig = BasSignature{std::move(pts[f])};
    e.valid = true;
    e.generation = generation;
  }
  std::vector<BasSignature> out;
  out.reserve(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i)
    out.push_back(BasSignature{std::move(pts[batch.keys.size() + i])});
  return out;
}

void SigCache::OnLeafUpdate(size_t pos, const BasSignature& old_sig,
                            const BasSignature& new_sig) {
  MutexLock lock(mu_);
  for (auto& [key, entry] : entries_) {
    if ((pos >> key.level) != key.j) continue;
    if (mode_ == RefreshMode::kLazy) {
      entry.valid = false;
    } else if (entry.valid) {
      // Patch in place: subtract the old component, add the new one.
      entry.sig = ctx_->Combine(ctx_->Remove(entry.sig, old_sig), new_sig);
      eager_patch_adds_ += 2;
    }
  }
}

void SigCache::Revise(size_t keep) {
  MutexLock lock(mu_);
  if (entries_.size() <= keep) {
    // Nothing to evict, but the observation window still restarts.
    for (auto& [key, entry] : entries_) entry.access_count = 0;
    return;
  }
  std::vector<std::pair<double, Key>> ranked;
  for (const auto& [key, entry] : entries_) {
    double savings = static_cast<double>((uint64_t{1} << key.level) - 1);
    ranked.push_back({static_cast<double>(entry.access_count) * savings, key});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::map<Key, Entry> kept;
  for (size_t i = 0; i < keep; ++i) {
    kept[ranked[i].second] = entries_[ranked[i].second];
    kept[ranked[i].second].access_count = 0;  // fresh window
  }
  entries_ = std::move(kept);
}

}  // namespace authdb
