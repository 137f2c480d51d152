#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

// Fixed-size histogram for the client loops. Its footprint is set at
// construction, so the benchmark's own memory does not grow with throughput
// and peak_rss_mb measures the system, not the number of operations recorded.

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Values below 2^kSubBits are kept exactly; above that each power-of-two
/// octave is split into 2^kSubBits linear sub-buckets, so a percentile is
/// read to within 1/256 of its value. Covers values up to 2^40 (18 minutes
/// in nanoseconds).
class Histogram {
 public:
  void Record(int64_t value) {
    const uint64_t v = value > 0 ? static_cast<uint64_t>(value) : 0;
    ++buckets_[BucketOf(v)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank p-quantile, p in (0, 1], 0 when empty. Exact below
  /// 2^kSubBits; above, the values of a bucket are taken as evenly spread
  /// over its width, so the result is not rounded to a bucket.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    uint64_t rank =
        static_cast<uint64_t>(p * static_cast<double>(count_) + 0.999999);
    rank = rank < 1 ? 1 : rank > count_ ? count_ : rank;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        if (i < kSub) return static_cast<double>(i);
        const double width = static_cast<double>(Width(i));
        return static_cast<double>(Low(i)) +
               width * (static_cast<double>(rank - seen) - 0.5) /
                   static_cast<double>(buckets_[i]);
      }
      seen += buckets_[i];
    }
    return static_cast<double>(Low(kBuckets - 1));
  }

 private:
  static constexpr uint32_t kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint32_t kMaxBits = 40;
  static constexpr size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const uint32_t msb = 63 - static_cast<uint32_t>(__builtin_clzll(v));
    const uint32_t shift = msb - kSubBits;
    const size_t idx = static_cast<size_t>(shift + 1) * kSub +
                       static_cast<size_t>((v >> shift) - kSub);
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  // Bucket idx >= kSub holds [Low(idx), Low(idx) + Width(idx)).
  static uint64_t Low(size_t idx) {
    return (idx % kSub + kSub) << (idx / kSub - 1);
  }
  static uint64_t Width(size_t idx) { return uint64_t{1} << (idx / kSub - 1); }

  std::array<uint32_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
