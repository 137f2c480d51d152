#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recording for the traced run. Every thread that calls into
// the system owns one SpanLog; spans are kept in memory and written out when
// the benchmark ends. A root span is one client (or writer) operation and
// starts a new operation id; spans opened while a root is open become its
// children and inherit the id.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum SpanName : uint8_t {
  kClientOp,      // root: one client call (+ its verdicts in verify-batch)
  kExecute,       // ShardedQueryServer::Execute
  kExecuteBatch,  // ShardedQueryServer::ExecuteBatch
  kVerifyBatch,   // ClientVerifier::VerifyAnswerBatch
  kWriterUpdate,  // root: one DA update pushed to the stream
  kWriterClose,   // root: one rho-period close
  kDaModify,      // DataAggregator::ModifyRecord
  kDaInsert,      // DataAggregator::InsertRecord
  kDaDelete,      // DataAggregator::DeleteRecord
  kDaPublish,     // DataAggregator::PublishSummary
  kPushUpdate,    // UpdateStream::PushUpdate
  kPushSummary,   // UpdateStream::PushSummary
  kEpochWait,     // root: due time of a period close -> epoch published
  kSpanNameCount
};

inline const char* SpanNameStr(SpanName n) {
  static const char* const kNames[kSpanNameCount] = {
      "client.op",          "server.execute",
      "server.execute_batch", "verifier.verify_batch",
      "writer.update",      "writer.close_period",
      "da.modify",          "da.insert",
      "da.delete",          "da.publish_summary",
      "stream.push_update", "stream.push_summary",
      "epoch.wait"};
  return kNames[n];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
  int32_t parent = -1;  // index into the same SpanLog, -1 for a root
  SpanName name = kClientOp;
};

/// One thread's spans. Recording is decided per root: a root opened while
/// `enabled` reads true is recorded together with all its children.
class SpanLog {
 public:
  SpanLog(const std::atomic<bool>* enabled, uint32_t thread_id)
      : enabled_(enabled), next_op_(static_cast<uint64_t>(thread_id) << 40) {
    spans_.reserve(1 << 16);
  }

  int32_t Begin(SpanName name) { return BeginAt(name, NowNs()); }

  /// Opens a span that started at `start_ns` (the due time of an
  /// open-loop event, for example).
  int32_t BeginAt(SpanName name, int64_t start_ns) {
    if (stack_.empty() &&
        (enabled_ == nullptr || !enabled_->load(std::memory_order_relaxed)))
      return -1;
    Span s;
    s.start_ns = start_ns;
    s.name = name;
    if (stack_.empty()) {
      s.op = ++next_op_;
    } else {
      s.parent = stack_.back();
      s.op = spans_[static_cast<size_t>(s.parent)].op;
    }
    spans_.push_back(s);
    int32_t idx = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void End(int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const std::atomic<bool>* enabled_;
  uint64_t next_op_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name)
      : log_(log), idx_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t idx_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
