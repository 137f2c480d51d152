#ifndef AUTHDB_SERVER_CONFIG_H_
#define AUTHDB_SERVER_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"

namespace authdb {

/// The one configuration surface of the serving stack, layered by
/// subsystem. This replaced the scattered `ShardedQueryServer::Options` /
/// `UpdateStream::Options` pair (and absorbed the admission-control knobs
/// that would otherwise have become a fourth ad-hoc struct):
///
///   serving   — the read path, epoch GC and summary retention
///               (ShardedQueryServer);
///   ingest    — the streaming apply layer (UpdateStream);
///   admission — overload control on the read path (AdmissionController).
///
/// Construction is validated: `Validated()` returns the checked config or
/// the precise constraint it violates as a Result, and every consumer
/// (ShardedQueryServer, UpdateStream) CHECK-fails on an invalid config so
/// a bad knob can never silently serve.
struct ServerConfig {
  struct Serving {
    /// Epoch GC backpressure: maximum number of *superseded* epochs that
    /// stalled readers may keep pinned before PublishEpoch blocks waiting
    /// for one to drain (0 = unbounded). The block propagates through the
    /// update stream's apply queues to the producer — memory stays bounded
    /// even against a wedged reader.
    size_t max_pinned_epochs = 0;
    /// Length of the summary run carried by every published epoch (the
    /// freshness evidence attached to answers); the oldest drop first.
    size_t summaries_retained = 4096;
  } serving;

  struct Ingest {
    size_t max_queue_depth = 4096;  ///< per-shard producer backpressure bound
  } ingest;

  /// Read-path overload control. Disabled by default — closed-loop callers
  /// with bounded concurrency never shed; the open-loop harness and
  /// production fronts enable it to survive offered load beyond capacity.
  struct Admission {
    bool enabled = false;
    /// Execution slots: plans concurrently admitted into the engine across
    /// both lanes. Excess arrivals queue (bounded) and then shed.
    size_t max_inflight_plans = 64;
    /// Bounded intake queue per lane (callers parked waiting for a slot).
    /// A plan arriving with its lane's queue full is shed immediately with
    /// AnswerOutcome::kShedRetryAfter.
    size_t queue_depth = 256;
    /// Priority inversion bound: after this many consecutive priority
    /// (freshness-critical select) grants while bulk (join/project) work
    /// waits, one bulk waiter is admitted ahead of the priority queue —
    /// joins and projections shed first under pressure but never starve.
    size_t starvation_bound = 8;
    /// Backoff hint stamped into shed answers (QueryAnswer::
    /// retry_after_micros) — advisory, not enforced.
    uint64_t retry_after_micros = 1000;
  } admission;

  /// The checked config, or the first constraint it violates.
  Result<ServerConfig> Validated() const;
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_CONFIG_H_
