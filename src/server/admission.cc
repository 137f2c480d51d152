#include "server/admission.h"

#include "common/clock.h"

namespace authdb {

AdmissionController::AdmissionController(const ServerConfig::Admission& opts)
    : max_inflight_(opts.max_inflight_plans),
      queue_depth_(opts.queue_depth),
      starvation_bound_(opts.starvation_bound),
      retry_after_micros_(opts.retry_after_micros) {}

bool AdmissionController::TurnOfLocked(Lane lane) const {
  if (lane == Lane::kPriority) {
    // A priority plan yields only when the bulk lane is owed a
    // starvation grant.
    return !(bulk_waiting_ > 0 && priority_streak_ >= starvation_bound_);
  }
  // Bulk goes when no priority work is waiting, or when priority has had
  // its streak and must let one bulk plan through.
  return priority_waiting_ == 0 || priority_streak_ >= starvation_bound_;
}

void AdmissionController::GrantLocked(Lane lane) {
  ++inflight_;
  if (lane == Lane::kPriority) {
    ++priority_grants_;
    ++priority_streak_;
  } else {
    ++bulk_grants_;
    if (priority_waiting_ > 0 && priority_streak_ >= starvation_bound_)
      ++starvation_grants_;
    priority_streak_ = 0;
  }
}

void AdmissionController::CountAdmitLocked(QueryKind kind) {
  ++admitted_total_;
  switch (kind) {
    case QueryKind::kSelect: ++select_admitted_; break;
    case QueryKind::kProject: ++project_admitted_; break;
    case QueryKind::kJoin: ++join_admitted_; break;
  }
}

void AdmissionController::CountShedLocked(QueryKind kind) {
  ++shed_total_;
  switch (kind) {
    case QueryKind::kSelect: ++select_shed_; break;
    case QueryKind::kProject: ++project_shed_; break;
    case QueryKind::kJoin: ++join_shed_; break;
  }
}

size_t AdmissionController::AdmitPlans(const std::vector<QueryKind>& kinds,
                                       std::vector<uint8_t>* admitted) {
  admitted->assign(kinds.size(), 0);
  size_t granted = 0;
  MutexLock lock(mu_);
  for (size_t i = 0; i < kinds.size(); ++i) {
    const Lane lane = LaneOf(kinds[i]);
    if (inflight_ < max_inflight_ && TurnOfLocked(lane)) {
      GrantLocked(lane);
      CountAdmitLocked(kinds[i]);
      (*admitted)[i] = 1;
      ++granted;
      continue;
    }
    // Blocking is permitted only while this call holds no slots — a slot
    // holder parked on the queue could deadlock against other holders.
    const bool may_wait = granted == 0;
    size_t& waiting = lane == Lane::kPriority ? priority_waiting_ : bulk_waiting_;
    if (!may_wait || waiting >= queue_depth_) {
      CountShedLocked(kinds[i]);
      continue;
    }
    CondVar& cv = lane == Lane::kPriority ? priority_cv_ : bulk_cv_;
    const uint64_t t0 = MonotonicMicros();
    ++waiting;
    if (priority_waiting_ + bulk_waiting_ > queue_depth_max_)
      queue_depth_max_ = priority_waiting_ + bulk_waiting_;
    while (!(inflight_ < max_inflight_ && TurnOfLocked(lane))) cv.Wait(mu_);
    --waiting;
    queue_wait_us_ += MonotonicMicros() - t0;
    GrantLocked(lane);
    CountAdmitLocked(kinds[i]);
    (*admitted)[i] = 1;
    ++granted;
  }
  return granted;
}

void AdmissionController::Release(size_t n) {
  if (n == 0) return;
  bool wake_priority, wake_bulk;
  {
    MutexLock lock(mu_);
    inflight_ = inflight_ >= n ? inflight_ - n : 0;
    // Wake whichever lane the freed slots should go to. Waking both is
    // harmless (waiters re-check the turn predicate) but notifying the
    // losing lane on every release is wasted wakeups under load.
    wake_bulk = bulk_waiting_ > 0 &&
                (priority_waiting_ == 0 || priority_streak_ >= starvation_bound_);
    wake_priority = priority_waiting_ > 0;
  }
  if (wake_priority) priority_cv_.NotifyAll();
  if (wake_bulk) bulk_cv_.NotifyAll();
}

void AdmissionController::Snapshot(ServerMetrics::Admission* out) const {
  MutexLock lock(mu_);
  out->enabled = 1;
  out->admitted_total = admitted_total_;
  out->shed_total = shed_total_;
  out->select_admitted = select_admitted_;
  out->select_shed = select_shed_;
  out->project_admitted = project_admitted_;
  out->project_shed = project_shed_;
  out->join_admitted = join_admitted_;
  out->join_shed = join_shed_;
  out->priority_grants = priority_grants_;
  out->bulk_grants = bulk_grants_;
  out->starvation_grants = starvation_grants_;
  out->queue_wait_us = queue_wait_us_;
  out->queue_depth_max = queue_depth_max_;
}

}  // namespace authdb
