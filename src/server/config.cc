#include "server/config.h"

namespace authdb {

Result<ServerConfig> ServerConfig::Validated() const {
  if (serving.summaries_retained == 0) {
    return Status::InvalidArgument(
        "serving.summaries_retained must be >= 1 (every epoch carries its "
        "summary run)");
  }
  if (ingest.max_queue_depth == 0) {
    return Status::InvalidArgument(
        "ingest.max_queue_depth must be >= 1 (0 would deadlock every "
        "producer)");
  }
  if (admission.enabled) {
    if (admission.max_inflight_plans == 0) {
      return Status::InvalidArgument(
          "admission.max_inflight_plans must be >= 1 when admission is "
          "enabled (0 sheds everything)");
    }
    if (admission.starvation_bound == 0) {
      return Status::InvalidArgument(
          "admission.starvation_bound must be >= 1 (the bulk lane must "
          "eventually be granted)");
    }
  }
  return *this;
}

}  // namespace authdb
