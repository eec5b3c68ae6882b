#include "core/engine.h"

#include <cstdio>

namespace crpm {

std::string EngineCounters::to_string() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "epochs=%llu segments_log=%llu segments_cow=%llu "
      "transitions_to_cow=%llu transitions_to_log=%llu "
      "midepoch_promotions=%llu decisions=%llu log_entries=%llu "
      "segment_preimages=%llu trace_bytes=%llu checkpoint_bytes=%llu",
      (unsigned long long)epochs, (unsigned long long)segments_log,
      (unsigned long long)segments_cow, (unsigned long long)transitions_to_cow,
      (unsigned long long)transitions_to_log,
      (unsigned long long)midepoch_promotions, (unsigned long long)decisions,
      (unsigned long long)log_entries, (unsigned long long)segment_preimages,
      (unsigned long long)trace_bytes, (unsigned long long)checkpoint_bytes);
  return buf;
}

}  // namespace crpm
