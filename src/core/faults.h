// Planted faults: deliberate ordering bugs that the crash matrix
// (src/chaos) and the engine differential harness arm to prove their
// oracles catch such bugs. Never arm one outside tests.
//
// The armed mask is process-wide, but a Container or AdaptiveEngine reads
// it once, when it opens, and keeps that value: no hot path reads a
// global, and only objects opened while a fault is armed carry it.
#pragma once

#include <atomic>
#include <cstdint>

namespace crpm {

// Copy-on-write persists the seg_state flip BEFORE the data copy is
// fenced (breaks Figure 6): a crash in between recovers the main
// segment from a backup that never got the checkpoint data.
inline constexpr uint32_t kFaultFlipBeforeCopy = 1u << 0;
// The async write-hook steal skips its captured-block flush and image
// snapshot, so the pipeline commits post-capture values (DESIGN §10).
inline constexpr uint32_t kFaultSkipStealCopy = 1u << 1;
// An adaptive mid-epoch LOG->COW switch skips flushing the segment
// pre-image payload; a crash then recovers from a torn pre-image.
inline constexpr uint32_t kFaultAdaptiveSkipTransitionFlush = 1u << 2;

inline std::atomic<uint32_t> g_armed_faults{0};

inline uint32_t armed_faults() {
  return g_armed_faults.load(std::memory_order_acquire);
}

// Arms `mask` on top of the armed set until the scope ends, then restores
// the previous set. Scopes nest.
class FaultScope {
 public:
  explicit FaultScope(uint32_t mask)
      : prev_(g_armed_faults.fetch_or(mask, std::memory_order_acq_rel)) {}
  ~FaultScope() { g_armed_faults.store(prev_, std::memory_order_release); }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  uint32_t prev_;
};

}  // namespace crpm
