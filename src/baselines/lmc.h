// LMC baseline (Vogt et al., "Lightweight memory checkpointing", DSN'15 —
// Section 5.1, system 3), transformed to tolerate power failures as in
// Section 2.2.2.
//
// Like the undo-log it is instrumentation-driven, but keeps its pre-images
// in a slot-indexed copy-on-write frame: a record table plus a shadow-block
// slab, one slot per first-touched 256 B block per epoch. Appending a
// record persists the shadow block and the record, then the frame counter —
// again two fences per record (problem P2). Rollback applies the frame.
//
// The protocol exposes its data area as a flat window; LmcPolicy puts the
// persistent Heap on it.
#pragma once

#include <memory>

#include "baselines/policy.h"
#include "baselines/undolog.h"  // BaselineStats
#include "nvm/device.h"
#include "util/bitmap.h"

namespace crpm {

class Lmc {
 public:
  static constexpr uint64_t kBlockSize = 256;

  static uint64_t required_device_size(uint64_t data_size);

  Lmc(NvmDevice* dev, uint64_t data_size);
  Lmc(std::unique_ptr<NvmDevice> dev, uint64_t data_size);

  uint8_t* data() { return data_; }
  uint64_t capacity() const { return data_size_; }
  void annotate(const void* addr, size_t len);
  void checkpoint();
  void set_root(uint32_t slot, uint64_t off);
  uint64_t get_root(uint32_t slot);
  uint64_t committed_epoch() const;
  bool fresh() const { return fresh_; }

  NvmDevice* device() { return dev_; }
  const BaselineStats& bstats() const { return stats_; }

 private:
  struct LmcHeader;

  LmcHeader* header() const;
  void init(uint64_t data_size);
  void recover();

  std::unique_ptr<NvmDevice> owned_;
  NvmDevice* dev_ = nullptr;
  uint64_t* records_ = nullptr;  // record i: data offset of shadow slot i
  uint8_t* shadow_ = nullptr;    // slot i: pre-image of that block
  uint8_t* data_ = nullptr;
  uint64_t data_size_ = 0;
  uint64_t slot_capacity_ = 0;
  AtomicBitmap epoch_blocks_;
  BaselineStats stats_;
  bool fresh_ = false;
};

using LmcPolicy = HeapPolicy<Lmc>;

static_assert(PersistencePolicy<LmcPolicy>);

}  // namespace crpm
