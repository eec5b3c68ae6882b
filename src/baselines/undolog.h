// Undo-log baseline (Sections 2.2.2 and 5.1, system 2).
//
// Instrumentation-based in-memory checkpointing (Zhao et al. CC'12) made
// persistent: before the first modification of each 256 B block in an
// epoch, the pre-image is appended to an NVM undo log and persisted
// immediately — one fence for the entry, one for the log head, exactly the
// per-entry cost the paper identifies as problem P2. At the end of an epoch
// the current state is flushed and the log truncated; after a crash the
// logged pre-images roll the data area back to the last checkpoint.
//
// The protocol is an engines::Engine whose window is its whole data area
// ("undolog" in open_engine()); UndoLogPolicy puts the persistent Heap on
// that window for the KV benchmarks. Roots persist immediately, so after a
// crash a root may run ahead of the recovered data.
#pragma once

#include <memory>

#include "baselines/policy.h"
#include "engines/engine.h"
#include "nvm/device.h"
#include "util/bitmap.h"
#include "util/sync.h"

namespace crpm {

struct BaselineStats {
  uint64_t trace_bytes = 0;       // bytes written while tracing (log/records)
  uint64_t checkpoint_bytes = 0;  // bytes persisted at checkpoints
  uint64_t epochs = 0;
  uint64_t entries = 0;           // undo entries / CoW records appended
  uint64_t trace_ns = 0;          // time spent tracing (Figure 1 breakdown)
};

// Segment size the baseline engines group their window by in counters()
// when the caller does not pass CrpmOptions::segment_size.
inline constexpr uint64_t kBaselineCounterSegment = 2 * 1024 * 1024;

class UndoLog final : public engines::Engine {
 public:
  static constexpr uint64_t kBlockSize = 256;  // undo-entry payload (paper)

  // Device space needed for `data_size` bytes of program state, including
  // a log with room for one entry per block.
  static uint64_t required_device_size(uint64_t data_size);

  // `segment_size` only groups the window for counters(); logging is per
  // block regardless.
  UndoLog(NvmDevice* dev, uint64_t data_size,
          uint64_t segment_size = kBaselineCounterSegment);
  UndoLog(std::unique_ptr<NvmDevice> dev, uint64_t data_size,
          uint64_t segment_size = kBaselineCounterSegment);

  const char* name() const override { return "undolog"; }
  uint8_t* data() override { return data_; }
  uint64_t capacity() const override { return data_size_; }
  // Thread-safe for writers on distinct blocks: only a block's first touch
  // in an epoch takes the log-append lock.
  void annotate(const void* addr, size_t len) override;
  void checkpoint() override;
  void set_root(uint32_t slot, uint64_t off) override;
  uint64_t get_root(uint32_t slot) override;
  uint64_t committed_epoch() const override;
  bool fresh() const override { return fresh_; }
  engines::EngineCounters counters() const override;

  NvmDevice* device() { return dev_; }
  const BaselineStats& bstats() const { return stats_; }

 private:
  struct UndoHeader;
  struct Entry;
  static constexpr uint64_t kEntryStride = 64 + kBlockSize;

  static uint64_t log_capacity_for(uint64_t data_size);
  UndoHeader* header() const;
  void init(uint64_t data_size);
  void recover();
  void log_block(uint64_t block);

  std::unique_ptr<NvmDevice> owned_;
  NvmDevice* dev_ = nullptr;
  uint8_t* log_ = nullptr;
  uint8_t* data_ = nullptr;
  uint64_t data_size_ = 0;
  uint64_t log_capacity_ = 0;
  uint64_t segment_size_ = 0;
  AtomicBitmap epoch_blocks_;  // blocks already logged this epoch
  SpinLock log_mu_;            // serializes log appends across writers
  BaselineStats stats_;
  bool fresh_ = false;
};

using UndoLogPolicy = HeapPolicy<UndoLog>;

static_assert(PersistencePolicy<UndoLogPolicy>);

}  // namespace crpm
