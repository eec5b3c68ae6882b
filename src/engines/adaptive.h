// Adaptive per-segment hybrid checkpoint engine.
//
// One undo log protects an in-place NVM data area, but the *granularity*
// of protection is chosen per segment from observed write density:
//
//   LOG mode (sparse)   the first write to each 256 B block in an epoch
//                       appends that block's pre-image to the log with
//                       plain stores; the whole epoch's entries are then
//                       published by ONE batched flush + two fences at
//                       checkpoint time. That fence-cheap discipline
//                       (the ICL-logging insight) is what keeps sparse
//                       epochs competitive with whole-segment copying.
//   COW mode (dense)    the first write to the segment in an epoch
//                       appends ONE whole-segment pre-image; every later
//                       write to the segment costs only a DRAM dirty bit.
//                       This is the FOCA insight (protect once, write
//                       freely) expressed as a log record instead of a
//                       backup-segment copy.
//
// Strategy selection (DESIGN.md section 14):
//   * Mid-epoch promotion: when an epoch dirties
//     adaptive_dense_threshold of a LOG segment's blocks, the segment is
//     promoted to COW immediately — the promotion appends the segment
//     pre-image (site "adaptive.promote") and publishes the log on the
//     spot, and from then on the epoch's writes to it are free.
//     Correctness of the mixed log: recovery
//     applies pre-images newest-first, so the promotion-time segment
//     image is applied before the earlier per-block pre-images restore
//     epoch-start values for the blocks written pre-promotion.
//   * Boundary demotion: after each checkpoint a density EWMA
//     (alpha = 1/2) is updated for every segment; a COW segment returns
//     to LOG only after the EWMA has stayed at or below
//     adaptive_sparse_threshold for adaptive_hysteresis_epochs
//     consecutive epochs (hysteresis: alternating workloads must not
//     thrash the strategy).
//
// All strategy state is DRAM-only and re-derived after a restart: log
// entries are self-describing (kind, epoch, offset, length), so recovery
// never consults the strategy that produced them. Crash safety of a
// strategy *transition* therefore reduces to the ordering of the
// promotion append — exactly what the planted
// kFaultAdaptiveSkipTransitionFlush bug (core/faults.h) breaks and the
// core-adaptive crash-matrix scenario sweeps.
//
// Commit protocol (sites in parentheses):
//   1. publish the log ("adaptive.log"): flush every entry byte not
//      already flushed eagerly by a transition, fence, then persist
//      log_head — the durable head is the WAL's atomicity point, so a
//      crash mid-publish leaves the log effectively empty;
//   2. flush every dirty block, or wbinvd past the LLC threshold
//      ("adaptive.ckpt"), one fence — data may only overwrite committed
//      media values once its pre-images are published;
//   3. committed_epoch += 1, persisted ("adaptive.commit") — the commit
//      point: log entries are epoch-tagged and recovery only applies
//      entries newer than the committed counter, so a crash between the
//      bump and the truncation replays nothing;
//   4. log_head = 0, persisted ("adaptive.trunc").
#pragma once

#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "nvm/device.h"
#include "util/bitmap.h"
#include "util/sync.h"

namespace crpm::engines {

class AdaptiveEngine final : public Engine {
 public:
  // Device bytes needed for a validated `opt`: header + log + data area
  // (the data area is the working window plus one reserved segment for
  // epoch-consistent roots).
  static uint64_t required_device_size(const CrpmOptions& opt);

  // Opens (recovering) or creates (formatting) on `dev`. `opt` must
  // already be validated; open_engine() handles that.
  AdaptiveEngine(NvmDevice* dev, const CrpmOptions& opt);

  const char* name() const override { return "adaptive"; }
  uint8_t* data() override { return data_ + reserve_; }
  uint64_t capacity() const override { return data_size_ - reserve_; }
  void annotate(const void* addr, size_t len) override;
  void checkpoint() override;
  void set_root(uint32_t slot, uint64_t off) override;
  uint64_t get_root(uint32_t slot) const override;
  uint64_t committed_epoch() const override;
  bool fresh() const override { return fresh_; }
  EngineCounters counters() const override;

 private:
  enum class Mode : uint8_t { kLog, kCow };

  struct Header;
  struct EntryHeader;

  // Per-segment DRAM strategy state; re-derived after restart.
  struct SegState {
    Mode mode = Mode::kLog;
    bool preimage_this_epoch = false;  // COW: segment pre-image appended
    uint32_t epoch_dirty_blocks = 0;
    uint32_t below_sparse_epochs = 0;  // hysteresis run length
    double density_ewma = 0.0;
  };

  Header* header() const;
  void format();
  void recover();
  // Marks [raw_off, raw_off + len) of the raw data area (window + root
  // reserve) dirty, logging pre-images per the owning segments' modes.
  void annotate_raw(uint64_t raw_off, size_t len);
  // Appends a pre-image of [data_off, data_off + len). Block entries are
  // plain stores (published in batch by publish_log()); segment entries
  // are flushed eagerly under `site`. With skip_payload_flush only the
  // 64 B entry header is flushed — the payload stays in cache while the
  // bookkeeping says otherwise (the planted transition bug).
  void append_preimage(uint32_t kind, uint64_t data_off, uint64_t len,
                       const char* site, bool skip_payload_flush);
  // Flushes the log bytes in [published_, log_head) not covered by an
  // eager flush and persists log_head ("adaptive.log"): two fences per
  // call for any number of entries. Called at checkpoint and after every
  // mid-epoch promotion.
  void publish_log();
  void transition_to_cow(uint64_t seg, SegState& s, bool mid_epoch);
  // Post-commit strategy pass: EWMA update + promote/demote decisions,
  // then per-epoch state reset. DRAM only.
  void end_of_epoch_decisions();

  NvmDevice* dev_;
  CrpmOptions opt_;
  uint8_t* log_ = nullptr;
  uint8_t* data_ = nullptr;     // raw data area (reserve + window)
  uint64_t data_size_ = 0;      // raw data area bytes
  uint64_t reserve_ = 0;        // leading bytes holding the root block
  uint64_t log_capacity_ = 0;
  uint64_t blocks_per_seg_ = 0;
  uint64_t nsegs_ = 0;
  uint32_t promote_blocks_ = 0;  // dirty blocks that make a segment dense
  bool fault_skip_flush_ = false;
  bool fresh_ = false;

  // Serializes log appends and strategy mutation; the dirty-bit fast
  // path stays lock-free.
  SpinLock mu_;
  AtomicBitmap dirty_;  // per 256 B block of the raw data area, per epoch
  std::vector<SegState> segs_;
  // Log byte ranges already flushed eagerly (segment pre-images), in
  // append order; publish_log() flushes the gaps between them.
  std::vector<std::pair<uint64_t, uint64_t>> eager_flushed_;
  uint64_t published_ = 0;  // durable log prefix (last published head)
  EngineCounters counters_;
};

}  // namespace crpm::engines
