#include "engines/adaptive.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "core/faults.h"
#include "core/layout.h"
#include "util/logging.h"

namespace crpm::engines {

namespace {

constexpr uint64_t kAdaptiveMagic = 0x6164617074697631ull;  // "adaptiv1"
constexpr uint64_t kHeaderBytes = 4096;
constexpr uint64_t kBlockKind = 1;    // per-block pre-image
constexpr uint64_t kSegmentKind = 2;  // whole-segment pre-image
constexpr uint64_t kTrackBlock = 256;  // dirty-tracking granularity

uint64_t round_up(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

}  // namespace

// Fixed 4 KB header page. committed_epoch and log_head live on their own
// cache lines: the commit bump and the publish-time head persist must
// never ride on a line that also carries the other's state.
struct AdaptiveEngine::Header {
  uint64_t magic;
  uint64_t data_size;
  uint64_t log_capacity;
  uint64_t segment_size;
  uint64_t block_size;
  alignas(64) uint64_t committed_epoch;
  alignas(64) uint64_t log_head;  // bytes used; persisted at publish time
};

// 64 B entry header followed by the pre-image payload (padded to 64 B).
// `epoch` is the epoch under construction at append time: recovery only
// applies entries with epoch > the committed counter, which makes the
// post-commit log truncation a pure space reclaim rather than a
// correctness step.
struct AdaptiveEngine::EntryHeader {
  uint64_t kind;
  uint64_t epoch;
  uint64_t data_off;
  uint64_t len;
  uint8_t pad[32];
};

uint64_t AdaptiveEngine::required_device_size(const CrpmOptions& opt_in) {
  const CrpmOptions opt = opt_in.validated();
  const uint64_t data =
      opt.main_region_size + round_up(opt.segment_size, 4096);
  // Worst case per epoch: every block logged once (header amplification
  // 64/block) plus every segment promoted once (64 + segment payload);
  // 3x the data area covers both with room for the mixed case.
  const uint64_t log_cap = round_up(3 * data + 64 * (data / kTrackBlock),
                                    4096);
  return kHeaderBytes + log_cap + data;
}

AdaptiveEngine::Header* AdaptiveEngine::header() const {
  return reinterpret_cast<Header*>(dev_->base());
}

AdaptiveEngine::AdaptiveEngine(NvmDevice* dev, const CrpmOptions& opt)
    : dev_(dev), opt_(opt) {
  static_assert(sizeof(EntryHeader) == 64);
  reserve_ = round_up(opt_.segment_size, 4096);
  data_size_ = opt_.main_region_size + reserve_;
  log_capacity_ = round_up(3 * data_size_ + 64 * (data_size_ / kTrackBlock),
                           4096);
  CRPM_CHECK(dev_->size() >= required_device_size(opt_),
             "device too small for adaptive-engine layout");
  CRPM_CHECK(reserve_ >= kNumRoots * sizeof(uint64_t),
             "segment_size too small to hold the root block");
  log_ = dev_->base() + kHeaderBytes;
  data_ = log_ + log_capacity_;

  blocks_per_seg_ = opt_.segment_size / kTrackBlock;
  if (blocks_per_seg_ == 0) blocks_per_seg_ = 1;
  nsegs_ = data_size_ / opt_.segment_size;
  if (data_size_ % opt_.segment_size != 0) ++nsegs_;
  promote_blocks_ = static_cast<uint32_t>(
      opt_.adaptive_dense_threshold * static_cast<double>(blocks_per_seg_));
  if (promote_blocks_ == 0) promote_blocks_ = 1;
  fault_skip_flush_ =
      (armed_faults() & kFaultAdaptiveSkipTransitionFlush) != 0;

  dirty_.reset_size(data_size_ / kTrackBlock + 1);
  segs_.assign(nsegs_, SegState{});

  Header* h = header();
  if (h->magic != kAdaptiveMagic || h->data_size != data_size_ ||
      h->segment_size != opt_.segment_size) {
    format();
  } else {
    recover();
  }
}

void AdaptiveEngine::format() {
  Header* h = header();
  PersistSiteScope site("adaptive.format");
  std::memset(h, 0, sizeof(Header));
  h->magic = kAdaptiveMagic;
  h->data_size = data_size_;
  h->log_capacity = log_capacity_;
  h->segment_size = opt_.segment_size;
  h->block_size = opt_.block_size;
  h->committed_epoch = 0;
  h->log_head = 0;
  dev_->persist(h, sizeof(Header));
  fresh_ = true;
}

void AdaptiveEngine::recover() {
  Header* h = header();
  const uint64_t head = h->log_head;
  CRPM_CHECK(head <= log_capacity_, "corrupt adaptive log head %llu",
             (unsigned long long)head);
  // Forward parse to collect entry offsets, then apply newest-first:
  // a mid-epoch promotion's segment pre-image (current values at
  // promotion time) must be undone by the earlier per-block pre-images
  // (epoch-start values) that follow it in reverse order.
  std::vector<uint64_t> offsets;
  uint64_t off = 0;
  while (off + sizeof(EntryHeader) <= head) {
    const auto* e = reinterpret_cast<const EntryHeader*>(log_ + off);
    CRPM_CHECK(e->kind == kBlockKind || e->kind == kSegmentKind,
               "corrupt adaptive log entry at %llu (kind %llu)",
               (unsigned long long)off, (unsigned long long)e->kind);
    CRPM_CHECK(e->data_off + e->len <= data_size_,
               "adaptive log entry outside data area");
    offsets.push_back(off);
    off += sizeof(EntryHeader) + round_up(e->len, 64);
  }
  CRPM_CHECK(off == head, "adaptive log head %llu does not land on an "
             "entry boundary", (unsigned long long)head);

  PersistSiteScope site("adaptive.recover");
  for (auto it = offsets.rbegin(); it != offsets.rend(); ++it) {
    const auto* e = reinterpret_cast<const EntryHeader*>(log_ + *it);
    // Entries at or below the committed counter are stale survivors of a
    // crash between the commit bump and the log truncation.
    if (e->epoch <= h->committed_epoch) continue;
    const uint8_t* payload =
        log_ + *it + sizeof(EntryHeader);
    std::memcpy(data_ + e->data_off, payload, e->len);
    dev_->flush(data_ + e->data_off, e->len);
  }
  if (!offsets.empty()) dev_->fence();
  h->log_head = 0;
  dev_->persist(&h->log_head, sizeof(uint64_t));
  published_ = 0;
  eager_flushed_.clear();
  fresh_ = false;
}

void AdaptiveEngine::append_preimage(uint32_t kind, uint64_t data_off,
                                     uint64_t len, const char* site,
                                     bool skip_payload_flush) {
  Header* h = header();
  const uint64_t stride = sizeof(EntryHeader) + round_up(len, 64);
  CRPM_CHECK(h->log_head + stride <= log_capacity_,
             "adaptive log full: epoch modified too much data");
  auto* e = reinterpret_cast<EntryHeader*>(log_ + h->log_head);
  e->kind = kind;
  e->epoch = h->committed_epoch + 1;
  e->data_off = data_off;
  e->len = len;
  std::memcpy(log_ + h->log_head + sizeof(EntryHeader), data_ + data_off,
              len);

  // Block entries are appended with plain stores only: the batched
  // publish pass in checkpoint() flushes the whole epoch's entries and
  // advances the durable head with two fences total, so LOG-mode (sparse)
  // segments never pay a per-entry fence. Segment pre-images are flushed
  // eagerly instead — a strategy transition must itself be a crash point
  // the matrix can land on — and the publish pass skips their bytes.
  if (kind == kSegmentKind) {
    PersistSiteScope tag(site);
    if (skip_payload_flush) {
      // PLANTED BUG (kFaultAdaptiveSkipTransitionFlush): the
      // strategy switch records its pre-image as persisted (the publish
      // pass will skip these bytes) but leaves the payload in cache. A
      // crash after the epoch's log is published recovers through a torn
      // pre-image.
      dev_->flush(e, sizeof(EntryHeader));
    } else {
      dev_->flush(e, sizeof(EntryHeader) + len);
    }
    dev_->fence();
    eager_flushed_.emplace_back(h->log_head, h->log_head + stride);
  }
  h->log_head += stride;  // volatile until publish_log()
  counters_.trace_bytes += stride;
}

void AdaptiveEngine::publish_log() {
  Header* h = header();
  PersistSiteScope site("adaptive.log");
  // Batched WAL publish: flush every log byte in [published_, head) not
  // already covered by an eagerly-flushed segment pre-image (ranges are
  // appended in log order, so one linear walk), fence so every pre-image
  // is durable, and only then let the head pointer reach media. Recovery
  // parses entries strictly below the durable head, so a crash
  // mid-publish leaves the unpublished suffix invisible.
  uint64_t pos = published_;
  for (const auto& [b, e] : eager_flushed_) {
    if (b > pos) dev_->flush(log_ + pos, b - pos);
    pos = std::max(pos, e);
  }
  if (h->log_head > pos) dev_->flush(log_ + pos, h->log_head - pos);
  dev_->fence();  // fence #1: every pre-image below head is durable
  dev_->flush(&h->log_head, sizeof(uint64_t));
  dev_->fence();  // fence #2: the entries are published
  published_ = h->log_head;
  eager_flushed_.clear();
}

void AdaptiveEngine::transition_to_cow(uint64_t seg, SegState& s,
                                       bool mid_epoch) {
  const uint64_t seg_off = seg * opt_.segment_size;
  const uint64_t seg_len =
      std::min<uint64_t>(opt_.segment_size, data_size_ - seg_off);
  append_preimage(kSegmentKind, seg_off, seg_len,
                  mid_epoch ? "adaptive.promote" : "adaptive.cow",
                  mid_epoch && fault_skip_flush_);
  // A mid-epoch promotion publishes immediately: from the transition on,
  // the segment's writes go un-logged, so the pre-image that covers them
  // (and every earlier block entry it would mask) must already be
  // recoverable if the process dies before the next checkpoint.
  if (mid_epoch) publish_log();
  s.mode = Mode::kCow;
  s.preimage_this_epoch = true;
  ++counters_.segment_preimages;
  ++counters_.transitions_to_cow;
  if (mid_epoch) ++counters_.midepoch_promotions;
}

void AdaptiveEngine::annotate_raw(uint64_t raw_off, size_t len) {
  if (len == 0) return;
  CRPM_CHECK(raw_off < data_size_ && raw_off + len <= data_size_,
             "annotate outside the data area");
  const uint64_t b0 = raw_off / kTrackBlock;
  const uint64_t b1 = (raw_off + len - 1) / kTrackBlock;
  for (uint64_t b = b0; b <= b1; ++b) {
    if (dirty_.test(b)) continue;
    std::lock_guard<SpinLock> lock(mu_);
    if (dirty_.test(b)) continue;
    const uint64_t seg = b * kTrackBlock / opt_.segment_size;
    SegState& s = segs_[seg];
    if (s.mode == Mode::kCow) {
      if (!s.preimage_this_epoch) {
        const uint64_t seg_off = seg * opt_.segment_size;
        const uint64_t seg_len =
            std::min<uint64_t>(opt_.segment_size, data_size_ - seg_off);
        append_preimage(kSegmentKind, seg_off, seg_len, "adaptive.cow",
                        false);
        s.preimage_this_epoch = true;
        ++counters_.segment_preimages;
      }
    } else {
      const uint64_t blk_off = b * kTrackBlock;
      const uint64_t blk_len =
          std::min<uint64_t>(kTrackBlock, data_size_ - blk_off);
      append_preimage(kBlockKind, blk_off, blk_len, "adaptive.log", false);
      ++counters_.log_entries;
    }
    dirty_.set(b);
    ++s.epoch_dirty_blocks;
    if (s.mode == Mode::kLog && s.epoch_dirty_blocks >= promote_blocks_) {
      transition_to_cow(seg, s, /*mid_epoch=*/true);
    }
  }
}

void AdaptiveEngine::annotate(const void* addr, size_t len) {
  const uint64_t off = static_cast<uint64_t>(
      static_cast<const uint8_t*>(addr) - (data_ + reserve_));
  annotate_raw(off + reserve_, len);
}

void AdaptiveEngine::checkpoint() {
  Header* h = header();
  uint64_t dirty_bytes = 0;
  dirty_.for_each_set([&](size_t) { dirty_bytes += kTrackBlock; });
  // WAL ordering: the epoch's pre-images must be durable and published
  // before any dirty data line can overwrite its committed media value.
  publish_log();
  {
    PersistSiteScope site("adaptive.ckpt");
    if (dirty_bytes > opt_.wbinvd_threshold) {
      dev_->wbinvd_flush();
    } else {
      dirty_.for_each_set([&](size_t b) {
        const uint64_t off = b * kTrackBlock;
        dev_->flush(data_ + off,
                    std::min<uint64_t>(kTrackBlock, data_size_ - off));
      });
    }
    // Drain before the commit point: the bump must never become durable
    // ahead of the epoch's data.
    dev_->fence();
  }
  {
    // Commit point: from here recovery lands on the new epoch (the log's
    // entries carry this epoch's tag and are filtered as stale).
    PersistSiteScope site("adaptive.commit");
    h->committed_epoch += 1;
    dev_->persist(&h->committed_epoch, sizeof(uint64_t));
  }
  {
    PersistSiteScope site("adaptive.trunc");
    h->log_head = 0;
    dev_->persist(&h->log_head, sizeof(uint64_t));
    published_ = 0;
  }
  counters_.checkpoint_bytes += dirty_bytes;
  ++counters_.epochs;
  end_of_epoch_decisions();
}

void AdaptiveEngine::end_of_epoch_decisions() {
  for (uint64_t seg = 0; seg < nsegs_; ++seg) {
    SegState& s = segs_[seg];
    const double density = static_cast<double>(s.epoch_dirty_blocks) /
                           static_cast<double>(blocks_per_seg_);
    s.density_ewma = 0.5 * density + 0.5 * s.density_ewma;
    ++counters_.decisions;
    if (s.mode == Mode::kLog) {
      s.below_sparse_epochs = 0;
      if (s.density_ewma >= opt_.adaptive_dense_threshold) {
        // Boundary promotion: no pending state to hand off — the log was
        // just truncated — so the switch is a pure mode flip; the next
        // epoch's first write appends the segment pre-image.
        s.mode = Mode::kCow;
        ++counters_.transitions_to_cow;
      }
    } else {
      if (s.density_ewma <= opt_.adaptive_sparse_threshold) {
        if (++s.below_sparse_epochs >= opt_.adaptive_hysteresis_epochs) {
          s.mode = Mode::kLog;
          s.below_sparse_epochs = 0;
          ++counters_.transitions_to_log;
        }
      } else {
        s.below_sparse_epochs = 0;
      }
    }
    s.epoch_dirty_blocks = 0;
    s.preimage_this_epoch = false;
  }
  dirty_.clear_all();
}

void AdaptiveEngine::set_root(uint32_t slot, uint64_t off) {
  CRPM_CHECK(slot < kNumRoots, "root slot %u out of range", slot);
  // Roots live in the reserved head of the data area and ride the same
  // undo protocol as application state: epoch-consistent by construction.
  const uint64_t raw = slot * sizeof(uint64_t);
  annotate_raw(raw, sizeof(uint64_t));
  std::memcpy(data_ + raw, &off, sizeof(uint64_t));
}

uint64_t AdaptiveEngine::get_root(uint32_t slot) const {
  CRPM_CHECK(slot < kNumRoots, "root slot %u out of range", slot);
  uint64_t v = 0;
  std::memcpy(&v, data_ + slot * sizeof(uint64_t), sizeof(uint64_t));
  return v;
}

uint64_t AdaptiveEngine::committed_epoch() const {
  return header()->committed_epoch;
}

EngineCounters AdaptiveEngine::counters() const {
  EngineCounters c = counters_;
  c.segments_log = 0;
  c.segments_cow = 0;
  for (const SegState& s : segs_) {
    if (s.mode == Mode::kLog) {
      ++c.segments_log;
    } else {
      ++c.segments_cow;
    }
  }
  return c;
}

}  // namespace crpm::engines
