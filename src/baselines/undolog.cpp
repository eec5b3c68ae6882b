#include "baselines/undolog.h"

#include <cstring>
#include <mutex>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm {

namespace {
constexpr uint64_t kUndoMagic = 0x756e646f6c6f6731ull;  // "undolog1"
}

struct UndoLog::UndoHeader {
  uint64_t magic;
  uint64_t committed_epoch;
  uint64_t data_size;
  uint64_t log_capacity;
  alignas(64) uint64_t log_head;  // bytes used; own line, persisted per entry
  alignas(64) uint64_t roots[16];
};

struct UndoLog::Entry {
  uint64_t data_off;
  uint64_t len;
  uint8_t pad[48];
  uint8_t payload[kBlockSize];
};

uint64_t UndoLog::log_capacity_for(uint64_t data_size) {
  // One entry per block: blocks are logged at most once per epoch, so even
  // an epoch that touches the whole window fits.
  return (data_size / kBlockSize * kEntryStride + 4095) & ~uint64_t{4095};
}

uint64_t UndoLog::required_device_size(uint64_t data_size) {
  data_size = (data_size + 4095) & ~uint64_t{4095};
  return 4096 + log_capacity_for(data_size) + data_size;
}

UndoLog::UndoHeader* UndoLog::header() const {
  return reinterpret_cast<UndoHeader*>(dev_->base());
}

UndoLog::UndoLog(NvmDevice* dev, uint64_t data_size, uint64_t segment_size)
    : dev_(dev), segment_size_(segment_size) {
  init(data_size);
}

UndoLog::UndoLog(std::unique_ptr<NvmDevice> dev, uint64_t data_size,
                 uint64_t segment_size)
    : owned_(std::move(dev)), dev_(owned_.get()), segment_size_(segment_size) {
  init(data_size);
}

void UndoLog::init(uint64_t data_size) {
  static_assert(sizeof(Entry) == kEntryStride);
  data_size_ = (data_size + 4095) & ~uint64_t{4095};
  log_capacity_ = log_capacity_for(data_size_);
  CRPM_CHECK(dev_->size() >= required_device_size(data_size),
             "device too small for undo-log layout");
  log_ = dev_->base() + 4096;
  data_ = log_ + log_capacity_;
  epoch_blocks_.reset_size(data_size_ / kBlockSize);

  UndoHeader* h = header();
  if (h->magic != kUndoMagic || h->data_size != data_size_ ||
      h->log_capacity != log_capacity_) {
    std::memset(h, 0, sizeof(UndoHeader));
    h->magic = kUndoMagic;
    h->data_size = data_size_;
    h->log_capacity = log_capacity_;
    h->log_head = 0;
    dev_->persist(h, sizeof(UndoHeader));
    fresh_ = true;
  } else {
    recover();
    fresh_ = false;
  }
}

void UndoLog::recover() {
  UndoHeader* h = header();
  uint64_t head = h->log_head;
  CRPM_CHECK(head % kEntryStride == 0 && head <= log_capacity_,
             "corrupt undo log head %llu", (unsigned long long)head);
  // Entries [0, head) hold pre-images from the interrupted epoch; applying
  // them rolls the data area back to the last completed checkpoint. Blocks
  // are logged at most once per epoch, so order does not matter.
  for (uint64_t off = 0; off < head; off += kEntryStride) {
    const Entry* e = reinterpret_cast<const Entry*>(log_ + off);
    CRPM_CHECK(e->data_off + e->len <= data_size_, "corrupt undo entry");
    std::memcpy(data_ + e->data_off, e->payload, e->len);
    dev_->flush(data_ + e->data_off, e->len);
  }
  if (head != 0) dev_->fence();
  h->log_head = 0;
  dev_->persist(&h->log_head, sizeof(uint64_t));
}

void UndoLog::log_block(uint64_t block) {
  Stopwatch sw;
  UndoHeader* h = header();
  CRPM_CHECK(h->log_head + kEntryStride <= log_capacity_,
             "undo log full: epoch modified too much data");
  Entry* e = reinterpret_cast<Entry*>(log_ + h->log_head);
  e->data_off = block * kBlockSize;
  e->len = kBlockSize;
  std::memcpy(e->payload, data_ + e->data_off, kBlockSize);
  dev_->flush(e, sizeof(Entry));
  dev_->fence();  // fence #1: the entry itself
  h->log_head += kEntryStride;
  dev_->flush(&h->log_head, sizeof(uint64_t));
  dev_->fence();  // fence #2: the log-head metadata
  stats_.trace_bytes += sizeof(Entry);
  ++stats_.entries;
  stats_.trace_ns += sw.elapsed_ns();
}

void UndoLog::annotate(const void* addr, size_t len) {
  if (len == 0) return;
  uint64_t off = static_cast<uint64_t>(static_cast<const uint8_t*>(addr) -
                                       data_);
  CRPM_CHECK(off < data_size_ && off + len <= data_size_,
             "annotate outside data area");
  uint64_t b0 = off / kBlockSize;
  uint64_t b1 = (off + len - 1) / kBlockSize;
  for (uint64_t b = b0; b <= b1; ++b) {
    if (epoch_blocks_.test(b)) continue;
    std::lock_guard<SpinLock> lock(log_mu_);
    // Re-test under the lock: a concurrent writer may have logged it. The
    // bit is set only once the pre-image is durable, so writers that see
    // it set may store right away.
    if (epoch_blocks_.test(b)) continue;
    log_block(b);
    epoch_blocks_.set(b);
  }
}

void UndoLog::checkpoint() {
  UndoHeader* h = header();
  // Flush the current values of every block modified this epoch, then
  // truncate the log: the flushed state becomes the new checkpoint.
  uint64_t bytes = 0;
  epoch_blocks_.for_each_set([&](size_t b) {
    dev_->flush(data_ + b * kBlockSize, kBlockSize);
    bytes += kBlockSize;
  });
  dev_->fence();
  h->log_head = 0;
  dev_->persist(&h->log_head, sizeof(uint64_t));
  h->committed_epoch += 1;
  dev_->persist(&h->committed_epoch, sizeof(uint64_t));
  epoch_blocks_.clear_all();
  stats_.checkpoint_bytes += bytes;
  ++stats_.epochs;
}

uint64_t UndoLog::committed_epoch() const {
  return header()->committed_epoch;
}

EngineCounters UndoLog::counters() const {
  EngineCounters c;
  c.epochs = stats_.epochs;
  c.segments_log = (data_size_ + segment_size_ - 1) / segment_size_;
  c.log_entries = stats_.entries;
  c.trace_bytes = stats_.trace_bytes;
  c.checkpoint_bytes = stats_.checkpoint_bytes;
  return c;
}

void UndoLog::set_root(uint32_t slot, uint64_t off) {
  UndoHeader* h = header();
  h->roots[slot] = off;
  dev_->persist(&h->roots[slot], sizeof(uint64_t));
}

uint64_t UndoLog::get_root(uint32_t slot) const {
  return header()->roots[slot];
}

}  // namespace crpm
