#include "baselines/page_policy.h"

#include <cstring>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm {

namespace {
constexpr uint64_t kPageCkptMagic = 0x706167656325f531ull;
}

struct PageCkpt::PageHeader {
  uint64_t magic;
  uint64_t committed_epoch;
  uint64_t data_size;
  uint64_t journal_capacity;
  alignas(64) uint64_t journal_entries;  // journal commit point
  alignas(64) uint64_t roots[16];
};

uint64_t PageCkpt::required_device_size(uint64_t data_size) {
  data_size = (data_size + kPageSize - 1) & ~(kPageSize - 1);
  uint64_t cap = data_size / kPageSize;  // journal can hold every page
  uint64_t index_bytes = (cap * 8 + kPageSize - 1) & ~(kPageSize - 1);
  return kPageSize + index_bytes + cap * kPageSize /* journal payload */ +
         data_size /* shadow */ + data_size /* data */;
}

PageCkpt::PageHeader* PageCkpt::header() const {
  return reinterpret_cast<PageHeader*>(dev_->base());
}

PageCkpt::PageCkpt(NvmDevice* dev, uint64_t data_size, PageTracerKind kind,
                   uint64_t segment_size)
    : dev_(dev), segment_size_(segment_size) {
  init(data_size, kind);
}

PageCkpt::PageCkpt(std::unique_ptr<NvmDevice> dev, uint64_t data_size,
                   PageTracerKind kind, uint64_t segment_size)
    : owned_(std::move(dev)), dev_(owned_.get()), segment_size_(segment_size) {
  init(data_size, kind);
}

PageCkpt::~PageCkpt() = default;

void PageCkpt::init(uint64_t data_size, PageTracerKind kind) {
  data_size_ = (data_size + kPageSize - 1) & ~(kPageSize - 1);
  journal_capacity_ = data_size_ / kPageSize;
  CRPM_CHECK(dev_->size() >= required_device_size(data_size),
             "device too small for page-checkpoint layout");
  uint64_t index_bytes =
      (journal_capacity_ * 8 + kPageSize - 1) & ~(kPageSize - 1);
  journal_index_ = reinterpret_cast<uint64_t*>(dev_->base() + kPageSize);
  journal_pages_ = dev_->base() + kPageSize + index_bytes;
  shadow_ = journal_pages_ + journal_capacity_ * kPageSize;
  data_ = shadow_ + data_size_;

  PageHeader* h = header();
  if (h->magic != kPageCkptMagic || h->data_size != data_size_) {
    std::memset(h, 0, sizeof(PageHeader));
    h->magic = kPageCkptMagic;
    h->data_size = data_size_;
    h->journal_capacity = journal_capacity_;
    h->journal_entries = 0;
    dev_->persist(h, sizeof(PageHeader));
    // Shadow must match the (zero-initialized) data area so the first
    // incremental checkpoint starts from a consistent base.
    fresh_ = true;
  } else {
    recover();
    fresh_ = false;
  }

  switch (kind) {
    case PageTracerKind::kMprotect:
      tracer_ = std::make_unique<MprotectTracer>(data_, data_size_);
      break;
    case PageTracerKind::kSoftDirty:
      CRPM_CHECK(SoftDirtyTracer::available(),
                 "soft-dirty PTE tracking unavailable on this kernel");
      tracer_ = std::make_unique<SoftDirtyTracer>(data_, data_size_);
      break;
  }
  tracer_->epoch_begin();
}

void PageCkpt::recover() {
  PageHeader* h = header();
  uint64_t n = h->journal_entries;
  CRPM_CHECK(n <= journal_capacity_, "corrupt page journal");
  // Redo a committed journal into the shadow (idempotent full pages).
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t p = journal_index_[i];
    CRPM_CHECK(p < data_size_ / kPageSize, "corrupt journal index");
    std::memcpy(shadow_ + p * kPageSize, journal_pages_ + i * kPageSize,
                kPageSize);
    dev_->flush(shadow_ + p * kPageSize, kPageSize);
  }
  if (n != 0) dev_->fence();
  h->journal_entries = 0;
  dev_->persist(&h->journal_entries, sizeof(uint64_t));
  // Restore the working state from the checkpoint image.
  std::memcpy(data_, shadow_, data_size_);
  dev_->flush(data_, data_size_);
  dev_->fence();
}

void PageCkpt::checkpoint() {
  PageHeader* h = header();
  scratch_pages_.clear();
  Stopwatch trace_sw;
  tracer_->collect(&scratch_pages_);
  stats_.trace_ns += trace_sw.elapsed_ns();
  CRPM_CHECK(scratch_pages_.size() <= journal_capacity_,
             "page journal overflow");
  if (!scratch_pages_.empty()) {
    // 1. Journal the current contents of every dirty page.
    for (uint64_t i = 0; i < scratch_pages_.size(); ++i) {
      uint64_t p = scratch_pages_[i];
      journal_index_[i] = p;
      std::memcpy(journal_pages_ + i * kPageSize, data_ + p * kPageSize,
                  kPageSize);
      dev_->flush(journal_pages_ + i * kPageSize, kPageSize);
      dev_->flush(&journal_index_[i], sizeof(uint64_t));
    }
    dev_->fence();
    // 2. Commit the journal.
    h->journal_entries = scratch_pages_.size();
    dev_->persist(&h->journal_entries, sizeof(uint64_t));
    // 3. Apply to the shadow checkpoint image.
    for (uint64_t p : scratch_pages_) {
      std::memcpy(shadow_ + p * kPageSize, data_ + p * kPageSize, kPageSize);
      dev_->flush(shadow_ + p * kPageSize, kPageSize);
    }
    dev_->fence();
    // 4. Truncate.
    h->journal_entries = 0;
    dev_->persist(&h->journal_entries, sizeof(uint64_t));
  }
  // 5. Advance the epoch, also when nothing was dirtied.
  h->committed_epoch += 1;
  dev_->persist(&h->committed_epoch, sizeof(uint64_t));

  stats_.checkpoint_bytes += scratch_pages_.size() * kPageSize;
  stats_.entries += scratch_pages_.size();
  ++stats_.epochs;
  Stopwatch arm_sw;
  tracer_->epoch_begin();
  stats_.trace_ns += arm_sw.elapsed_ns() + tracer_->fault_ns_and_reset();
}

uint64_t PageCkpt::committed_epoch() const {
  return header()->committed_epoch;
}

EngineCounters PageCkpt::counters() const {
  EngineCounters c;
  c.epochs = stats_.epochs;
  c.segments_cow = (data_size_ + segment_size_ - 1) / segment_size_;
  c.log_entries = stats_.entries;
  c.trace_bytes = stats_.trace_bytes;
  c.checkpoint_bytes = stats_.checkpoint_bytes;
  return c;
}

void PageCkpt::set_root(uint32_t slot, uint64_t off) {
  PageHeader* h = header();
  h->roots[slot] = off;
  dev_->persist(&h->roots[slot], sizeof(uint64_t));
}

uint64_t PageCkpt::get_root(uint32_t slot) const {
  return header()->roots[slot];
}

}  // namespace crpm
