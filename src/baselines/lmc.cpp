#include "baselines/lmc.h"

#include <cstring>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm {

namespace {
constexpr uint64_t kLmcMagic = 0x6c6d632d6672616dull;  // "lmc-fram"
}

struct Lmc::LmcHeader {
  uint64_t magic;
  uint64_t committed_epoch;
  uint64_t data_size;
  uint64_t slot_capacity;
  alignas(64) uint64_t frame_count;  // valid records; own cache line
  alignas(64) uint64_t roots[16];
};

uint64_t Lmc::required_device_size(uint64_t data_size) {
  data_size = (data_size + 4095) & ~uint64_t{4095};
  uint64_t slots = data_size / kBlockSize;
  uint64_t records_bytes = (slots * 8 + 4095) & ~uint64_t{4095};
  return 4096 + records_bytes + slots * kBlockSize + data_size;
}

Lmc::LmcHeader* Lmc::header() const {
  return reinterpret_cast<LmcHeader*>(dev_->base());
}

Lmc::Lmc(NvmDevice* dev, uint64_t data_size) : dev_(dev) {
  init(data_size);
}

Lmc::Lmc(std::unique_ptr<NvmDevice> dev, uint64_t data_size)
    : owned_(std::move(dev)), dev_(owned_.get()) {
  init(data_size);
}

void Lmc::init(uint64_t data_size) {
  data_size_ = (data_size + 4095) & ~uint64_t{4095};
  slot_capacity_ = data_size_ / kBlockSize;
  CRPM_CHECK(dev_->size() >= required_device_size(data_size),
             "device too small for LMC layout");
  uint64_t records_bytes = (slot_capacity_ * 8 + 4095) & ~uint64_t{4095};
  records_ = reinterpret_cast<uint64_t*>(dev_->base() + 4096);
  shadow_ = dev_->base() + 4096 + records_bytes;
  data_ = shadow_ + slot_capacity_ * kBlockSize;
  epoch_blocks_.reset_size(data_size_ / kBlockSize);

  LmcHeader* h = header();
  if (h->magic != kLmcMagic || h->data_size != data_size_) {
    std::memset(h, 0, sizeof(LmcHeader));
    h->magic = kLmcMagic;
    h->data_size = data_size_;
    h->slot_capacity = slot_capacity_;
    h->frame_count = 0;
    dev_->persist(h, sizeof(LmcHeader));
    fresh_ = true;
  } else {
    recover();
    fresh_ = false;
  }
}

void Lmc::recover() {
  LmcHeader* h = header();
  uint64_t n = h->frame_count;
  CRPM_CHECK(n <= slot_capacity_, "corrupt LMC frame count");
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t off = records_[i];
    CRPM_CHECK(off + kBlockSize <= data_size_, "corrupt LMC record");
    std::memcpy(data_ + off, shadow_ + i * kBlockSize, kBlockSize);
    dev_->flush(data_ + off, kBlockSize);
  }
  if (n != 0) dev_->fence();
  h->frame_count = 0;
  dev_->persist(&h->frame_count, sizeof(uint64_t));
}

void Lmc::annotate(const void* addr, size_t len) {
  if (len == 0) return;
  uint64_t off = static_cast<uint64_t>(static_cast<const uint8_t*>(addr) -
                                       data_);
  CRPM_CHECK(off < data_size_ && off + len <= data_size_,
             "annotate outside data area");
  uint64_t b0 = off / kBlockSize;
  uint64_t b1 = (off + len - 1) / kBlockSize;
  LmcHeader* h = header();
  for (uint64_t b = b0; b <= b1; ++b) {
    if (epoch_blocks_.test(b)) continue;
    Stopwatch sw;
    uint64_t slot = h->frame_count;
    CRPM_CHECK(slot < slot_capacity_, "LMC frame full");
    std::memcpy(shadow_ + slot * kBlockSize, data_ + b * kBlockSize,
                kBlockSize);
    records_[slot] = b * kBlockSize;
    dev_->flush(shadow_ + slot * kBlockSize, kBlockSize);
    dev_->flush(&records_[slot], sizeof(uint64_t));
    dev_->fence();  // fence #1: record + shadow block
    h->frame_count = slot + 1;
    dev_->flush(&h->frame_count, sizeof(uint64_t));
    dev_->fence();  // fence #2: frame metadata
    epoch_blocks_.set(b);
    stats_.trace_bytes += kBlockSize + sizeof(uint64_t);
    ++stats_.entries;
    stats_.trace_ns += sw.elapsed_ns();
  }
}

void Lmc::checkpoint() {
  LmcHeader* h = header();
  uint64_t bytes = 0;
  epoch_blocks_.for_each_set([&](size_t b) {
    dev_->flush(data_ + b * kBlockSize, kBlockSize);
    bytes += kBlockSize;
  });
  dev_->fence();
  h->frame_count = 0;
  dev_->persist(&h->frame_count, sizeof(uint64_t));
  h->committed_epoch += 1;
  dev_->persist(&h->committed_epoch, sizeof(uint64_t));
  epoch_blocks_.clear_all();
  stats_.checkpoint_bytes += bytes;
  ++stats_.epochs;
}

uint64_t Lmc::committed_epoch() const { return header()->committed_epoch; }

void Lmc::set_root(uint32_t slot, uint64_t off) {
  LmcHeader* h = header();
  h->roots[slot] = off;
  dev_->persist(&h->roots[slot], sizeof(uint64_t));
}

uint64_t Lmc::get_root(uint32_t slot) { return header()->roots[slot]; }

}  // namespace crpm
