#include "baselines/dali_map.h"

#include <cstring>
#include <unordered_set>

#include "util/logging.h"

namespace crpm {

namespace {
constexpr uint64_t kDaliMagic = 0x64616c692d6d6170ull;  // "dali-map"

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

struct DaliMap::DaliHeader {
  uint64_t magic;
  uint64_t bucket_count;
  uint64_t slab_size;
  alignas(64) uint64_t committed_epoch;
  alignas(64) uint64_t current_epoch;
};

uint64_t DaliMap::required_device_size(uint64_t bucket_count,
                                       uint64_t data_size) {
  uint64_t bucket_bytes = (bucket_count * 8 + 4095) & ~uint64_t{4095};
  return 4096 + bucket_bytes + ((data_size + 4095) & ~uint64_t{4095});
}

DaliMap::DaliHeader* DaliMap::header() const {
  return reinterpret_cast<DaliHeader*>(dev_->base());
}

DaliMap::Node* DaliMap::node_at(uint64_t off) const {
  return reinterpret_cast<Node*>(slab_ + off);
}

DaliMap::DaliMap(NvmDevice* dev, uint64_t bucket_count, uint64_t data_size)
    : dev_(dev) {
  init(bucket_count, data_size);
}

DaliMap::DaliMap(std::unique_ptr<NvmDevice> dev, uint64_t bucket_count,
                 uint64_t data_size)
    : owned_(std::move(dev)), dev_(owned_.get()) {
  init(bucket_count, data_size);
}

void DaliMap::init(uint64_t bucket_count, uint64_t data_size) {
  bucket_count_ = bucket_count;
  slab_size_ = (data_size + 4095) & ~uint64_t{4095};
  CRPM_CHECK(dev_->size() >= required_device_size(bucket_count, data_size),
             "device too small for Dali layout");
  uint64_t bucket_bytes = (bucket_count * 8 + 4095) & ~uint64_t{4095};
  buckets_ = reinterpret_cast<uint64_t*>(dev_->base() + 4096);
  slab_ = dev_->base() + 4096 + bucket_bytes;

  DaliHeader* h = header();
  const bool fresh =
      h->magic != kDaliMagic || h->bucket_count != bucket_count;
  heap_ = std::make_unique<Heap>(slab_, slab_size_, fresh, nullptr, nullptr);
  if (fresh) {
    std::memset(h, 0, sizeof(DaliHeader));
    h->magic = kDaliMagic;
    h->bucket_count = bucket_count;
    h->slab_size = slab_size_;
    h->committed_epoch = 0;
    h->current_epoch = 1;
    std::memset(buckets_, 0, bucket_count * 8);
    dev_->flush(h, sizeof(DaliHeader));
    dev_->flush(buckets_, bucket_count * 8);
    dev_->fence();
  } else {
    recover();
    // Rebuild the live count.
    live_size_ = 0;
    std::unordered_set<uint64_t> seen;
    for (uint64_t b = 0; b < bucket_count_; ++b) {
      for (uint64_t off = buckets_[b]; off != 0; off = node_at(off)->next) {
        const Node* n = node_at(off);
        if (seen.insert(n->key).second && n->tombstone == 0) ++live_size_;
      }
    }
  }
}

void DaliMap::recover() {
  DaliHeader* h = header();
  uint64_t committed = h->committed_epoch;
  // Prune nodes written during uncommitted epochs: their contents may be
  // torn. Bucket heads were only persisted at syncs, so a head pointing at
  // an uncommitted node was itself not durable — but with relaxed media
  // policies it might have landed; walk defensively.
  for (uint64_t b = 0; b < bucket_count_; ++b) {
    uint64_t off = buckets_[b];
    while (off != 0 && node_at(off)->epoch > committed) {
      off = node_at(off)->next;
    }
    if (off != buckets_[b]) {
      buckets_[b] = off;
      dev_->flush(&buckets_[b], 8);
    }
  }
  dev_->fence();
  h->current_epoch = committed + 1;
  dev_->persist(&h->current_epoch, sizeof(uint64_t));
}

void DaliMap::put(uint64_t key, uint64_t value) {
  // Version nodes accumulate until the epoch sync garbage-collects them;
  // under memory pressure Dali must sync early or exhaust its slab.
  if (heap_->bytes_in_use() * 2 > slab_size_) checkpoint();
  DaliHeader* h = header();
  uint64_t b = mix64(key) % bucket_count_;
  auto* n = static_cast<Node*>(heap_->allocate(sizeof(Node)));
  n->key = key;
  n->value = value;
  n->epoch = h->current_epoch;
  n->tombstone = 0;
  n->next = buckets_[b];
  buckets_[b] = heap_->offset_of(n);  // plain store — Dali never flushes here
  dirty_buckets_.insert(b);
  // Live-size accounting: probe whether the key existed below this node.
  uint64_t probe = n->next;
  bool existed = false;
  while (probe != 0) {
    const Node* pn = node_at(probe);
    if (pn->key == key) {
      existed = pn->tombstone == 0;
      break;
    }
    probe = pn->next;
  }
  if (!existed) ++live_size_;
}

bool DaliMap::get(uint64_t key, uint64_t* value) const {
  uint64_t b = mix64(key) % bucket_count_;
  for (uint64_t off = buckets_[b]; off != 0; off = node_at(off)->next) {
    const Node* n = node_at(off);
    if (n->key == key) {
      if (n->tombstone != 0) return false;
      if (value != nullptr) *value = n->value;
      return true;
    }
  }
  return false;
}

void DaliMap::erase(uint64_t key) {
  uint64_t v = 0;
  if (!get(key, &v)) return;
  DaliHeader* h = header();
  uint64_t b = mix64(key) % bucket_count_;
  auto* n = static_cast<Node*>(heap_->allocate(sizeof(Node)));
  n->key = key;
  n->value = 0;
  n->epoch = h->current_epoch;
  n->tombstone = 1;
  n->next = buckets_[b];
  buckets_[b] = heap_->offset_of(n);
  dirty_buckets_.insert(b);
  --live_size_;
}

void DaliMap::checkpoint() {
  DaliHeader* h = header();
  uint64_t flushed = 0;
  for (uint64_t b : dirty_buckets_) {
    // Flush the chain prefix added this epoch, garbage-collecting
    // superseded versions behind it (Dali's epoch GC).
    std::unordered_set<uint64_t> seen;
    uint64_t off = buckets_[b];
    uint64_t* link = &buckets_[b];
    while (off != 0) {
      Node* n = node_at(off);
      uint64_t next = n->next;
      if (!seen.insert(n->key).second) {
        // Older version of a key already seen closer to the head: unlink.
        *link = next;
        dev_->flush(link, 8);
        heap_->deallocate(n, sizeof(Node));
        off = next;
        continue;
      }
      if (n->epoch == h->current_epoch) {
        dev_->flush(n, sizeof(Node));
        flushed += sizeof(Node);
      }
      link = &n->next;
      off = next;
    }
    dev_->flush(&buckets_[b], 8);
    flushed += 8;
  }
  // Allocator bookkeeping must survive with the epoch.
  dev_->flush(slab_, 4096);
  dev_->fence();
  h->committed_epoch = h->current_epoch;
  dev_->persist(&h->committed_epoch, sizeof(uint64_t));
  h->current_epoch += 1;
  dev_->persist(&h->current_epoch, sizeof(uint64_t));
  dirty_buckets_.clear();
  checkpoint_bytes_ += flushed;
}

}  // namespace crpm
