// Dalí-style periodically persistent hash map (Nawab et al., DISC'17 —
// Section 5.1, system 4).
//
// Dalí achieves persistence at low per-operation cost by never flushing on
// the operation path: every put prepends a new version node tagged with the
// current epoch; periodically the map "syncs" — flushing the buckets and
// nodes modified during the epoch, then atomically advancing the committed
// epoch. Recovery prunes nodes of uncommitted epochs from the bucket
// chains. The costs the paper observes — version-node allocation on every
// update, longer chains until garbage collection, bucket walks at sync —
// are all present here.
#pragma once

#include <memory>
#include <unordered_set>

#include "core/heap.h"
#include "nvm/device.h"

namespace crpm {

class DaliMap {
 public:
  static uint64_t required_device_size(uint64_t bucket_count,
                                       uint64_t data_size);

  DaliMap(NvmDevice* dev, uint64_t bucket_count, uint64_t data_size);
  DaliMap(std::unique_ptr<NvmDevice> dev, uint64_t bucket_count,
          uint64_t data_size);

  // Insert-or-update (Dalí semantics: a new version node).
  void put(uint64_t key, uint64_t value);
  bool get(uint64_t key, uint64_t* value) const;
  void erase(uint64_t key);  // tombstone version

  // Epoch sync (the map's periodic checkpoint).
  void checkpoint();

  uint64_t size() const { return live_size_; }
  NvmDevice* device() { return dev_; }
  uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }

 private:
  struct Node {
    uint64_t next;
    uint64_t epoch;
    uint64_t key;
    uint64_t value;
    uint64_t tombstone;
  };
  struct DaliHeader;

  DaliHeader* header() const;
  void init(uint64_t bucket_count, uint64_t data_size);
  void recover();
  Node* node_at(uint64_t off) const;

  std::unique_ptr<NvmDevice> owned_;
  NvmDevice* dev_ = nullptr;
  uint64_t* buckets_ = nullptr;
  uint8_t* slab_ = nullptr;
  uint64_t bucket_count_ = 0;
  uint64_t slab_size_ = 0;
  std::unique_ptr<Heap> heap_;  // node slab; not traced (Dali flushes)
  std::unordered_set<uint64_t> dirty_buckets_;  // DRAM, per epoch
  uint64_t live_size_ = 0;
  uint64_t checkpoint_bytes_ = 0;
};

}  // namespace crpm
