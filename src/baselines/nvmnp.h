// NVM-NP baseline (Section 5.1, system 5): data structures live in NVM but
// no persistence instruction is ever issued and no checkpoints are taken.
// Performance upper bound — the residual gap between NVM-NP and
// libcrpm-Default is the true cost of checkpoint-recovery support.
//
// The protocol exposes the device past its root page as a flat window;
// NvmNpPolicy puts the persistent Heap on it. Every open is fresh.
#pragma once

#include <cstring>
#include <memory>

#include "baselines/policy.h"
#include "nvm/device.h"

namespace crpm {

class NvmNp {
 public:
  explicit NvmNp(NvmDevice* dev) : dev_(dev) { clear_roots(); }
  explicit NvmNp(std::unique_ptr<NvmDevice> dev)
      : owned_(std::move(dev)), dev_(owned_.get()) {
    clear_roots();
  }

  // Layout: [roots: 16 x u64 | pad to 4K | window].
  uint8_t* data() { return dev_->base() + kRootPage; }
  uint64_t capacity() const { return dev_->size() - kRootPage; }
  void annotate(const void*, size_t) {}
  void checkpoint() {}
  void set_root(uint32_t slot, uint64_t off) { roots()[slot] = off; }
  uint64_t get_root(uint32_t slot) { return roots()[slot]; }
  uint64_t committed_epoch() const { return 0; }
  bool fresh() const { return true; }  // never recovers anything

  NvmDevice* device() { return dev_; }

 private:
  static constexpr uint64_t kRootPage = 4096;

  uint64_t* roots() { return reinterpret_cast<uint64_t*>(dev_->base()); }
  void clear_roots() { std::memset(roots(), 0, 16 * sizeof(uint64_t)); }

  std::unique_ptr<NvmDevice> owned_;
  NvmDevice* dev_;
};

using NvmNpPolicy = HeapPolicy<NvmNp>;

static_assert(PersistencePolicy<NvmNpPolicy>);

}  // namespace crpm
