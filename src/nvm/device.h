// Simulated NVM devices.
//
// An NvmDevice hands out a flat byte range standing in for an Optane DIMM
// mapping and implements the persistence primitives the runtime uses:
//
//   flush(addr, len)   clwb every cache line in the range
//   fence()            sfence — orders and (with ADR) drains pending flushes
//   nt_copy(...)       non-temporal (streaming) copy, durable at next fence
//   wbinvd_flush()     whole-cache writeback, used by the checkpoint
//                      protocol when the dirty set exceeds the LLC size
//
// Every primitive updates the calling thread's PersistStats shard (Table 1
// metrics) and, when a CostModel is enabled, charges emulated DCPMM
// latency. A per-event hook
// supports crash-point injection (see crash_sim.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "nvm/cost_model.h"
#include "nvm/stats.h"

namespace crpm {

enum class PersistEventKind : uint8_t {
  kFlush,    // one clwb (64B line)
  kFence,    // one sfence
  kNtStore,  // one 64B non-temporal store
  kWbinvd,   // whole-cache flush
};

struct PersistEvent {
  PersistEventKind kind;
  uint64_t offset;  // device offset of the affected line (0 for fences)
  const char* site;  // protocol phase tag (PersistSiteScope), "untagged"
};

// Tags every persist event emitted by the current thread while the scope is
// alive, e.g. `PersistSiteScope tag("ckpt.commit");` around the
// committed_epoch persist. Scopes nest; the previous tag is restored on
// destruction. Only read when an event hook is installed, so the production
// path pays nothing beyond the existing hook_ branch.
//
// Async checkpointing (CrpmOptions::async_checkpoint) adds its own sites:
// "async.flush" (pipeline block flushes), "async.steal" (write-hook stolen
// flushes), "async.stage" (staged seg_state/roots), "async.commit" (the
// background committed_epoch bump) and "async.final" (post-commit rebuild
// of stolen segments' backups). The crash-matrix scenario "core-async"
// walks all of them.
class PersistSiteScope {
 public:
  explicit PersistSiteScope(const char* site);
  ~PersistSiteScope();

  PersistSiteScope(const PersistSiteScope&) = delete;
  PersistSiteScope& operator=(const PersistSiteScope&) = delete;

  // The innermost active tag on this thread ("untagged" outside any scope).
  static const char* current();

 private:
  const char* prev_;
};

// Invoked before the event takes effect on the media. Throwing aborts the
// event (and, in tests, simulates a crash at that exact point).
using PersistEventHook = std::function<void(const PersistEvent&)>;

class NvmDevice {
 public:
  virtual ~NvmDevice() = default;

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  uint8_t* base() const { return base_; }
  size_t size() const { return size_; }

  bool contains(const void* p, size_t len) const {
    auto a = reinterpret_cast<uintptr_t>(p);
    auto b = reinterpret_cast<uintptr_t>(base_);
    return a >= b && a + len <= b + size_;
  }

  uint64_t offset_of(const void* p) const {
    return static_cast<uint64_t>(reinterpret_cast<const uint8_t*>(p) - base_);
  }

  // clwb every cache line overlapping [addr, addr + len).
  void flush(const void* addr, size_t len);

  // sfence. Orders the calling thread's earlier flushes and streaming
  // stores; the cost model charges the drain of that thread's pending
  // lines only.
  void fence();

  // flush + fence.
  void persist(const void* addr, size_t len) {
    flush(addr, len);
    fence();
  }

  // Streaming copy into the device; contents are durable after the next
  // fence(). `dst` must lie within the device; `src` may be anywhere.
  void nt_copy(void* dst, const void* src, size_t len);

  // Whole-cache writeback (wbinvd). Used when flushing the dirty set line
  // by line would cost more than draining the entire LLC.
  void wbinvd_flush();

  PersistStats& stats() { return stats_; }
  const PersistStats& stats() const { return stats_; }

  const CostModel& cost_model() const { return cost_; }
  void set_cost_model(const CostModel& m) { cost_ = m; }

  // Installs a hook receiving one event per cache line / fence. Slows the
  // device down; intended for crash-injection tests only.
  void set_event_hook(PersistEventHook hook) { hook_ = std::move(hook); }

 protected:
  NvmDevice(uint8_t* base, size_t size) : base_(base), size_(size) {}

  // Media-effect callbacks, offsets are device-relative and line-aligned.
  virtual void media_flush_line(uint64_t /*line_offset*/) {}
  virtual void media_fence() {}
  virtual void media_nt_line(uint64_t /*line_offset*/) {}
  virtual void media_wbinvd() {}

  void set_base(uint8_t* base, size_t size) {
    base_ = base;
    size_ = size;
  }

 private:
  void emit(PersistEventKind kind, uint64_t offset) {
    if (hook_) hook_(PersistEvent{kind, offset, PersistSiteScope::current()});
  }

  uint8_t* base_ = nullptr;
  size_t size_ = 0;
  PersistStats stats_;
  CostModel cost_;
  PersistEventHook hook_;
};

// DRAM-backed device (aligned_alloc). No durability across process exit;
// used by unit tests and by DRAM-vs-NVM baselines.
class HeapNvmDevice final : public NvmDevice {
 public:
  explicit HeapNvmDevice(size_t size);
  ~HeapNvmDevice() override;

 private:
  uint8_t* mem_;
};

// File-backed device (mmap, shared). Survives process crashes and
// restarts — MAP_SHARED dirty pages live in the OS page cache regardless
// of how the process dies — which the integration tests and examples use
// for real kill/reopen recovery. Durability across a HOST power failure
// additionally requires the backing file to be on real persistent memory
// (DAX) or an fsync'd filesystem; this simulation does not msync.
class FileNvmDevice final : public NvmDevice {
 public:
  // Opens (creating and sizing if necessary) `path` and maps `size` bytes.
  // If the file exists with a different size it is resized.
  FileNvmDevice(const std::string& path, size_t size);
  ~FileNvmDevice() override;

  const std::string& path() const { return path_; }

  // Returns true if `path` existed before this device opened it.
  bool existed() const { return existed_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool existed_ = false;
};

}  // namespace crpm
