// Page-granularity incremental checkpointing baseline (Section 2.2.1;
// Section 5.1 systems "Mprotect" and "Soft-dirty bit").
//
// The working state lives in an NVM data area and is traced at page
// granularity by the OS (mprotect faults or soft-dirty PTEs). At each
// checkpoint the dirty pages are journaled (redo log with full-page
// payloads), committed with a single persisted counter, applied to a shadow
// copy of the data area, and the journal is truncated. Recovery replays a
// committed journal and restores the data area from the shadow.
//
// This reproduces the two costs the paper measures for these systems: page
// faults / pagemap scans for tracing, and whole-page write amplification
// (problem P1) — one modified cache line costs 2 x 4 KB of media writes.
//
// The protocol is an Engine whose window is its whole data area
// ("pagecow" in open_engine(), mprotect-traced); PageCkptPolicy puts the
// persistent Heap on that window. Recovery restores the whole window from
// the shadow, so everything in it — the heap header included — rolls back
// together. Roots persist immediately, so after a crash a root may run
// ahead of the recovered data.
#pragma once

#include <memory>
#include <vector>

#include "baselines/policy.h"
#include "baselines/undolog.h"  // BaselineStats
#include "core/engine.h"
#include "nvm/device.h"
#include "trace/page_tracer.h"

namespace crpm {

enum class PageTracerKind { kMprotect, kSoftDirty };

class PageCkpt final : public Engine {
 public:
  static uint64_t required_device_size(uint64_t data_size);

  // `segment_size` only groups the window for counters().
  PageCkpt(NvmDevice* dev, uint64_t data_size, PageTracerKind kind,
           uint64_t segment_size = kBaselineCounterSegment);
  PageCkpt(std::unique_ptr<NvmDevice> dev, uint64_t data_size,
           PageTracerKind kind,
           uint64_t segment_size = kBaselineCounterSegment);
  ~PageCkpt() override;

  const char* name() const override { return "pagecow"; }
  uint8_t* data() override { return data_; }
  uint64_t capacity() const override { return data_size_; }
  void annotate(const void*, size_t) override {}  // tracing is OS-driven
  void checkpoint() override;
  void set_root(uint32_t slot, uint64_t off) override;
  uint64_t get_root(uint32_t slot) const override;
  uint64_t committed_epoch() const override;
  bool fresh() const override { return fresh_; }
  // Full-page journal appends are reported as log entries.
  EngineCounters counters() const override;

  NvmDevice* device() { return dev_; }
  const BaselineStats& bstats() const { return stats_; }
  PageTracer* tracer() { return tracer_.get(); }

 private:
  struct PageHeader;

  PageHeader* header() const;
  void init(uint64_t data_size, PageTracerKind kind);
  void recover();

  std::unique_ptr<NvmDevice> owned_;
  NvmDevice* dev_ = nullptr;
  uint64_t* journal_index_ = nullptr;  // page index per journal slot
  uint8_t* journal_pages_ = nullptr;   // 4 KB payload per slot
  uint8_t* shadow_ = nullptr;          // last checkpoint image
  uint8_t* data_ = nullptr;            // working state (traced)
  uint64_t data_size_ = 0;
  uint64_t journal_capacity_ = 0;  // slots
  uint64_t segment_size_ = 0;
  std::unique_ptr<PageTracer> tracer_;
  std::vector<uint64_t> scratch_pages_;
  BaselineStats stats_;
  bool fresh_ = false;
};

using PageCkptPolicy = HeapPolicy<PageCkpt>;

static_assert(PersistencePolicy<PageCkptPolicy>);

}  // namespace crpm
