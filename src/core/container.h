// Containers: the libcrpm programming model (Sections 3.2–3.5).
//
// A container is a named persistent region holding the application's program
// state. Opening it maps the latest checkpoint state; crpm_checkpoint()
// atomically promotes the current working state to the new checkpoint state.
//
// Two modes:
//   * DefaultContainer — the working state lives directly in the NVM main
//     region; segment-level copy-on-write protects the checkpoint state
//     (Section 3.4, "libcrpm-Default").
//   * BufferedContainer — the working state lives in DRAM; each checkpoint
//     replicates two generations of dirty blocks into the main or backup
//     region by epoch parity (Section 3.5, "libcrpm-Buffered").
//
// The application contract: before any store to container memory, call
// annotate(addr, len). The paper's LLVM pass inserts those calls
// automatically; in this reproduction the provided persistent containers
// (crpm::pmap, crpm::punordered_map, ...) and the crpm::p<T> wrapper place
// them, and array codes call annotate() on whole arrays per iteration.
//
// Container is the "foca" Engine (core/engine.h): engines::open_engine()
// returns it as is. Its overrides of capacity(), committed_epoch(),
// fresh() and the root accessors are `final`, so calls through a
// Container& bind directly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/async_commit.h"
#include "core/crpm_stats.h"
#include "core/dirty_tracker.h"
#include "core/engine.h"
#include "core/epoch_sink.h"
#include "core/layout.h"
#include "core/options.h"
#include "nvm/device.h"
#include "util/sync.h"

namespace crpm {

class Container : public Engine {
 public:
  // Recover to the most recent committed epoch.
  static constexpr uint64_t kLatestEpoch = ~uint64_t{0};

  // Opens (recovering) or creates (formatting) a container on `dev`.
  // The non-owning overload is used by tests that keep driving the device
  // (e.g. CrashSimDevice) across simulated restarts.
  //
  // `target_epoch` selects which checkpoint state to recover (Section 3.6):
  // kLatestEpoch recovers the newest commit; committed_epoch - 1 rolls back
  // one epoch using the container's retained history (requires
  // retains_previous_epoch()). Any other value aborts. Rollback must be
  // decided at open time — recovery itself (the backup-refresh of Figure 6,
  // line 50) destroys the older epoch.
  static std::unique_ptr<Container> open(NvmDevice* dev,
                                         const CrpmOptions& opt,
                                         uint64_t target_epoch = kLatestEpoch);
  static std::unique_ptr<Container> open(std::unique_ptr<NvmDevice> dev,
                                         const CrpmOptions& opt,
                                         uint64_t target_epoch = kLatestEpoch);

  // Convenience: file-backed container at `path`.
  static std::unique_ptr<Container> open_file(const std::string& path,
                                              const CrpmOptions& opt);

  // Reads the committed epoch from an unopened (formatted) device without
  // triggering recovery; returns kLatestEpoch if the device holds no
  // initialized container. Used by coordinated recovery to agree on a
  // global epoch before any rank recovers.
  static uint64_t peek_committed_epoch(NvmDevice* dev);

  // Bytes a device must provide for these options.
  static uint64_t required_device_size(const CrpmOptions& opt);

  const char* name() const override { return "foca"; }

  // --- working-state access -------------------------------------------

  // Base of the working state (main region, or the DRAM buffer in buffered
  // mode). All application objects live inside [data(), data()+capacity()).
  uint8_t* data() override = 0;
  uint64_t capacity() const final { return geo_.main_region_size(); }

  // Instrumentation hook: marks [addr, addr+len) about to be modified.
  // MUST be called before every store into the working state.
  void annotate(const void* addr, size_t len) override = 0;

  // Collective checkpoint: every registered thread (options().thread_count)
  // calls this; the call returns on all threads once the new checkpoint
  // state is committed (Figure 6, crpm_checkpoint). With
  // options().async_checkpoint the call returns once the stop-the-world
  // *capture* phase ends — the commit happens in the background, and
  // wait_committed() completes the synchronous contract.
  void checkpoint() override = 0;

  // Blocks until no captured epoch is awaiting its background commit.
  // No-op on synchronous containers. In cooperative async mode
  // (async_workers == 0) the calling thread runs the commit pipeline
  // inline.
  void wait_committed() override {}

  // True while a captured epoch's background commit is still in flight.
  virtual bool checkpoint_pending() const { return false; }

  bool contains(const void* addr, size_t len) {
    auto a = reinterpret_cast<uintptr_t>(addr);
    auto b = reinterpret_cast<uintptr_t>(data());
    return a >= b && a + len <= b + capacity();
  }

  // --- offsets and roots ------------------------------------------------

  // Offset 0 is occupied by heap bookkeeping, so 0 doubles as "null".
  uint64_t to_offset(const void* p) {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p) - data());
  }
  void* from_offset(uint64_t off) { return data() + off; }

  // Root pointer array (Section 3.2): named offsets for retrieving objects
  // after a restart. Root updates are epoch-consistent: like all working
  // state they become durable at the next crpm_checkpoint() and roll back
  // together with the data they reference (the persistent array is
  // double-buffered alongside seg_state).
  void set_root(uint32_t slot, uint64_t off) final;
  uint64_t get_root(uint32_t slot) const final;

  // --- introspection -----------------------------------------------------

  // The committed epoch, read from a DRAM mirror of the persistent
  // counter: in async mode the background pipeline bumps the NVM word
  // concurrently with application threads, so readers must not touch it
  // directly. The mirror is updated with release ordering at every commit
  // (and at open/renumber); it always trails or equals the NVM value.
  uint64_t committed_epoch() const final {
    return dram_committed_.load(std::memory_order_acquire);
  }
  // True if open() formatted a fresh container (no prior state existed).
  bool fresh() const final { return fresh_; }

  // Every segment is protected the same way, one backup copy per epoch,
  // so all segments report under the COW strategy; the CoW copy traffic
  // is accounted in checkpoint_bytes.
  EngineCounters counters() const override;

  // Relabels the committed epoch without touching any data — used by
  // snapshot::restore(), which rebuilds an archived epoch's state into a
  // fresh container whose epoch counter restarts, while the archive (and,
  // after a peer-pull recovery, the surviving ranks) continue from the
  // archived epoch. The new number must not move
  // backwards and must preserve the epoch's residue mod the metadata
  // replica count: active_index() (which persistent roots/seg_state copy
  // is live) is committed_epoch % replicas, so any other jump would
  // silently switch to a stale copy. Call between epochs only.
  void renumber_epoch(uint64_t epoch);

  // True if the container still holds epoch e-1 right after committing
  // epoch e, i.e. rollback_one_epoch() is usable for coordinated recovery.
  // Buffered containers always do; default containers only with eager
  // copy-on-write disabled (eager CoW overwrites the backup copy of the
  // previous epoch during the checkpoint itself) and async checkpointing
  // off (the pipeline's finalize stage rebuilds stolen segments' backups
  // from the new epoch's image right after the commit).
  virtual bool retains_previous_epoch() const {
    return opt_.eager_cow_segments == 0 && !opt_.async_checkpoint;
  }

  // Installs (or clears, with nullptr) the post-commit delta observer. The
  // sink is borrowed, not owned; it must outlive the container or be
  // detached before destruction. Called between epochs (not concurrently
  // with checkpoint()).
  void set_epoch_sink(EpochSink* sink) { epoch_sink_ = sink; }
  EpochSink* epoch_sink() const { return epoch_sink_; }

  // Installs (or clears, with nullptr) a commit observer, invoked with the
  // new committed epoch after every durable commit — from the committing
  // thread in sync mode, from a pipeline worker at each joined commit in
  // async worker mode. Lets group-commit clients (src/net) release parked
  // durable responses per commit instead of serializing captures on
  // wait_committed(). Install between epochs; the callback must be
  // thread-safe and must not call back into the container.
  void set_commit_callback(std::function<void(uint64_t)> cb);

  const Geometry& geometry() const { return geo_; }
  const CrpmOptions& options() const { return opt_; }
  NvmDevice* device() { return dev_; }
  CrpmStats& stats() { return stats_; }
  DirtyTracker& tracker() { return *tracker_; }

  // Storage accounting (Section 5.6).
  uint64_t nvm_bytes() const { return geo_.device_size(); }
  uint64_t metadata_bytes() const { return geo_.metadata_size(); }
  virtual uint64_t dram_bytes() const;

  // Recovery-time breakdown of the open that constructed this container
  // (Section 5.5): region synchronization, then (buffered mode) the copy
  // of the main region into DRAM.
  uint64_t recovery_sync_ns() const { return recovery_sync_ns_; }
  uint64_t recovery_load_ns() const { return recovery_load_ns_; }

 protected:
  Container(NvmDevice* dev, std::unique_ptr<NvmDevice> owned,
            const CrpmOptions& opt, uint64_t target_epoch);

  // Formats if pristine, otherwise validates and runs the shared recovery
  // phase (region sync). Called by subclass constructors.
  void open_or_format();

  // Region-sync recovery (Section 3.4.3 / Figure 6 crpm_recovery): restores
  // the invariant main == checkpoint and backup == main for paired segments.
  void region_sync();

  // Rebuilds main_to_backup / free backup list from NVM metadata.
  void rebuild_backup_index();

  int active_index() const {
    return static_cast<int>(committed_epoch() % geo_.meta_replicas());
  }

  // Allocates (or recycles, Section 3.3) a backup segment and durably pairs
  // it with `main_seg`. The pairing is flushed but not fenced; callers fence
  // before depending on it. Aborts if the backup region is exhausted.
  uint32_t alloc_backup(uint64_t main_seg);

  // Writes the working root array into the inactive persistent copy and
  // flushes it (fenced by the caller's pre-commit fence). Leader-only,
  // inside the checkpoint.
  void stage_roots_for_commit();

  // Delivers the delta of the epoch being committed to the attached sink
  // (no-op without one). Leader-only, inside the stop-the-world checkpoint
  // once the epoch's dirty set and values are final — deliberately *before*
  // the flush phase and commit point, so the payload copy reads cache-warm
  // data and the background writer overlaps the remaining checkpoint work.
  // If a crash hits between staging and the commit point the archive ends
  // ahead of the container — up to max_inflight_epochs frames ahead with
  // the multi-window pipeline; ArchiveWriter reconciles (truncates) such
  // never-committed frames when it attaches. `epoch` is the epoch
  // being committed, `data` the base of its working state, `blocks` the
  // modified block indices.
  void notify_epoch_sink(uint64_t epoch, const uint8_t* data,
                         std::vector<uint64_t> blocks);

  // Fires the commit callback (if any) for a freshly durable epoch. Safe
  // from any committing thread; takes a copy of the callback under the
  // lock so set_commit_callback(nullptr) can race a commit.
  void notify_commit(uint64_t epoch);

  NvmDevice* dev_;
  std::unique_ptr<NvmDevice> owned_dev_;
  CrpmOptions opt_;
  Geometry geo_;
  Layout layout_;
  CrpmStats stats_;
  std::unique_ptr<DirtyTracker> tracker_;
  std::unique_ptr<SpinBarrier> barrier_;
  uint64_t target_epoch_ = kLatestEpoch;
  // DRAM mirror of header()->committed_epoch; see committed_epoch().
  std::atomic<uint64_t> dram_committed_{0};
  uint64_t recovery_sync_ns_ = 0;
  uint64_t recovery_load_ns_ = 0;
  bool fresh_ = false;
  // Planted faults armed when this container was opened (core/faults.h).
  const uint32_t faults_;

  // DRAM index over backup_to_main.
  SpinLock alloc_lock_;
  std::vector<uint32_t> main_to_backup_;
  std::vector<uint32_t> free_backups_;
  uint64_t steal_cursor_ = 0;

  // Working copy of the root array; committed with the epoch.
  std::array<uint64_t, kNumRoots> roots_work_{};
  bool roots_dirty_ = false;

  EpochSink* epoch_sink_ = nullptr;

  // Commit observer; see set_commit_callback().
  std::mutex commit_cb_mu_;
  std::function<void(uint64_t)> commit_cb_;
};

// Section 3.4: working state in NVM, segment-level copy-on-write.
class DefaultContainer final : public Container {
 public:
  DefaultContainer(NvmDevice* dev, std::unique_ptr<NvmDevice> owned,
                   const CrpmOptions& opt,
                   uint64_t target_epoch = kLatestEpoch);
  // With async workers, drains the in-flight window before tearing down.
  // In cooperative async mode an unserviced window is *discarded* — the
  // captured epoch never commits, exactly as if the process had crashed
  // after capture (the crash harness relies on this; call wait_committed()
  // first for a clean shutdown).
  ~DefaultContainer() override;

  uint8_t* data() override { return layout_.main_base(); }
  void annotate(const void* addr, size_t len) override;
  void checkpoint() override;
  void wait_committed() override;
  bool checkpoint_pending() const override {
    for (const auto& w : windows_) {
      if (w->open.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

 private:
  friend class AsyncCommitPipeline;

  // Copy-on-write of main segment `seg` (Figure 6, copy_on_write).
  void copy_on_write(uint64_t seg);

  // Batched CoW of all dirty segments inside the checkpoint (Section 3.4.2,
  // last paragraph): one fence for all copies, one for all state flips.
  void eager_cow(const std::vector<uint64_t>& segs);

  // Async mode (see async_commit.h): the stop-the-world capture phase and
  // the pipeline stages it leaves behind.
  void checkpoint_async();
  // Write-hook cooperation: first post-capture write to a captured segment
  // flushes its blocks and snapshots its capture-epoch image into window
  // `w`. Called with the segment's lock held.
  void steal_captured(AsyncWindow& w, uint64_t seg);
  // Runs window `epoch`'s pipeline stages (sharded flush, shard-local
  // commit, FIFO join, commit, finalize); work-shared by `participants`
  // callers (each calls exactly once per window).
  void async_service_window_epoch(uint64_t epoch, uint32_t participants);
  // Oldest epoch with an open window, or 0 if none. Cooperative-mode
  // scheduling helper; single-threaded use only.
  uint64_t async_oldest_open_epoch() const;
  // Post-commit: rebuild a stolen segment's backup from window `w`'s
  // capture-time image and flip it to SS_Backup — in the committed replica
  // and in any newer open window's staged replica that has not re-captured
  // the segment. Segment lock held; windows_mu_ held.
  void finalize_stolen(AsyncWindow& w, uint64_t seg,
                       const std::vector<uint64_t>& blocks);
  // Ring slot of epoch e (epochs start at 1, slot 0 unused until wrap).
  AsyncWindow& window_of(uint64_t epoch) {
    return *windows_[epoch % windows_.size()];
  }

  // Shared checkpoint-phase state distributed over collective threads.
  std::vector<uint64_t> ckpt_segs_;
  std::atomic<size_t> ckpt_cursor_{0};
  std::atomic<uint64_t> ckpt_flushed_bytes_{0};
  bool ckpt_use_wbinvd_ = false;
  bool ckpt_skip_ = false;

  // Multi-window async state. windows_ is a ring of max_inflight_epochs
  // slots; capture of epoch E reuses slot E % K after backpressure has
  // drained its previous occupant. windows_mu_ orders capture's staging
  // memcpy against finalize's flip propagation (it is INNER to the
  // per-segment tracker locks: never take a segment lock while holding it).
  std::vector<std::unique_ptr<AsyncWindow>> windows_;
  std::mutex windows_mu_;
  uint64_t last_captured_epoch_ = 0;
  // Per-shard durable-progress mirrors and persist locks ("shard.commit").
  // The mirror only ever rises; the lock serializes the read-check-persist
  // so a late finisher of an old window cannot clobber a newer record.
  std::unique_ptr<std::atomic<uint64_t>[]> shard_progress_;
  std::vector<std::unique_ptr<SpinLock>> shard_locks_;
  // Declared last: destroyed first, so workers stop before the state they
  // touch goes away.
  std::unique_ptr<AsyncCommitPipeline> pipeline_;
};

// Section 3.5: working state in DRAM, parity-alternating differential
// replication at checkpoint time.
class BufferedContainer final : public Container {
 public:
  BufferedContainer(NvmDevice* dev, std::unique_ptr<NvmDevice> owned,
                    const CrpmOptions& opt,
                    uint64_t target_epoch = kLatestEpoch);

  uint8_t* data() override { return buf_; }
  void annotate(const void* addr, size_t len) override;
  void checkpoint() override;

  uint64_t dram_bytes() const override;
  bool retains_previous_epoch() const override { return true; }

 private:
  // True when the checkpoint of epoch `e` targets the main region.
  static bool targets_main(uint64_t e) { return (e & 1) == 0; }

  void load_dram_from_main();

  std::vector<uint8_t> buf_storage_;
  uint8_t* buf_ = nullptr;

  // Two generations of dirty block bitmaps: blocks modified during the
  // current epoch and during the previous epoch ("modified during epochs
  // e-1 or e", Section 3.5).
  AtomicBitmap cur_dirty_;
  AtomicBitmap prev_dirty_;

  // Checkpoint-phase shared state.
  std::vector<uint64_t> ckpt_segs_;
  std::vector<uint8_t> ckpt_full_copy_;  // per-entry: fresh pairing => full
  std::atomic<size_t> ckpt_cursor_{0};
  bool ckpt_skip_ = false;
};

}  // namespace crpm
