// Background archive writer: EpochSink implementation.
//
// The committing leader hands each epoch's delta to on_epoch_commit() at
// the start of the checkpoint, which only records the delta (block list +
// a pointer into the container's working state — no copy) on a bounded
// queue. A dedicated *stager* thread copies the block payloads into DRAM
// concurrently with the checkpoint's flush phase; the leader blocks in
// wait_captured() just before releasing the application threads, so on a
// machine with a spare core the staging copy is fully hidden inside the
// stop-the-world window the checkpoint already pays. A second, writer
// thread serializes staged frames, appends them to the archive file and
// makes them durable, overlapped with the application's next compute
// phase — staging and file I/O are separate threads so an fsync or a
// compaction in progress never delays the next epoch's capture.  When the
// queue is full the committing thread blocks (backpressure) and the stall
// is accounted in CrpmStats.
//
// Tiering (src/tier, SnapshotOptions::tier): the writer thread serializes
// each staged frame, negotiates the configured codec per frame (keeping
// the plain frame when coding does not win), and accumulates frames into
// a group-commit batch — one device write + one fdatasync per batch, cut
// when the batch reaches group_epochs/group_bytes or the oldest pending
// frame has waited flush_deadline_us (bounded durability latency).
// Batches are handed to a writeback engine (sync inline, worker-pool
// pwritev, or io_uring) as a bounded ring of in-flight jobs, so the
// SCHED_IDLE writer thread keeps serializing while the device works;
// completions are reaped in submission order, and a frame's stats and
// FrameObserver fire only after its batch is durable.
//
// Compaction: after `compact_every` delta frames the writer folds its
// running shadow image into a full base snapshot, written to a fresh file
// that atomically replaces the archive (write + fsync + rename), and the
// delta chain restarts from that base. With the cold tier enabled, the
// fold state is first stored as a codec-compressed base frame under
// `<archive>.cold/` (tmp + fsync + rename), so epochs the fold retires
// stay restorable — and optionally ships to a replica via the cold
// observer.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/container.h"
#include "core/epoch_sink.h"
#include "snapshot/format.h"
#include "tier/options.h"
#include "tier/writeback.h"

namespace crpm::snapshot {

struct SnapshotOptions {
  // Fold the chain into a base frame after this many deltas (0 = never).
  uint32_t compact_every = 0;
  // Staged epochs buffered before on_epoch_commit() blocks.
  uint32_t queue_depth = 8;
  // fdatasync after each appended batch (a batch is one frame unless
  // tier.group_epochs raises it). Off, durability of archived epochs lags
  // the OS page cache. Honored on every durability point — frame batches,
  // the fresh-archive header, and the attach-reconciliation truncate.
  bool fsync_each_epoch = true;
  // Codec / group commit / writeback / cold tier (src/tier).
  tier::TierOptions tier;
};

struct ArchiveWriterStats {
  uint64_t epochs_appended = 0;  // frames durably written (delta + base)
  uint64_t base_frames = 0;
  uint64_t bytes_appended = 0;   // on-disk bytes (post-codec)
  uint64_t raw_bytes = 0;        // plain-frame equivalent bytes
  uint64_t coded_frames = 0;     // frames that won codec negotiation
  uint64_t blocks_appended = 0;
  uint64_t batches = 0;          // group-commit device writes
  uint64_t queue_hwm = 0;
  uint64_t stall_ns = 0;     // producer time blocked on a full queue
  uint64_t fsyncs = 0;       // one per synced batch
  uint64_t compactions = 0;
  uint64_t cold_bases = 0;   // cold-tier bases stored
  uint64_t dropped_epochs = 0;  // divergent/failed epochs not archived
};

class ArchiveWriter final : public EpochSink {
 public:
  explicit ArchiveWriter(std::string path, SnapshotOptions sopt = {});
  ~ArchiveWriter() override;  // drains the queue, then stops the thread

  // Registers this writer as the container's epoch sink and binds the
  // container's CrpmStats / device stats / cost model for accounting. Must
  // be called between epochs. The writer must be detached
  // (container.set_epoch_sink(nullptr)) or outlive the container.
  void attach(Container& c);

  void on_epoch_commit(EpochDelta&& delta) override;
  void wait_captured() override;

  // Blocks until every staged epoch is on disk (and fsynced, if enabled):
  // forces a group-commit flush of any partial batch and waits out the
  // writeback ring.
  void drain();

  uint64_t last_epoch() const {
    return last_epoch_.load(std::memory_order_acquire);
  }
  bool failed() const { return dead_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }
  const SnapshotOptions& options() const { return sopt_; }
  // The writeback engine actually in use ("sync", "threads", "uring").
  const char* writeback_name() const { return engine_->name(); }
  ArchiveWriterStats writer_stats() const;

  // Test hook (crash simulation): allow only `budget` more bytes to reach
  // the file, then stop writing mid-stream — as a process kill during an
  // append would. Subsequent epochs are dropped and counted.
  void kill_after_bytes(uint64_t budget);

  // Invoked on the writer thread after each epoch frame is durably
  // appended, with the exact on-disk frame bytes — coded frames are
  // observed encoded, so the replication feed carries the small form and
  // a replicated frame is never ahead of local durability. Frames of one
  // batch are observed in epoch order once the batch completes.
  // Compaction rewrites are not observed: they fold already-observed
  // epochs. Set before frames flow (or between epochs); clear with {}
  // before destroying the observer's owner.
  using FrameObserver = std::function<void(
      uint64_t epoch, uint32_t kind, const uint8_t* frame, size_t len)>;
  void set_frame_observer(FrameObserver obs);

  // Invoked on the writer thread after a cold-tier base is durably stored
  // (rename complete), with the cold file's frame bytes — the optional
  // cold-shipping feed (e.g. repl::ReplicaStore::store_cold).
  using ColdObserver = std::function<void(uint64_t epoch,
                                          const uint8_t* frame, size_t len)>;
  void set_cold_observer(ColdObserver obs);

  // Test hook (crash matrix): invoked on the writer thread before every
  // archive persistence event with a site tag and the byte count:
  //   "tier.encode"     per frame, before codec negotiation (codec != none)
  //   "archive.frame"   per batch, before the device write
  //   "archive.fsync"   per batch, before the batch fdatasync
  //   "tier.complete"   per batch, when its completion is reaped (the
  //                     write is durable; observers/stats have not fired)
  //   "tier.cold"       per cold-tier write (header, frame)
  //   "archive.compact" per compaction-fold write
  // Returning false simulates a process kill at that event: the op is
  // skipped and the writer goes dead exactly like kill_after_bytes
  // exhaustion. While a hook is installed the writer reaps writeback
  // completions only at deterministic points (ring full, compaction,
  // drain), so both crash-matrix passes see the same op sequence.
  // Install after attach() (header/reconciliation I/O is excluded so both
  // matrix passes see the same op sequence); clear with {} before
  // destroying state the hook captures.
  using FileOpHook = std::function<bool(const char* site, uint64_t bytes)>;
  void set_file_op_hook(FileOpHook hook);

 private:
  struct PendingFrame {
    // Staging lifecycle, guarded by mu_: enqueued kUnstaged, claimed
    // (kStaging) by the stager thread while it copies the payload with mu_
    // released, then kStaged and eligible for writing.
    enum State : uint8_t { kUnstaged, kStaging, kStaged };
    State state = kStaged;
    uint32_t kind = kDeltaFrame;
    uint64_t epoch = 0;
    std::array<uint64_t, kNumRoots> roots{};
    // Working-state pointer the payload is staged from; non-null until the
    // frame is staged. Valid until wait_captured() returns.
    const uint8_t* src = nullptr;
    std::vector<uint64_t> blocks;  // delta: set at enqueue; base: at staging
    std::vector<uint8_t> payload;  // blocks.size() * block_size bytes
  };

  // One group-commit batch: frames serialized (and codec-negotiated) into
  // per-frame on-disk buffers, written with a single engine job. Owned by
  // the writer thread; inflight_ membership guarded by mu_.
  struct Batch {
    std::vector<PendingFrame> frames;
    std::vector<std::vector<uint8_t>> bufs;  // on-disk bytes per frame
    std::vector<uint32_t> disk_kinds;        // plain or coded kind written
    std::vector<uint64_t> raw_lens;          // plain serialized size
    uint64_t bytes = 0;
    uint64_t ticket = 0;
    bool synced = false;
    // Clamped by the write budget or vetoed by the hook: the device may
    // hold a torn prefix; nothing in this batch counts as appended.
    bool torn = false;
  };

  // Opens/validates/truncates the archive file; sets last_epoch_ from the
  // newest intact on-disk epoch. Frames with epochs beyond `max_epoch` are
  // truncated — deltas are staged before the commit point, so a crash in
  // between (or a rollback recovery) can leave the archive ahead of the
  // container's committed timeline, by up to max_inflight_epochs frames
  // with the multi-window commit pipeline; pass ~0 for no reconciliation.
  // Idempotent; runs on first use.
  void init_file(uint64_t block_size, uint64_t region_size,
                 uint64_t segment_size, uint64_t max_epoch);

  void worker();
  // Lift the writer out of SCHED_IDLE when it falls behind: on a
  // saturated machine the idle class may not be scheduled for tens of
  // milliseconds, the queue hits its cliff, and the producer then stalls
  // inside the capture window — client-visible tail latency. Triggered at
  // a quarter of the queue depth (early enough that the backlog the
  // promoted writer then drains stays small) and on any blocked producer;
  // the worker demotes itself back once caught up.
  void boost_writer();
  // Stager thread: claims enqueued frames oldest-first and stages them.
  // Dedicated so staging latency is wakeup + copy, never queued behind the
  // writer's file I/O (an fsync or a region-proportional compaction would
  // otherwise stretch the committing leader's wait_captured()).
  void stager();
  // Copies a frame's payload out of the container's working state (delta),
  // or gathers the non-zero blocks of the whole region (base). Runs on the
  // stager thread, overlapped with the checkpoint's flush phase.
  void stage(PendingFrame& f);
  // Oldest frame still kUnstaged, nullptr if none; mu_ must be held.
  PendingFrame* find_unstaged();
  // True when the queue front exists and is staged; mu_ must be held.
  bool front_staged() const {
    return !queue_.empty() && queue_.front().state == PendingFrame::kStaged;
  }
  // Serializes, codec-negotiates and submits `b` to the writeback engine.
  // Runs with mu_ released.
  void submit_batch(Batch& b);
  // Durable-completion processing for the oldest batch: stats, observer,
  // shadow/compaction bookkeeping. Runs with mu_ released.
  void finish_batch(Batch& b, bool io_ok);
  // Pops the oldest inflight batch, waits out its ticket (mu_ released),
  // finishes it and recycles its frames.
  void reap_one(std::unique_lock<std::mutex>& lk);
  // Reaps inflight batches; `all` waits for every ticket, otherwise only
  // already-done ones are processed. Re-acquires `lk` before returning.
  void reap_inflight(std::unique_lock<std::mutex>& lk, bool all);
  // Completion reaping outside forced points is suppressed while a
  // file-op hook is installed (crash-matrix determinism).
  bool opportunistic_reap_allowed();
  void compact(uint64_t epoch, const std::array<uint64_t, kNumRoots>& roots);
  // Cold-tier store of the shadow image at the fold point; best effort
  // (a failed/vetoed store aborts the fold and keeps the delta chain).
  bool store_cold_base(uint64_t epoch,
                       const std::array<uint64_t, kNumRoots>& roots);
  // write() honoring the kill_after_bytes budget; flips dead_ on short
  // writes or I/O errors. Used by the compaction/cold paths (batch appends
  // go through the writeback engine).
  bool raw_write(int fd, const void* buf, size_t len);
  // Consults file_op_hook_; false means the op was vetoed (writer is dead).
  bool file_op_allowed(const char* site, uint64_t bytes);
  void charge_io(uint64_t bytes, bool fsynced);

  std::string path_;
  SnapshotOptions sopt_;
  int fd_ = -1;
  bool inited_ = false;
  uint64_t block_size_ = 0;
  uint64_t region_size_ = 0;
  uint64_t segment_size_ = 0;  // informational, preserved across compaction
  uint64_t append_off_ = 0;    // next batch's file offset (writer thread)

  // Bound accounting targets (optional).
  CrpmStats* crpm_stats_ = nullptr;
  NvmDevice* dev_ = nullptr;

  // Producer/consumer state.
  mutable std::mutex mu_;
  std::condition_variable cv_space_;       // producer waits: queue full
  std::condition_variable cv_work_;        // worker waits: nothing to do
  std::condition_variable cv_stage_work_;  // stager waits: nothing to stage
  std::condition_variable cv_staged_;  // wait_captured(): frames unstaged
  std::condition_variable cv_idle_;    // drain() waits: all written
  // Appended at the back by the producer, popped from the front for
  // writing once staged. Staging mutates a frame in place with mu_
  // released; deque references stay valid across the producer's push_back
  // and the worker's pop_front of other elements.
  std::deque<PendingFrame> queue_;
  // Submitted group-commit batches not yet reaped, oldest first. Contents
  // are writer-thread-only; membership/size guarded by mu_.
  std::deque<Batch> inflight_;
  size_t unstaged_ = 0;  // frames not yet kStaged
  // Leaders inside wait_captured(); while non-zero the stager leaves
  // unstaged frames to them (a claim it gets preempted on would pin the
  // stopped leader to the stager's next CPU slice).
  size_t capture_waiters_ = 0;
  // Retired frames recycled to the producer: staging reuses their buffer
  // capacity, keeping allocation and page faults off the commit path.
  std::vector<PendingFrame> pool_;
  bool busy_ = false;       // worker holds popped frames / an open batch
  bool flush_now_ = false;  // drain() wants partial batches flushed
  bool stop_ = false;
  std::thread thread_;
  std::thread stage_thread_;

  // Guarded by obs_mu_ (writer thread reads, any thread sets).
  std::mutex obs_mu_;
  FrameObserver observer_;
  ColdObserver cold_observer_;
  FileOpHook file_op_hook_;
  // Site tag for raw_write (worker thread only; compaction/cold override).
  const char* io_site_ = "archive.frame";

  std::atomic<uint64_t> last_epoch_{0};
  std::atomic<int> boost_level_{0};   // 0 idle-class, 1 promoted
  std::atomic<pid_t> writer_tid_{0};  // for nice-level boosts
  std::atomic<bool> dead_{false};
  std::atomic<uint64_t> write_budget_{~uint64_t{0}};
  bool warned_divergence_ = false;

  // Compaction state (worker thread only).
  std::vector<uint8_t> shadow_;  // running image; empty unless compacting
  uint64_t shadow_epoch_ = 0;    // newest epoch folded into shadow_
  std::array<uint64_t, kNumRoots> shadow_roots_{};
  uint32_t deltas_since_base_ = 0;
  bool compact_pending_ = false;

  // Stats (atomics: producer and worker both update).
  std::atomic<uint64_t> st_epochs_{0};
  std::atomic<uint64_t> st_bases_{0};
  std::atomic<uint64_t> st_bytes_{0};
  std::atomic<uint64_t> st_raw_bytes_{0};
  std::atomic<uint64_t> st_coded_{0};
  std::atomic<uint64_t> st_blocks_{0};
  std::atomic<uint64_t> st_batches_{0};
  std::atomic<uint64_t> st_qhwm_{0};
  std::atomic<uint64_t> st_stall_ns_{0};
  std::atomic<uint64_t> st_fsyncs_{0};
  std::atomic<uint64_t> st_compactions_{0};
  std::atomic<uint64_t> st_cold_{0};
  std::atomic<uint64_t> st_dropped_{0};

  // Declared last so engine threads (whose completion signal touches
  // cv_work_) are joined before any other member destructs.
  std::unique_ptr<tier::WritebackEngine> engine_;
};

}  // namespace crpm::snapshot
