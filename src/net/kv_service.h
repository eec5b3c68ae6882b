// KvService: the persistent heart of the crpm_kvd server.
//
// A PHashMap<u64, KvVal> layered (via the non-owning CrpmPolicy form) over
// a StateStore's Container + Heap in kCrpmDefault mode with async
// checkpointing — working state in NVM, stop-the-world *capture* decoupled
// from background *commit* (DESIGN §10), optionally with a snapshot
// archive as the second recovery level.
//
// Locking — the contract that makes checkpoints invisible to readers:
//
//   write_mu_ (plain mutex)    taken by every mutation AND by the capture
//                              phase of a checkpoint.
//   rw_mu_ (shared mutex)      readers shared, mutations unique.
//
// Mutations take write_mu_ then rw_mu_-unique; reads take rw_mu_-shared
// only; the capture takes write_mu_ only. So a capture excludes writers
// (its stop-the-world set is exactly the mutators) but GETs and SCANs keep
// flowing through it — capture snapshots dirty metadata and never touches
// node memory (phashmap.h's concurrency contract), and the background
// commit pipeline only reads the working state. That asymmetry is the
// whole point: checkpoint cost shows up as a bounded write stall, never as
// read-tail latency.
//
// Durability — group commit by epoch tag: every mutation returns a tag
// (the epoch the next capture will commit). The write is durable once
// committed_epoch() >= tag. Durable requests park their response on the
// tag and kick() the checkpoint thread; each *joined* commit then
// acknowledges the whole batch carrying that epoch. With the multi-window
// pipeline (max_inflight_epochs > 1) several captured-but-uncommitted
// windows can be in flight at once; the capture phase never waits for
// them — the container's commit callback fires per coordinated commit, in
// FIFO epoch order, and releases exactly the tags that commit covers.
// Captures are gated on a service-level dirty flag because an empty
// container checkpoint deliberately skips the epoch bump — tags are only
// ever handed out for epochs that will actually commit.
//
// Lazy recovery — time-to-first-query decoupled from restore time: with
// cfg.lazy_restore, a missing/unusable container file with a live archive
// is served through snapshot::LazyRestorer. The constructor returns after
// the archive *scan* (TTFQ ~ delta bytes read, not applied); GETs and
// SCANs run against a read-only PHashMap layered over the faulting image
// (chunks materialize on first access), while a background thread
// materializes the rest, builds the real container crash-atomically, and
// flips ready_. Mutations and checkpoint requests block on ready_ — the
// durability contract is unchanged, only reads get the early start.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "apps/state_store.h"
#include "baselines/crpm_policy.h"
#include "containers/phashmap.h"
#include "net/wire.h"

namespace crpm::scrub {
class Scrubber;
}  // namespace crpm::scrub

namespace crpm::net {

class KvService {
 public:
  struct Config {
    std::string dir;
    uint64_t capacity_bytes = 256ull << 20;
    uint64_t buckets = 1 << 16;      // initial; grows via max_load_factor
    double max_load_factor = 1.5;    // 0 = never rehash
    double interval_ms = 0;          // 0 = checkpoint only on kick/request
    uint32_t async_workers = 1;
    // Multi-window commit pipeline: number of capture windows that may be
    // in flight (captured but not yet committed) and the number of
    // per-shard epoch domains the coordinated commit joins. 1/1 keeps the
    // single-window behaviour.
    uint32_t max_inflight_epochs = 1;
    uint32_t commit_shards = 1;
    bool archive = false;
    uint32_t archive_compact_every = 0;
    bool archive_tier = false;       // tiered archive I/O (codec + group
                                     // commit + threaded writeback)
    // Serve reads from the archived image while the restore materializes
    // in the background (see the header comment). Only engages when the
    // container file is unusable and an archive exists; otherwise the
    // normal (blocking) recovery path runs.
    bool lazy_restore = false;
    // Worker threads for the archive-restore record apply (both the
    // blocking restore and the lazy background materialization); 0/1 =
    // serial. See CrpmOptions::restore_workers.
    uint32_t restore_workers = 0;
    // Online scrubber cadence in ms (0 = off): a SCHED_IDLE background
    // pass re-verifying archive frame CRCs and container metadata parity,
    // publishing scrub_* counters into the container's CrpmStats.
    uint32_t scrub_interval_ms = 0;
  };

  explicit KvService(const Config& cfg);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // --- data plane ---------------------------------------------------------

  bool get(uint64_t key, KvVal* out) const;

  // Insert-or-assign / erase. Return the durability tag of the mutation
  // (for del: 0 when the key was absent — nothing to persist). Durable once
  // committed_epoch() >= tag.
  uint64_t put(uint64_t key, const KvVal& v);
  uint64_t del(uint64_t key, bool* found);

  // Paged iteration from `cursor` (a bucket index; start at 0), delivering
  // at most `limit` entries to fn(key, value). Returns the next cursor;
  // done when it equals bucket_count(). Runs under the shared reader lock.
  uint64_t scan(uint64_t cursor, uint64_t limit,
                const std::function<void(uint64_t, const KvVal&)>& fn) const;

  uint64_t key_count() const;
  uint64_t bucket_count() const;

  // --- checkpoint plane ---------------------------------------------------

  uint64_t committed_epoch() const;

  // Requests an immediate checkpoint. Returns the tag that will satisfy
  // tag <= committed_epoch() once it lands; if nothing is dirty the
  // highest captured epoch is returned (everything handed out is either
  // already durable or riding an in-flight window that will commit).
  uint64_t request_checkpoint();

  // Wakes the checkpoint thread (after parking a durable response).
  void kick();

  // Invoked after every coordinated commit with the newly committed epoch,
  // in FIFO epoch order. Fires from a pipeline worker thread (or from the
  // checkpoint thread in cooperative mode), so the callback must be
  // thread-safe. At most one callback; installed before serving.
  void set_commit_callback(std::function<void(uint64_t)> cb);

  // Blocks until all handed-out tags have committed.
  void flush();

  // --- recovery plane -----------------------------------------------------

  // Milliseconds from construction until the service could answer its
  // first query. With lazy restore this covers only the archive scan and
  // plan; otherwise it covers the whole (possibly restoring) open.
  double ttfq_ms() const { return ttfq_ms_; }

  // True while a lazy restore is still materializing in the background:
  // reads are served from the archive image, mutations wait.
  bool restore_pending() const {
    return !ready_.load(std::memory_order_acquire);
  }

  // Blocks until the container is open (immediately true outside lazy
  // recovery).
  void wait_ready() const;

  // --- introspection ------------------------------------------------------

  std::string stats_text() const;
  bool recovered() const;
  // Reports kArchive for the whole lifetime of a lazily-recovered
  // service, even though the eventual container open (of the file the
  // background finish built) is a local one.
  RecoverySource last_recovery() const;
  StateStore& store();  // blocks on ready_ during a lazy restore

  // Name of the marker file recording which recovery level produced the
  // current state (written into cfg.dir at open; read by crpm_inspect kvd).
  static constexpr const char* kRecoveryMarker = "LAST_RECOVERY";

 private:
  using Map = PHashMap<uint64_t, KvVal, CrpmPolicy>;

  struct LazyState;  // LazyRestorer + read-only map over its image

  void ckpt_loop();
  // One capture + commit cycle; no-op when nothing is dirty.
  void capture_once();
  // Builds StateStore + policy + map and wires callbacks/scrubber (the
  // heavyweight part of construction; deferred to the background thread
  // during a lazy restore).
  void open_store();
  // Background completion of a lazy restore: materialize, build the
  // container file, open_store(), flip ready_.
  void finish_restore();
  void start_scrubber();
  void write_marker(const char* name);

  Config cfg_;
  std::unique_ptr<StateStore> store_;
  std::unique_ptr<CrpmPolicy> policy_;
  std::unique_ptr<Map> map_;

  std::unique_ptr<LazyState> lazy_;
  std::unique_ptr<scrub::Scrubber> scrubber_;
  // False only between a lazy constructor return and the background
  // finish. Readers sample it once per operation: a stale false routes
  // the read to the (immutable, still-mapped) archive image, which is
  // linearizable — the first post-restore mutation cannot have been acked
  // before that read began.
  std::atomic<bool> ready_{false};
  mutable std::mutex ready_mu_;
  mutable std::condition_variable ready_cv_;
  std::thread finish_thread_;
  double ttfq_ms_ = 0;

  mutable std::mutex write_mu_;         // writers + capture
  mutable std::shared_mutex rw_mu_;     // readers vs writers
  bool dirty_ = false;                  // guarded by write_mu_
  // Highest epoch handed out as a tag == highest epoch captured. May lead
  // committed_epoch() by up to max_inflight_epochs while windows are in
  // flight; every captured epoch is guaranteed to commit. Mutated only
  // under write_mu_; read lock-free by committed_epoch pollers.
  std::atomic<uint64_t> captured_epoch_{0};

  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool kicked_ = false;
  bool stop_ = false;

  std::mutex cb_mu_;
  std::function<void(uint64_t)> commit_cb_;

  std::thread ckpt_thread_;
};

}  // namespace crpm::net
