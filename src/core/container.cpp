#include "core/container.h"

#include <cstring>
#include <ctime>
#include <mutex>

#include "core/faults.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm {

// ---------------------------------------------------------------------------
// Container (shared machinery)
// ---------------------------------------------------------------------------

Container::Container(NvmDevice* dev, std::unique_ptr<NvmDevice> owned,
                     const CrpmOptions& opt, uint64_t target_epoch)
    : dev_(dev), owned_dev_(std::move(owned)), opt_(opt.validated()),
      geo_(opt_), layout_(dev_, geo_), target_epoch_(target_epoch),
      faults_(armed_faults()) {
  CRPM_CHECK(dev_->size() >= geo_.device_size(),
             "device too small: have %zu need %llu", dev_->size(),
             (unsigned long long)geo_.device_size());
  tracker_ = std::make_unique<DirtyTracker>(geo_);
  barrier_ = std::make_unique<SpinBarrier>(opt_.thread_count);
  main_to_backup_.assign(geo_.nr_main_segs(), kNoPair);
}

uint64_t Container::required_device_size(const CrpmOptions& opt) {
  return Geometry(opt.validated()).device_size();
}

void Container::open_or_format() {
  MetaHeader* h = layout_.header();
  if (h->magic != kMetaMagic || h->initialized == 0) {
    PersistSiteScope site("format");
    layout_.format(opt_);
    dram_committed_.store(0, std::memory_order_release);
    fresh_ = true;
  } else {
    layout_.check_header(opt_);
    fresh_ = false;
    // Epoch selection (Section 3.6) must precede region sync: the backup
    // refresh below overwrites the retained previous-epoch data.
    if (target_epoch_ != kLatestEpoch &&
        target_epoch_ != h->committed_epoch) {
      CRPM_CHECK(target_epoch_ + 1 == h->committed_epoch,
                 "cannot recover epoch %llu: container holds %llu and one "
                 "epoch of history at most",
                 (unsigned long long)target_epoch_,
                 (unsigned long long)h->committed_epoch);
      CRPM_CHECK(retains_previous_epoch(),
                 "previous epoch not retained: use buffered mode or set "
                 "eager_cow_segments = 0 for coordinated checkpoints");
      h->committed_epoch -= 1;
      PersistSiteScope site("recovery.rollback");
      dev_->persist(&h->committed_epoch, sizeof(uint64_t));
    }
    // Seed the DRAM mirror before anything reads active_index().
    dram_committed_.store(h->committed_epoch, std::memory_order_release);
    Stopwatch sw;
    region_sync();
    recovery_sync_ns_ = sw.elapsed_ns();
  }
  rebuild_backup_index();
  // Load the committed root array into the working copy.
  const uint64_t* committed_roots = layout_.roots(active_index());
  std::copy(committed_roots, committed_roots + kNumRoots,
            roots_work_.begin());
  roots_dirty_ = false;
}

void Container::renumber_epoch(uint64_t epoch) {
  MetaHeader* h = layout_.header();
  CRPM_CHECK(epoch >= h->committed_epoch,
             "renumber_epoch(%llu) would move epoch %llu backwards",
             (unsigned long long)epoch,
             (unsigned long long)h->committed_epoch);
  CRPM_CHECK((epoch - h->committed_epoch) % geo_.meta_replicas() == 0,
             "renumber_epoch(%llu) changes the metadata-replica residue of "
             "epoch %llu (replicas=%u)",
             (unsigned long long)epoch,
             (unsigned long long)h->committed_epoch, geo_.meta_replicas());
  if (epoch == h->committed_epoch) return;
  h->committed_epoch = epoch;
  PersistSiteScope site("commit.renumber");
  dev_->persist(&h->committed_epoch, sizeof(uint64_t));
  dram_committed_.store(epoch, std::memory_order_release);
}

uint64_t Container::peek_committed_epoch(NvmDevice* dev) {
  if (dev->size() < sizeof(MetaHeader)) return kLatestEpoch;
  const auto* h = reinterpret_cast<const MetaHeader*>(dev->base());
  if (h->magic != kMetaMagic || h->initialized == 0) return kLatestEpoch;
  return h->committed_epoch;
}

void Container::rebuild_backup_index() {
  main_to_backup_.assign(geo_.nr_main_segs(), kNoPair);
  free_backups_.clear();
  const uint32_t* b2m = layout_.backup_to_main();
  for (uint64_t b = 0; b < geo_.nr_backup_segs(); ++b) {
    uint32_t m = b2m[b];
    if (m == kNoPair) {
      free_backups_.push_back(static_cast<uint32_t>(b));
      continue;
    }
    CRPM_CHECK(m < geo_.nr_main_segs(), "corrupt pairing: backup %llu -> %u",
               (unsigned long long)b, m);
    CRPM_CHECK(main_to_backup_[m] == kNoPair,
               "duplicate pairing for main segment %u", m);
    main_to_backup_[m] = static_cast<uint32_t>(b);
  }
  steal_cursor_ = 0;
}

void Container::region_sync() {
  PersistSiteScope site("recovery.sync");
  // Figure 6, crpm_recovery. Full-segment copies: the DRAM dirty bitmap did
  // not survive the crash, so the block-level diff is unknown.
  const uint32_t* b2m = layout_.backup_to_main();
  const uint8_t* state = layout_.seg_state(active_index());
  uint64_t copies = 0;

  // SS_Initial segments hold no committed program state — their logical
  // checkpoint content is the zeroed initial image. A crash during the
  // first epoch that touched such a segment can leave torn uncommitted
  // stores on media (recovery's pairing loop below never visits them), so
  // restore the zeros explicitly. memcmp first: almost all of these
  // segments are still pristine.
  for (uint64_t m = 0; m < geo_.nr_main_segs(); ++m) {
    if (state[m] != kSegInitial) continue;
    uint8_t* seg = layout_.main_segment(m);
    uint64_t sz = geo_.segment_size();
    bool pristine = seg[0] == 0 && std::memcmp(seg, seg + 1, sz - 1) == 0;
    if (!pristine) {
      std::memset(seg, 0, sz);
      dev_->flush(seg, sz);
      ++copies;
    }
  }
  for (uint64_t b = 0; b < geo_.nr_backup_segs(); ++b) {
    uint32_t m = b2m[b];
    if (m == kNoPair) continue;
    switch (state[m]) {
      case kSegMain:
        // Main holds the checkpoint; refresh the paired backup so that the
        // block-level differential invariant (backup == main-at-checkpoint)
        // holds again.
        dev_->nt_copy(layout_.backup_segment(b), layout_.main_segment(m),
                      geo_.segment_size());
        ++copies;
        break;
      case kSegBackup:
        // Backup holds the checkpoint; restore the working state.
        dev_->nt_copy(layout_.main_segment(m), layout_.backup_segment(b),
                      geo_.segment_size());
        ++copies;
        break;
      case kSegInitial: {
        // The pairing was persisted during an epoch that never committed
        // (its segment still holds no checkpoint state), so the backup
        // segment contains garbage. Drop the pairing: keeping it would
        // make a later differential copy treat the garbage as a valid
        // base image.
        uint32_t* slot = layout_.backup_to_main() + b;
        *slot = kNoPair;
        dev_->flush(slot, sizeof(uint32_t));
        ++copies;
        break;
      }
      default:
        CRPM_CHECK(false, "corrupt segment state %u for segment %u",
                   state[m], m);
    }
  }
  if (copies != 0) dev_->fence();
}

uint32_t Container::alloc_backup(uint64_t main_seg) {
  std::lock_guard<SpinLock> lk(alloc_lock_);
  uint32_t b = kNoPair;
  if (!free_backups_.empty()) {
    b = free_backups_.back();
    free_backups_.pop_back();
  } else {
    // Recycle: "a backup segment can be allocated if it is not used for
    // saving the checkpoint state" (Section 3.3) — i.e. its paired main
    // segment's state is SS_Main.
    uint32_t* b2m = layout_.backup_to_main();
    const uint8_t* state = layout_.seg_state(active_index());
    uint64_t n = geo_.nr_backup_segs();
    for (uint64_t probe = 0; probe < n; ++probe) {
      uint32_t cand = static_cast<uint32_t>((steal_cursor_ + probe) % n);
      uint32_t victim = b2m[cand];
      if (victim == kNoPair || victim == main_seg) continue;
      if (state[victim] != kSegMain) continue;  // backup saves a checkpoint
      SpinLock& vlock = tracker_->segment_lock(victim);
      if (!vlock.try_lock()) continue;  // victim mid-CoW; skip
      // Re-check under the victim's lock.
      if (state[victim] == kSegMain && b2m[cand] == victim) {
        main_to_backup_[victim] = kNoPair;
        b = cand;
        steal_cursor_ = (cand + 1) % n;
        stats_.add_backup_steal();
        vlock.unlock();
        break;
      }
      vlock.unlock();
    }
    CRPM_CHECK(b != kNoPair,
               "backup region exhausted: more than %llu segments dirty in "
               "one epoch; increase backup_ratio",
               (unsigned long long)geo_.nr_backup_segs());
  }
  uint32_t* b2m = layout_.backup_to_main();
  b2m[b] = static_cast<uint32_t>(main_seg);
  PersistSiteScope site("cow.pair");
  dev_->flush(&b2m[b], sizeof(uint32_t));  // fenced by the caller's fence
  main_to_backup_[main_seg] = b;
  return b;
}

void Container::set_root(uint32_t slot, uint64_t off) {
  CRPM_CHECK(slot < kNumRoots, "root slot %u out of range", slot);
  roots_work_[slot] = off;
  roots_dirty_ = true;
}

uint64_t Container::get_root(uint32_t slot) const {
  CRPM_CHECK(slot < kNumRoots, "root slot %u out of range", slot);
  return roots_work_[slot];
}

EngineCounters Container::counters() const {
  const CrpmStatsSnapshot s = stats_.snapshot();
  EngineCounters c;
  c.epochs = s.epochs;
  c.segments_cow = geo_.nr_main_segs();
  c.segment_preimages = s.cow_count;
  c.checkpoint_bytes = s.checkpoint_bytes;
  return c;
}

void Container::stage_roots_for_commit() {
  // Always carry the working roots into the next epoch's array (it is
  // meta_replicas() epochs stale), exactly like the seg_state copy-forward.
  uint64_t* dst =
      layout_.roots((active_index() + 1) % static_cast<int>(geo_.meta_replicas()));
  std::copy(roots_work_.begin(), roots_work_.end(), dst);
  dev_->flush(dst, 8 * kNumRoots);
}

void Container::notify_epoch_sink(uint64_t epoch, const uint8_t* data,
                                  std::vector<uint64_t> blocks) {
  if (epoch_sink_ == nullptr) return;
  Stopwatch sw;
  EpochDelta d;
  d.epoch = epoch;
  d.block_size = geo_.block_size();
  d.region_size = geo_.main_region_size();
  d.data = data;
  d.blocks = std::move(blocks);
  d.roots = roots_work_;
  epoch_sink_->on_epoch_commit(std::move(d));
  stats_.add_archive_capture_ns(sw.elapsed_ns());
}

void Container::set_commit_callback(std::function<void(uint64_t)> cb) {
  std::lock_guard<std::mutex> lk(commit_cb_mu_);
  commit_cb_ = std::move(cb);
}

void Container::notify_commit(uint64_t epoch) {
  std::function<void(uint64_t)> cb;
  {
    std::lock_guard<std::mutex> lk(commit_cb_mu_);
    cb = commit_cb_;
  }
  if (cb) cb(epoch);
}

uint64_t Container::dram_bytes() const { return tracker_->bitmap_bytes(); }


std::unique_ptr<Container> Container::open(NvmDevice* dev,
                                           const CrpmOptions& opt,
                                           uint64_t target_epoch) {
  if (opt.buffered) {
    return std::make_unique<BufferedContainer>(dev, nullptr, opt,
                                               target_epoch);
  }
  return std::make_unique<DefaultContainer>(dev, nullptr, opt, target_epoch);
}

std::unique_ptr<Container> Container::open(std::unique_ptr<NvmDevice> dev,
                                           const CrpmOptions& opt,
                                           uint64_t target_epoch) {
  NvmDevice* raw = dev.get();
  if (opt.buffered) {
    return std::make_unique<BufferedContainer>(raw, std::move(dev), opt,
                                               target_epoch);
  }
  return std::make_unique<DefaultContainer>(raw, std::move(dev), opt,
                                            target_epoch);
}

std::unique_ptr<Container> Container::open_file(const std::string& path,
                                                const CrpmOptions& opt) {
  auto dev = std::make_unique<FileNvmDevice>(path, required_device_size(opt));
  return open(std::move(dev), opt);
}

// ---------------------------------------------------------------------------
// DefaultContainer
// ---------------------------------------------------------------------------

DefaultContainer::DefaultContainer(NvmDevice* dev,
                                   std::unique_ptr<NvmDevice> owned,
                                   const CrpmOptions& opt,
                                   uint64_t target_epoch)
    : Container(dev, std::move(owned), opt, target_epoch) {
  open_or_format();
  if (opt_.async_checkpoint) {
    last_captured_epoch_ = committed_epoch();
    uint32_t inflight = opt_.max_inflight_epochs;
    windows_.reserve(inflight);
    for (uint32_t i = 0; i < inflight; ++i) {
      windows_.push_back(std::make_unique<AsyncWindow>());
    }
    uint32_t shards = geo_.shard_count();
    shard_progress_.reset(new std::atomic<uint64_t>[shards]);
    shard_locks_.reserve(shards);
    for (uint32_t sh = 0; sh < shards; ++sh) {
      shard_progress_[sh].store(committed_epoch(), std::memory_order_relaxed);
      shard_locks_.push_back(std::make_unique<SpinLock>());
    }
    if (!fresh()) {
      // Recovery of the per-shard progress words: a crash can leave any
      // shard's record at most max_inflight_epochs ahead of the committed
      // epoch (the deepest open window at the crash). Lower values are
      // normal — sync containers never write the words, and restore /
      // renumber paths move the epoch without touching them — so only the
      // upper bound is a corruption check. Reset every word to the
      // committed epoch so the next joined commit starts from a clean
      // baseline.
      PersistSiteScope site("recovery.shards");
      uint64_t committed = committed_epoch();
      bool dirty = false;
      for (uint32_t sh = 0; sh < shards; ++sh) {
        uint64_t* word = layout_.shard_epoch_word(sh);
        CRPM_CHECK(*word <= committed + inflight,
                   "shard %u progress word %llu runs more than %u epochs "
                   "ahead of committed epoch %llu",
                   sh, (unsigned long long)*word, inflight,
                   (unsigned long long)committed);
        if (*word != committed) {
          *word = committed;
          dev_->flush(word, sizeof(uint64_t));
          dirty = true;
        }
      }
      if (dirty) dev_->fence();
    }
    pipeline_ =
        std::make_unique<AsyncCommitPipeline>(this, opt_.async_workers);
  }
}

// pipeline_ is the last-declared member, so it is destroyed first: worker
// mode drains the in-flight window while the rest of the container is
// still alive; cooperative mode discards it (see the header comment).
DefaultContainer::~DefaultContainer() = default;

void DefaultContainer::wait_committed() {
  if (pipeline_ != nullptr) pipeline_->wait_idle();
}

void DefaultContainer::annotate(const void* addr, size_t len) {
  if (len == 0) return;
  uint8_t* base = layout_.main_base();
  uint64_t off = static_cast<uint64_t>(static_cast<const uint8_t*>(addr) -
                                       base);
  CRPM_CHECK(off < geo_.main_region_size() &&
                 off + len <= geo_.main_region_size(),
             "annotate outside working state: off=%llu len=%zu",
             (unsigned long long)off, len);
  uint64_t b0 = geo_.block_of_offset(off);
  uint64_t b1 = geo_.block_of_offset(off + len - 1);
  uint64_t seg = ~uint64_t{0};
  for (uint64_t b = b0; b <= b1; ++b) {
    uint64_t s = geo_.segment_of_block(b);
    if (s != seg) {
      seg = s;
      if (!tracker_->segment_dirty(s)) copy_on_write(s);
    }
    if (!tracker_->block_dirty(b)) tracker_->dirty_blocks().set(b);
  }
}

void DefaultContainer::copy_on_write(uint64_t seg) {
  Stopwatch sw;
  SpinLock& seg_lock = tracker_->segment_lock(seg);
  seg_lock.lock();
  if (tracker_->segment_dirty(seg)) {  // another thread won the race
    seg_lock.unlock();
    return;
  }

  if (opt_.async_checkpoint) {
    // A still-open window that captured this segment owns its pipeline
    // work; its backup still guards the previous epoch and must not be
    // touched. The first post-capture writer *steals* the work (flush +
    // image snapshot) instead of copying. With more than one window
    // holding the segment, stealing from the newest would flush bytes
    // whose flush the oldest window deferred (the committed metadata can
    // still read the segment as SS_Main); help the pipeline drain the
    // oldest window and re-evaluate.
    for (;;) {
      AsyncWindow* newest = nullptr;
      int holders = 0;
      for (const auto& wp : windows_) {
        AsyncWindow& w = *wp;
        if (!w.open.load(std::memory_order_acquire)) continue;
        if (w.phase.empty() || w.phase[seg] == AsyncWindow::kIdle) continue;
        ++holders;
        if (newest == nullptr || w.epoch > newest->epoch) newest = &w;
      }
      if (holders == 0) break;
      if (holders == 1) {
        steal_captured(*newest, seg);
        seg_lock.unlock();
        stats_.add_trace_ns(sw.elapsed_ns());
        return;
      }
      seg_lock.unlock();
      pipeline_->help_drain_oldest();
      seg_lock.lock();
      if (tracker_->segment_dirty(seg)) {  // a concurrent writer finished
        seg_lock.unlock();
        stats_.add_trace_ns(sw.elapsed_ns());
        return;
      }
    }
  }

  uint8_t* state = layout_.seg_state(active_index());
  if (state[seg] == kSegMain) {
    uint32_t b = main_to_backup_[seg];
    bool differential = true;
    if (b == kNoPair) {
      b = alloc_backup(seg);
      differential = false;  // fresh backup: copy the whole segment
    }
    uint8_t* msrc = layout_.main_segment(seg);
    uint8_t* bdst = layout_.backup_segment(b);
    if (faults_ & kFaultFlipBeforeCopy) {
      // Injected ordering bug (see core/faults.h): commit "backup holds the
      // checkpoint" before the backup actually does. A crash during the
      // copy below then recovers stale backup bytes into main.
      state[seg] = kSegBackup;
      PersistSiteScope site("cow.flip");
      dev_->persist(&state[seg], 1);
    }
    uint64_t blocks = 0;
    uint64_t bytes = 0;
    {
      PersistSiteScope site("cow.data");
      if (differential) {
        // Block-based data copy (Figure 6, lines 9-12): only blocks
        // recorded dirty — exactly those where main and backup differ —
        // are moved.
        uint64_t first = geo_.first_block_of_segment(seg);
        uint64_t bs = geo_.block_size();
        tracker_->dirty_blocks().for_each_set(
            first, geo_.blocks_per_segment(), [&](size_t blk) {
              uint64_t rel = (blk - first) * bs;
              dev_->nt_copy(bdst + rel, msrc + rel, bs);
              ++blocks;
            });
        bytes = blocks * bs;
      } else {
        dev_->nt_copy(bdst, msrc, geo_.segment_size());
        bytes = geo_.segment_size();
      }
      dev_->fence();  // fence #1: pairing + copied data durable
    }
    if (!(faults_ & kFaultFlipBeforeCopy)) {
      PersistSiteScope site("cow.flip");
      if (opt_.async_checkpoint) {
        // A background commit may bump active_index() concurrently, and
        // every open window holds a staged replica of its own epoch. For a
        // segment no window captured, all replicas agree (capture copies
        // the predecessor's replica forward, and only this segment's own
        // CoW — serialized by its lock — changes its entries), so flip
        // every one of them and stay index-agnostic.
        for (uint32_t r = 0; r < geo_.meta_replicas(); ++r) {
          uint8_t* copy = layout_.seg_state(static_cast<int>(r));
          copy[seg] = kSegBackup;
          dev_->flush(&copy[seg], 1);
        }
        dev_->fence();  // fence #2
      } else {
        state[seg] = kSegBackup;
        dev_->persist(&state[seg], 1);  // flush + fence #2
      }
    }
    tracker_->clear_segment_blocks(seg);
    stats_.add_cow(!differential, blocks, bytes);
  }
  // kSegInitial: first-ever modification, no checkpoint state to protect.
  // kSegBackup: backup already equals the checkpoint (eager CoW or
  // post-recovery state); the segment is immediately writable.
  tracker_->dirty_segments().set(seg);
  seg_lock.unlock();
  stats_.add_trace_ns(sw.elapsed_ns());
}

void DefaultContainer::checkpoint() {
  if (opt_.async_checkpoint) {
    checkpoint_async();
    return;
  }
  Stopwatch sw;
  bool leader = barrier_->arrive_and_wait();

  // Phase 0 (leader): snapshot the dirty segment set and pick the flush
  // strategy (Figure 6, lines 27-31).
  if (leader) {
    ckpt_segs_.clear();
    tracker_->dirty_segments().for_each_set(
        [&](size_t s) { ckpt_segs_.push_back(s); });
    ckpt_skip_ = ckpt_segs_.empty() && !roots_dirty_;
    ckpt_cursor_.store(0, std::memory_order_relaxed);
    ckpt_flushed_bytes_.store(0, std::memory_order_relaxed);
    if (!ckpt_skip_) {
      uint64_t dirty_bytes = tracker_->dirty_bytes_in_dirty_segments();
      ckpt_use_wbinvd_ = dirty_bytes > opt_.wbinvd_threshold;
    }
    // Export the epoch's delta now, while its values are stable (all
    // threads are stopped in this checkpoint): the sink's background
    // thread copies the payload concurrently with the flush phase below,
    // and the leader synchronizes in wait_captured() before the threads
    // resume. The captured set (dirty blocks of this epoch's dirty
    // segments) is a superset of the blocks written this epoch.
    if (!ckpt_skip_ && epoch_sink_ != nullptr) {
      std::vector<uint64_t> blocks;
      for (uint64_t s : ckpt_segs_) {
        tracker_->dirty_blocks().for_each_set(
            geo_.first_block_of_segment(s), geo_.blocks_per_segment(),
            [&](size_t blk) { blocks.push_back(blk); });
      }
      notify_epoch_sink(committed_epoch() + 1, layout_.main_base(),
                        std::move(blocks));
    }
  }
  barrier_->arrive_and_wait();

  // Nothing modified this epoch: no new checkpoint state to commit. This is
  // why read-only workloads run at NVM-NP speed (Section 5.2.1).
  if (ckpt_skip_) {
    barrier_->arrive_and_wait();
    if (leader) stats_.add_checkpoint_ns(sw.elapsed_ns());
    return;
  }

  // Phase 1: persist dirty blocks of the main region. All collective
  // threads claim dirty segments from a shared cursor.
  {
    PersistSiteScope site("ckpt.flush");
    if (ckpt_use_wbinvd_) {
      if (leader) {
        dev_->wbinvd_flush();
        uint64_t bytes = tracker_->dirty_bytes_in_dirty_segments();
        ckpt_flushed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      }
    } else {
      uint64_t bs = geo_.block_size();
      uint64_t local_bytes = 0;
      for (;;) {
        size_t i = ckpt_cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= ckpt_segs_.size()) break;
        uint64_t s = ckpt_segs_[i];
        uint64_t first = geo_.first_block_of_segment(s);
        tracker_->dirty_blocks().for_each_set(
            first, geo_.blocks_per_segment(), [&](size_t blk) {
              dev_->flush(layout_.block_addr(blk), bs);
              local_bytes += bs;
            });
      }
      ckpt_flushed_bytes_.fetch_add(local_bytes, std::memory_order_relaxed);
    }
    dev_->fence();  // per-thread: order own flushes (Figure 6, line 32)
  }
  barrier_->arrive_and_wait();

  // Phase 2 (leader): atomically promote the working state (Figure 6,
  // lines 35-42).
  if (leader) {
    int e_act = active_index();
    int e_new = (e_act + 1) % static_cast<int>(geo_.meta_replicas());
    uint8_t* act = layout_.seg_state(e_act);
    uint8_t* next = layout_.seg_state(e_new);
    {
      PersistSiteScope site("ckpt.stage");
      std::memcpy(next, act, geo_.nr_main_segs());
      for (uint64_t s : ckpt_segs_) next[s] = kSegMain;
      dev_->flush(next, geo_.nr_main_segs());
      stage_roots_for_commit();
      dev_->fence();
    }

    MetaHeader* h = layout_.header();
    h->committed_epoch += 1;  // the commit point
    {
      PersistSiteScope site("ckpt.commit");
      dev_->persist(&h->committed_epoch, sizeof(uint64_t));
    }
    dram_committed_.store(h->committed_epoch, std::memory_order_release);
    notify_commit(h->committed_epoch);
    roots_dirty_ = false;

    // Note: the in-place flush of dirty main-region blocks is persistence,
    // not copying; the paper's "checkpoint size" metric counts the data
    // *copied* to build checkpoints (CoW traffic), which add_cow tracks.

    // Eager copy-on-write (Section 3.4.2): with few dirty segments, run
    // their CoW for the next epoch now, with two batched fences.
    if (opt_.eager_cow_segments != 0 &&
        ckpt_segs_.size() <= opt_.eager_cow_segments) {
      eager_cow(ckpt_segs_);
    }

    tracker_->dirty_segments().clear_all();

    // Release the epoch sink's claim on the working state before the
    // application threads resume and mutate it. With a spare core the sink
    // staged its copy during the flush phase above and this returns
    // immediately; the wait is charged as capture time.
    if (epoch_sink_ != nullptr) {
      Stopwatch ws;
      epoch_sink_->wait_captured();
      stats_.add_archive_capture_ns(ws.elapsed_ns());
    }

    stats_.add_epoch();
    stats_.add_checkpoint_ns(sw.elapsed_ns());
  }
  barrier_->arrive_and_wait();
}

void DefaultContainer::eager_cow(const std::vector<uint64_t>& segs) {
  // After the commit above, every segment in `segs` has state SS_Main in
  // the new active array. Copy each one's dirty blocks to its paired backup
  // (skipping unpaired segments — their first CoW next epoch does a full
  // copy anyway), then flip all states with a single fence pair.
  PersistSiteScope site_copy("eager.copy");
  uint8_t* state = layout_.seg_state(active_index());
  std::vector<uint64_t> done;
  uint64_t bs = geo_.block_size();
  for (uint64_t s : segs) {
    uint32_t b = main_to_backup_[s];
    if (b == kNoPair) continue;
    uint8_t* msrc = layout_.main_segment(s);
    uint8_t* bdst = layout_.backup_segment(b);
    uint64_t first = geo_.first_block_of_segment(s);
    uint64_t blocks = 0;
    tracker_->dirty_blocks().for_each_set(
        first, geo_.blocks_per_segment(), [&](size_t blk) {
          uint64_t rel = (blk - first) * bs;
          dev_->nt_copy(bdst + rel, msrc + rel, bs);
          ++blocks;
        });
    stats_.add_cow(false, blocks, blocks * bs);
    done.push_back(s);
  }
  if (done.empty()) return;
  dev_->fence();  // all eager copies durable
  PersistSiteScope site("eager.flip");
  for (uint64_t s : done) {
    state[s] = kSegBackup;
    dev_->flush(&state[s], 1);
  }
  dev_->fence();
  for (uint64_t s : done) tracker_->clear_segment_blocks(s);
  stats_.add_eager_cow(done.size());
}

// ---------------------------------------------------------------------------
// DefaultContainer: concurrent background checkpointing (async_commit.h)
// ---------------------------------------------------------------------------

void DefaultContainer::checkpoint_async() {
  Stopwatch sw;
  bool leader = barrier_->arrive_and_wait();
  if (leader) {
    ckpt_segs_.clear();
    tracker_->dirty_segments().for_each_set(
        [&](size_t s) { ckpt_segs_.push_back(s); });
    ckpt_skip_ = ckpt_segs_.empty() && !roots_dirty_;
    if (!ckpt_skip_) {
      uint64_t epoch = last_captured_epoch_ + 1;
      AsyncWindow& w = window_of(epoch);
      // Backpressure: epoch E reuses ring slot E mod K and metadata
      // replica E mod (K+1); both are free once window E-K has closed
      // (windows close FIFO). Cooperative mode services the oldest open
      // window inline here.
      while (w.open.load(std::memory_order_acquire)) {
        Stopwatch bp;
        pipeline_->help_drain_oldest();
        stats_.add_async_backpressure_ns(bp.elapsed_ns());
      }
      uint32_t shards = geo_.shard_count();
      if (w.phase.empty()) {
        w.phase.assign(geo_.nr_main_segs(), AsyncWindow::kIdle);
        w.stolen.assign(geo_.nr_main_segs(), 0);
        w.seg_slot.assign(geo_.nr_main_segs(), 0);
        w.staging.resize(geo_.nr_main_segs());
        w.shard_cursor.reset(new std::atomic<size_t>[shards]);
        w.shard_left.reset(new std::atomic<size_t>[shards]);
        w.shard_flush_ns.reset(new std::atomic<uint64_t>[shards]);
      }
      w.epoch = epoch;
      w.segs = ckpt_segs_;
      w.blocks.assign(w.segs.size(), {});
      w.shard_slots.assign(shards, {});
      for (size_t i = 0; i < w.segs.size(); ++i) {
        uint64_t s = w.segs[i];
        tracker_->dirty_blocks().for_each_set(
            geo_.first_block_of_segment(s), geo_.blocks_per_segment(),
            [&](size_t blk) { w.blocks[i].push_back(blk); });
        w.phase[s] = AsyncWindow::kPending;
        w.stolen[s] = 0;
        w.seg_slot[s] = static_cast<uint32_t>(i);
        w.shard_slots[s % shards].push_back(static_cast<uint32_t>(i));
      }
      for (uint32_t sh = 0; sh < shards; ++sh) {
        w.shard_cursor[sh].store(0, std::memory_order_relaxed);
        w.shard_left[sh].store(w.shard_slots[sh].size(),
                               std::memory_order_relaxed);
        w.shard_flush_ns[sh].store(0, std::memory_order_relaxed);
      }
      w.roots = roots_work_;
      roots_dirty_ = false;
      w.arrivals.store(0, std::memory_order_relaxed);
      w.finishers.store(0, std::memory_order_relaxed);
      {
        // Stage this epoch's seg_state replica from its predecessor's with
        // plain stores — the pipeline flushes it at the stage step. CoWs
        // that run while windows are open keep all replicas coherent by
        // flipping every copy. windows_mu_ orders the copy (and the window
        // becoming visible) against a concurrent finalize propagating
        // SS_Backup flips into open windows' replicas: a flip either lands
        // in the predecessor's replica before this memcpy reads it, or in
        // this window's replica via propagation after it becomes visible.
        std::lock_guard<std::mutex> wl(windows_mu_);
        uint32_t replicas = geo_.meta_replicas();
        uint8_t* prev =
            layout_.seg_state(static_cast<int>((epoch - 1) % replicas));
        uint8_t* next =
            layout_.seg_state(static_cast<int>(epoch % replicas));
        std::memcpy(next, prev, geo_.nr_main_segs());
        for (uint64_t s : w.segs) next[s] = kSegMain;
        w.open.store(true, std::memory_order_release);
      }
      // Hand the epoch to the sink while every thread is stopped: the
      // payload (main-region values) starts mutating again the moment
      // this call returns, so the sink must finish its copy inside the
      // capture, not overlapped with the background commit.
      if (epoch_sink_ != nullptr) {
        std::vector<uint64_t> blocks;
        for (const auto& bl : w.blocks) {
          blocks.insert(blocks.end(), bl.begin(), bl.end());
        }
        notify_epoch_sink(epoch, layout_.main_base(), std::move(blocks));
        Stopwatch ws;
        epoch_sink_->wait_captured();
        stats_.add_archive_capture_ns(ws.elapsed_ns());
      }
      // Segment-dirty bits restart for the new epoch. Block bits are kept:
      // they mean "main may differ from backup" and only a CoW clears
      // them, so every captured block list is a conservative superset of
      // the blocks its epoch actually wrote.
      tracker_->dirty_segments().clear_all();
      last_captured_epoch_ = epoch;
      uint32_t inflight = 0;
      for (const auto& wp : windows_) {
        if (wp->open.load(std::memory_order_acquire)) ++inflight;
      }
      stats_.note_async_inflight(inflight);
      pipeline_->submit(epoch);
    }
    stats_.add_async_capture(sw.elapsed_ns());
    stats_.add_checkpoint_ns(sw.elapsed_ns());
  }
  barrier_->arrive_and_wait();
}

namespace {
// Thread CPU time, not wall time: a descheduled thread accrues nothing,
// so per-shard flush cost stays comparable even when the pipeline has
// more participants than the host has cores.
uint64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}
}  // namespace

void DefaultContainer::steal_captured(AsyncWindow& w, uint64_t seg) {
  if (faults_ & kFaultSkipStealCopy) {
    // Injected ordering bug (see core/faults.h): dirty the segment without
    // flushing its captured blocks or snapshotting its image, so the
    // pipeline later commits post-capture values as the captured epoch.
    tracker_->dirty_segments().set(seg);
    return;
  }
  uint32_t slot = w.seg_slot[seg];
  const std::vector<uint64_t>& blocks = w.blocks[slot];
  if (w.phase[seg] == AsyncWindow::kPending) {
    // The pipeline has not flushed this segment yet: do it now, before the
    // first post-capture store could reach media ahead of the captured
    // image.
    uint64_t t0 = thread_cpu_ns();
    PersistSiteScope site("async.steal");
    uint64_t bs = geo_.block_size();
    for (uint64_t blk : blocks) dev_->flush(layout_.block_addr(blk), bs);
    dev_->fence();
    w.phase[seg] = AsyncWindow::kFlushed;
    stats_.add_async_flush_bytes(blocks.size() * bs);
    w.shard_flush_ns[seg % geo_.shard_count()].fetch_add(
        thread_cpu_ns() - t0, std::memory_order_relaxed);
  }
  if (w.stolen[seg] == 0) {
    // Snapshot the capture-epoch image before it is overwritten; the
    // pipeline's finalize stage rebuilds the backup from it post-commit.
    // (The segment is not yet marked dirty, so no other thread can be
    // storing into it while this copy reads it.)
    const uint8_t* src = layout_.main_segment(seg);
    w.staging[seg].assign(src, src + geo_.segment_size());
    w.stolen[seg] = 1;
    stats_.add_async_steal();
    // Finalize will rebuild the backup from this snapshot, so after the
    // window closes main-vs-backup differs only by post-capture stores.
    // Restart the block bits now — the captured list is already in the
    // window, and every post-capture writer orders behind this lock
    // before setting its bit — exactly as a sync-mode CoW would, or the
    // hot segments' "may differ" superset grows monotonically and the
    // pipeline flushes it in full every epoch.
    tracker_->clear_segment_blocks(seg);
  }
  tracker_->dirty_segments().set(seg);
}

uint64_t DefaultContainer::async_oldest_open_epoch() const {
  uint64_t oldest = 0;
  for (const auto& wp : windows_) {
    const AsyncWindow& w = *wp;
    if (!w.open.load(std::memory_order_acquire)) continue;
    if (oldest == 0 || w.epoch < oldest) oldest = w.epoch;
  }
  return oldest;
}

void DefaultContainer::async_service_window_epoch(uint64_t epoch,
                                                  uint32_t participants) {
  AsyncWindow& w = window_of(epoch);
  CRPM_CHECK(w.open.load(std::memory_order_acquire) && w.epoch == epoch,
             "pipeline servicing epoch %llu but its window is not open",
             (unsigned long long)epoch);
  uint32_t shards = geo_.shard_count();
  uint64_t bs = geo_.block_size();
  uint32_t me = w.arrivals.fetch_add(1, std::memory_order_relaxed);

  // Shard-local commit: persist the shard's durable progress record
  // ("shard.commit"). Record and mirror only ever rise; the lock
  // serializes the read-check-persist so a late finisher of an older
  // window cannot clobber a newer window's record.
  auto shard_commit = [&](uint32_t sh) {
    std::lock_guard<SpinLock> lk(*shard_locks_[sh]);
    if (shard_progress_[sh].load(std::memory_order_relaxed) >= epoch) return;
    uint64_t* word = layout_.shard_epoch_word(sh);
    *word = epoch;
    PersistSiteScope site("shard.commit");
    dev_->persist(word, sizeof(uint64_t));
    shard_progress_[sh].store(epoch, std::memory_order_release);
  };

  // Flush stage, sharded: each participant sweeps its own shard first,
  // then steals from the others. Segments the write hook stole are
  // already flushed. A segment still held by an OLDER open window is
  // *deferred* to the join: flushing it now could overwrite main-region
  // bytes that the committed metadata still reads as SS_Main (the older
  // window's finalize has not rebuilt the backup yet).
  for (uint32_t probe = 0; probe < shards; ++probe) {
    uint32_t sh = (me + probe) % shards;
    const std::vector<uint32_t>& slots = w.shard_slots[sh];
    for (;;) {
      size_t i = w.shard_cursor[sh].fetch_add(1, std::memory_order_relaxed);
      if (i >= slots.size()) break;
      uint32_t slot = slots[i];
      uint64_t s = w.segs[slot];
      {
        std::lock_guard<SpinLock> lk(tracker_->segment_lock(s));
        bool held_older = false;
        for (const auto& wp : windows_) {
          const AsyncWindow& o = *wp;
          if (&o == &w || !o.open.load(std::memory_order_acquire)) continue;
          if (o.epoch < epoch && !o.phase.empty() &&
              o.phase[s] != AsyncWindow::kIdle) {
            held_older = true;
            break;
          }
        }
        if (w.phase[s] == AsyncWindow::kPending && !held_older) {
          uint64_t t0 = thread_cpu_ns();
          PersistSiteScope site("async.flush");
          for (uint64_t blk : w.blocks[slot]) {
            dev_->flush(layout_.block_addr(blk), bs);
          }
          dev_->fence();
          w.phase[s] = AsyncWindow::kFlushed;
          stats_.add_async_flush_bytes(w.blocks[slot].size() * bs);
          w.shard_flush_ns[sh].fetch_add(thread_cpu_ns() - t0,
                                         std::memory_order_relaxed);
        }
      }
      if (w.shard_left[sh].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        shard_commit(sh);
      }
    }
  }
  // The last participant to finish flushing runs the join + tail.
  if (w.finishers.fetch_add(1, std::memory_order_acq_rel) + 1 <
      participants) {
    return;
  }

  // Join: windows commit strictly FIFO. Wait for the predecessor to
  // close, flush what its presence deferred (safe now: its finalize has
  // flipped those segments to SS_Backup in every committed replica, and
  // still-kPending means no post-capture store happened — a store would
  // have gone through the write hook's steal), then min-reduce the shard
  // progress records — the in-process analogue of SimComm::allreduce_min
  // in a coordinated commit — as a cross-check before the joined commit.
  pipeline_->wait_closed_at_least(epoch - 1);
  {
    bool any = false;
    PersistSiteScope site("async.flush");
    for (size_t slot = 0; slot < w.segs.size(); ++slot) {
      uint64_t s = w.segs[slot];
      std::lock_guard<SpinLock> lk(tracker_->segment_lock(s));
      if (w.phase[s] != AsyncWindow::kPending) continue;
      uint64_t t0 = thread_cpu_ns();
      for (uint64_t blk : w.blocks[slot]) {
        dev_->flush(layout_.block_addr(blk), bs);
      }
      w.phase[s] = AsyncWindow::kFlushed;
      stats_.add_async_flush_bytes(w.blocks[slot].size() * bs);
      w.shard_flush_ns[s % shards].fetch_add(thread_cpu_ns() - t0,
                                             std::memory_order_relaxed);
      any = true;
    }
    if (any) dev_->fence();
  }
  // Shards with no captured segments still participate in the join: bump
  // their records so the min-reduce below covers every shard.
  for (uint32_t sh = 0; sh < shards; ++sh) {
    if (w.shard_slots[sh].empty()) shard_commit(sh);
  }
  uint64_t min_progress = ~uint64_t{0};
  for (uint32_t sh = 0; sh < shards; ++sh) {
    uint64_t p = shard_progress_[sh].load(std::memory_order_acquire);
    if (p < min_progress) min_progress = p;
  }
  CRPM_CHECK(min_progress >= epoch,
             "joined commit of epoch %llu saw shard progress %llu",
             (unsigned long long)epoch, (unsigned long long)min_progress);

  // Stage: persist the seg_state replica staged at capture and the
  // captured roots. Epoch E's metadata copy is index E mod replicas.
  int e_new = static_cast<int>(epoch % geo_.meta_replicas());
  {
    PersistSiteScope site("async.stage");
    dev_->flush(layout_.seg_state(e_new), geo_.nr_main_segs());
    uint64_t* dst = layout_.roots(e_new);
    std::copy(w.roots.begin(), w.roots.end(), dst);
    dev_->flush(dst, 8 * kNumRoots);
    dev_->fence();
  }

  // Commit point of the joined epoch.
  MetaHeader* h = layout_.header();
  h->committed_epoch = epoch;
  {
    PersistSiteScope site("async.commit");
    dev_->persist(&h->committed_epoch, sizeof(uint64_t));
  }
  dram_committed_.store(epoch, std::memory_order_release);
  stats_.add_epoch();
  notify_commit(epoch);

  // Finalize: rebuild stolen segments' backups from their capture-time
  // images so the new epoch is fully guarded again, then release every
  // captured segment from the window.
  for (size_t slot = 0; slot < w.segs.size(); ++slot) {
    uint64_t s = w.segs[slot];
    std::lock_guard<SpinLock> lk(tracker_->segment_lock(s));
    if (w.stolen[s] != 0) {
      std::lock_guard<std::mutex> wl(windows_mu_);
      finalize_stolen(w, s, w.blocks[slot]);
      w.stolen[s] = 0;
    }
    w.phase[s] = AsyncWindow::kIdle;
  }
  // Flush critical path of this window: the slowest shard bounds how fast
  // the flush stage can finish no matter how many participants help.
  uint64_t crit = 0;
  for (uint32_t sh = 0; sh < shards; ++sh) {
    uint64_t ns = w.shard_flush_ns[sh].load(std::memory_order_relaxed);
    if (ns > crit) crit = ns;
  }
  stats_.add_async_flush_crit_ns(crit);
  w.open.store(false, std::memory_order_release);
  pipeline_->note_closed(epoch);
}

void DefaultContainer::finalize_stolen(AsyncWindow& w, uint64_t seg,
                                       const std::vector<uint64_t>& blocks) {
  // Post-commit, the committed image of `seg` nominally lives in main
  // (SS_Main) — but its media copy is already being overwritten by
  // next-epoch stores. The DRAM snapshot taken at steal time holds the
  // pure committed image: rebuild the backup from it and flip the segment
  // to SS_Backup, after which it copy-on-writes normally again.
  std::vector<uint8_t>& img = w.staging[seg];
  bool full = main_to_backup_[seg] == kNoPair;
  uint64_t blocks_copied = 0;
  uint64_t bytes = 0;
  {
    PersistSiteScope site("async.final");
    uint32_t b;
    if (full) {
      b = alloc_backup(seg);
      dev_->nt_copy(layout_.backup_segment(b), img.data(),
                    geo_.segment_size());
      bytes = geo_.segment_size();
    } else {
      b = main_to_backup_[seg];
      uint64_t first = geo_.first_block_of_segment(seg);
      uint64_t bs = geo_.block_size();
      for (uint64_t blk : blocks) {
        uint64_t rel = (blk - first) * bs;
        dev_->nt_copy(layout_.backup_segment(b) + rel, img.data() + rel, bs);
      }
      blocks_copied = blocks.size();
      bytes = blocks.size() * bs;
    }
    dev_->fence();  // pairing + backup image durable before the flip
    uint32_t replicas = geo_.meta_replicas();
    uint8_t* state =
        layout_.seg_state(static_cast<int>(w.epoch % replicas));
    state[seg] = kSegBackup;
    dev_->persist(&state[seg], 1);
    // Propagate the flip into newer open windows' staged replicas (caller
    // holds windows_mu_, so no capture memcpy races this). A newer window
    // that re-captured the segment keeps its SS_Main override — its own
    // commit supersedes this one; every other staged replica inherited
    // SS_Main from this epoch's copy-forward and must learn the backup now
    // guards the segment.
    for (const auto& wp : windows_) {
      AsyncWindow& n = *wp;
      if (&n == &w || !n.open.load(std::memory_order_acquire)) continue;
      if (n.epoch <= w.epoch) continue;
      if (!n.phase.empty() && n.phase[seg] != AsyncWindow::kIdle) continue;
      uint8_t* ns = layout_.seg_state(static_cast<int>(n.epoch % replicas));
      ns[seg] = kSegBackup;
      dev_->flush(&ns[seg], 1);  // fenced by that window's stage step
    }
  }
  stats_.add_cow(full, blocks_copied, bytes);
  img.clear();
  img.shrink_to_fit();
}

// ---------------------------------------------------------------------------
// BufferedContainer
// ---------------------------------------------------------------------------

BufferedContainer::BufferedContainer(NvmDevice* dev,
                                     std::unique_ptr<NvmDevice> owned,
                                     const CrpmOptions& opt,
                                     uint64_t target_epoch)
    : Container(dev, std::move(owned), opt, target_epoch) {
  buf_storage_.resize(geo_.main_region_size() + 4096);
  // Align the DRAM working state so blocks are cache-line aligned.
  auto raw = reinterpret_cast<uintptr_t>(buf_storage_.data());
  buf_ = reinterpret_cast<uint8_t*>((raw + 4095) & ~uintptr_t{4095});
  cur_dirty_.reset_size(geo_.nr_blocks());
  prev_dirty_.reset_size(geo_.nr_blocks());
  open_or_format();
  if (!fresh()) {
    Stopwatch sw;
    load_dram_from_main();
    recovery_load_ns_ = sw.elapsed_ns();
  }
}

uint64_t BufferedContainer::dram_bytes() const {
  return geo_.main_region_size() + 2 * ((geo_.nr_blocks() + 7) / 8) +
         Container::dram_bytes();
}

void BufferedContainer::load_dram_from_main() {
  // region_sync() already made main == checkpoint state; the second
  // recovery phase of Section 5.5 copies it into the DRAM buffer.
  std::memcpy(buf_, layout_.main_base(), geo_.main_region_size());
}

void BufferedContainer::annotate(const void* addr, size_t len) {
  if (len == 0) return;
  uint64_t off =
      static_cast<uint64_t>(static_cast<const uint8_t*>(addr) - buf_);
  CRPM_CHECK(off < geo_.main_region_size() &&
                 off + len <= geo_.main_region_size(),
             "annotate outside working state: off=%llu len=%zu",
             (unsigned long long)off, len);
  uint64_t b0 = geo_.block_of_offset(off);
  uint64_t b1 = geo_.block_of_offset(off + len - 1);
  for (uint64_t b = b0; b <= b1; ++b) {
    if (!cur_dirty_.test(b)) cur_dirty_.set(b);
  }
}

void BufferedContainer::checkpoint() {
  Stopwatch sw;
  bool leader = barrier_->arrive_and_wait();
  uint64_t e = committed_epoch() + 1;  // the epoch being committed
  bool to_main = targets_main(e);

  if (leader) {
    // Phase 0: collect segments with blocks dirty in epochs e-1 or e, make
    // sure each has what it needs (a pairing when targeting the backup
    // region; full first copy on a fresh pairing), and detach any committed
    // seg_state entry that points into the region we are about to write.
    ckpt_segs_.clear();
    ckpt_full_copy_.clear();
    uint8_t* act = layout_.seg_state(active_index());
    bool flipped = false;
    for (uint64_t s = 0; s < geo_.nr_main_segs(); ++s) {
      uint64_t first = geo_.first_block_of_segment(s);
      if (!cur_dirty_.any_in_range(first, geo_.blocks_per_segment()) &&
          !prev_dirty_.any_in_range(first, geo_.blocks_per_segment())) {
        continue;
      }
      bool full = false;
      if (!to_main) {
        if (main_to_backup_[s] == kNoPair) {
          alloc_backup(s);
          full = true;  // fresh backup segment: nothing valid in it yet
        }
      }
      // If the committed metadata says this segment's checkpoint lives in
      // the region we are about to overwrite, repoint it at the other
      // region first. Both copies are identical for such a segment (its
      // last copy was two or more epochs ago, so both parities received
      // it), hence the active-array update preserves the checkpoint.
      uint8_t points_to_target = to_main ? kSegMain : kSegBackup;
      if (act[s] == points_to_target) {
        act[s] = to_main ? kSegBackup : kSegMain;
        PersistSiteScope site("ckpt.detach");
        dev_->flush(&act[s], 1);
        flipped = true;
      }
      ckpt_segs_.push_back(s);
      ckpt_full_copy_.push_back(full ? 1 : 0);
    }
    if (flipped) {
      PersistSiteScope site("ckpt.detach");
      dev_->fence();
    }
    ckpt_skip_ = ckpt_segs_.empty() && !roots_dirty_;
    ckpt_cursor_.store(0, std::memory_order_relaxed);
    // Export the epoch's delta now, while all threads are stopped in this
    // checkpoint: cur_dirty_ is exactly the set of blocks modified during
    // the committing epoch, and the DRAM buffer holds their final values.
    // The sink's background thread copies the payload concurrently with
    // the replication phase below; wait_captured() synchronizes before
    // the threads resume.
    if (!ckpt_skip_ && epoch_sink_ != nullptr) {
      std::vector<uint64_t> blocks;
      cur_dirty_.for_each_set([&](size_t blk) { blocks.push_back(blk); });
      notify_epoch_sink(e, buf_, std::move(blocks));
    }
  }
  barrier_->arrive_and_wait();

  if (ckpt_skip_) {
    barrier_->arrive_and_wait();
    if (leader) stats_.add_checkpoint_ns(sw.elapsed_ns());
    return;
  }

  // Phase 1: replicate dirty blocks from DRAM into the target region.
  PersistSiteScope site_repl("ckpt.replicate");
  uint64_t bs = geo_.block_size();
  uint64_t local_bytes = 0;
  for (;;) {
    size_t i = ckpt_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= ckpt_segs_.size()) break;
    uint64_t s = ckpt_segs_[i];
    uint8_t* target = to_main
                          ? layout_.main_segment(s)
                          : layout_.backup_segment(main_to_backup_[s]);
    const uint8_t* src = buf_ + geo_.segment_offset(s);
    if (ckpt_full_copy_[i] != 0) {
      dev_->nt_copy(target, src, geo_.segment_size());
      local_bytes += geo_.segment_size();
      continue;
    }
    uint64_t first = geo_.first_block_of_segment(s);
    AtomicBitmap::for_each_set_union(
        cur_dirty_, prev_dirty_, first, geo_.blocks_per_segment(),
        [&](size_t blk) {
          uint64_t rel = (blk - first) * bs;
          dev_->nt_copy(target + rel, src + rel, bs);
          local_bytes += bs;
        });
  }
  dev_->fence();
  stats_.add_checkpoint_bytes(local_bytes);
  barrier_->arrive_and_wait();

  // Phase 2 (leader): commit.
  if (leader) {
    int e_act = active_index();
    int e_new = (e_act + 1) % static_cast<int>(geo_.meta_replicas());
    uint8_t* act = layout_.seg_state(e_act);
    uint8_t* next = layout_.seg_state(e_new);
    {
      PersistSiteScope site("ckpt.stage");
      std::memcpy(next, act, geo_.nr_main_segs());
      for (uint64_t s : ckpt_segs_) next[s] = to_main ? kSegMain : kSegBackup;
      dev_->flush(next, geo_.nr_main_segs());
      stage_roots_for_commit();
      dev_->fence();
    }

    MetaHeader* h = layout_.header();
    h->committed_epoch += 1;
    {
      PersistSiteScope site("ckpt.commit");
      dev_->persist(&h->committed_epoch, sizeof(uint64_t));
    }
    dram_committed_.store(h->committed_epoch, std::memory_order_release);
    notify_commit(h->committed_epoch);
    roots_dirty_ = false;

    // Age the dirty generations: blocks dirty in the just-committed epoch
    // must also be replicated at the next checkpoint (into the other
    // region).
    prev_dirty_.assign_and_clear(cur_dirty_);

    // Release the epoch sink's claim on the DRAM working buffer before the
    // application threads resume and mutate it (see DefaultContainer).
    if (epoch_sink_ != nullptr) {
      Stopwatch ws;
      epoch_sink_->wait_captured();
      stats_.add_archive_capture_ns(ws.elapsed_ns());
    }

    stats_.add_epoch();
    stats_.add_checkpoint_ns(sw.elapsed_ns());
  }
  barrier_->arrive_and_wait();
}

}  // namespace crpm
