#include "snapshot/writer.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "snapshot/archive.h"
#include "snapshot/compactor.h"
#include "tier/coded.h"
#include "tier/cold.h"
#include "util/logging.h"
#include "util/stopwatch.h"

#include <emmintrin.h>

namespace crpm::snapshot {

namespace {

// Staging copy with non-temporal stores: the payload buffer is written
// once, so pulling it through the cache hierarchy would only evict the
// application's working set (and the RFO reads cost bandwidth).
// `dst` is 16-byte aligned and `len` a multiple of the block size.
void stream_copy(uint8_t* dst, const uint8_t* src, size_t len) {
  for (size_t i = 0; i < len; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i), v);
  }
}

}  // namespace

ArchiveWriter::ArchiveWriter(std::string path, SnapshotOptions sopt)
    : path_(std::move(path)), sopt_(sopt) {
  if (sopt_.queue_depth == 0) sopt_.queue_depth = 1;
  if (sopt_.tier.group_epochs == 0) sopt_.tier.group_epochs = 1;
  if (sopt_.tier.group_bytes == 0) sopt_.tier.group_bytes = 1;
  if (sopt_.tier.ring_depth == 0) sopt_.tier.ring_depth = 1;
  engine_ = tier::WritebackEngine::create(sopt_.tier.writeback,
                                          sopt_.tier.writeback_workers);
  engine_->set_signal([this] {
    // A completion may have made the oldest inflight batch reapable.
    cv_work_.notify_all();
  });
  thread_ = std::thread([this] { worker(); });
  stage_thread_ = std::thread([this] { stager(); });
}

ArchiveWriter::~ArchiveWriter() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_stage_work_.notify_all();
  stage_thread_.join();
  thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void ArchiveWriter::attach(Container& c) {
  init_file(c.geometry().block_size(), c.geometry().main_region_size(),
            c.geometry().segment_size(), c.committed_epoch());
  crpm_stats_ = &c.stats();
  dev_ = c.device();
  c.set_epoch_sink(this);
}

void ArchiveWriter::init_file(uint64_t block_size, uint64_t region_size,
                              uint64_t segment_size, uint64_t max_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  if (inited_) {
    CRPM_CHECK(block_size == block_size_ && region_size == region_size_,
               "archive %s already bound to a different geometry",
               path_.c_str());
    return;
  }
  block_size_ = block_size;
  region_size_ = region_size;
  segment_size_ = segment_size;

  // Scan whatever is on disk: adopt an intact archive (continuing its
  // epoch sequence), truncate a torn tail, or start fresh.
  uint64_t resume_epoch = 0;
  uint64_t truncate_to = 0;
  bool reuse = false;
  {
    ArchiveReader reader(path_);
    if (reader.ok()) {
      const ArchiveHeader& h = reader.scan().header;
      CRPM_CHECK(h.block_size == block_size && h.region_size == region_size,
                 "archive %s geometry mismatch: has %llu B blocks / %llu B "
                 "region",
                 path_.c_str(), (unsigned long long)h.block_size,
                 (unsigned long long)h.region_size);
      if (segment_size_ == 0) segment_size_ = h.segment_size;
      reuse = true;
      truncate_to = reader.scan().scan_end;
      const auto& epochs = reader.scan().epochs;
      size_t keep = epochs.size();
      // Reconcile against the container's committed timeline: deltas are
      // staged before the commit point, so a crash in between (or a
      // rollback recovery) leaves frames here that the container never
      // committed. Drop them.
      while (keep > 0 && epochs[keep - 1].epoch > max_epoch) --keep;
      if (keep < epochs.size()) {
        CRPM_LOG_WARN(
            "archive %s: dropping %zu frame(s) beyond committed epoch %llu",
            path_.c_str(), epochs.size() - keep,
            (unsigned long long)max_epoch);
        truncate_to = epochs[keep].file_offset;
      }
      if (keep > 0) resume_epoch = epochs[keep - 1].epoch;
      if (sopt_.compact_every != 0 && resume_epoch > 0 &&
          reader.restorable(resume_epoch)) {
        // Rebuild the running shadow image so post-restart compaction folds
        // the full history, not just frames appended since the restart.
        std::string err;
        if (!reader.state_at(resume_epoch, &shadow_, nullptr, &err)) {
          shadow_.clear();
        }
      }
    }
  }

  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  CRPM_CHECK(fd_ >= 0, "open(%s) failed: %s", path_.c_str(),
             std::strerror(errno));
  if (reuse) {
    if (truncate_to > 0) {
      CRPM_CHECK(::ftruncate(fd_, static_cast<off_t>(truncate_to)) == 0,
                 "ftruncate(%s) failed: %s", path_.c_str(),
                 std::strerror(errno));
      // Make the truncation durable before appending: without this, a
      // crash after new appends could resurrect the dropped divergent
      // frames *in front of* the new ones — an epoch-order violation the
      // scanner would misread as a corrupt chain.
      if (sopt_.fsync_each_epoch) ::fdatasync(fd_);
    }
    off_t end = ::lseek(fd_, 0, SEEK_END);
    CRPM_CHECK(end >= 0, "lseek failed: %s", std::strerror(errno));
    append_off_ = static_cast<uint64_t>(end);
  } else {
    CRPM_CHECK(::ftruncate(fd_, 0) == 0, "ftruncate(%s) failed: %s",
               path_.c_str(), std::strerror(errno));
    ArchiveHeader h = make_header(block_size, region_size, segment_size);
    CRPM_CHECK(::write(fd_, &h, sizeof(h)) == ssize_t(sizeof(h)),
               "writing archive header to %s failed", path_.c_str());
    if (sopt_.fsync_each_epoch) ::fdatasync(fd_);
    append_off_ = sizeof(ArchiveHeader);
  }
  if (sopt_.compact_every != 0 && shadow_.empty()) {
    shadow_.assign(region_size_, 0);
  }
  last_epoch_.store(resume_epoch, std::memory_order_release);
  inited_ = true;
}

void ArchiveWriter::on_epoch_commit(EpochDelta&& d) {
  if (!inited_) {
    init_file(d.block_size, d.region_size, 0,
              d.epoch > 0 ? d.epoch - 1 : 0);
  }
  if (dead_.load(std::memory_order_acquire)) {
    st_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const uint64_t last = last_epoch_.load(std::memory_order_acquire);
  PendingFrame f;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!pool_.empty()) {
      f = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  f.epoch = d.epoch;
  f.roots = d.roots;
  f.state = PendingFrame::kUnstaged;
  f.src = d.data;  // stable until wait_captured(); staging copies from it
  if (d.epoch == last + 1 || (last == 0 && d.epoch == 1)) {
    // Contiguous: a delta frame of this epoch's dirty blocks. The payload
    // copy happens on the writer thread (stage()), overlapped with the
    // checkpoint's flush phase — only the block list changes hands here.
    f.kind = kDeltaFrame;
    f.blocks = std::move(d.blocks);
    f.payload.clear();
  } else if (d.epoch > last) {
    // Gap (writer attached mid-history): archive a full base snapshot so
    // the chain restarts here. The writer gathers the region's non-zero
    // blocks during staging.
    f.kind = kBaseFrame;
    f.blocks.clear();
    f.payload.clear();
  } else {
    // Epoch regression: the container's timeline diverged from the archive
    // (e.g. rollback recovery). Appending would corrupt history; refuse.
    if (!warned_divergence_) {
      warned_divergence_ = true;
      CRPM_LOG_WARN(
          "archive %s: committed epoch %llu not after archived epoch %llu; "
          "dropping divergent epochs (restore from a fresh archive instead)",
          path_.c_str(), (unsigned long long)d.epoch,
          (unsigned long long)last);
    }
    st_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Enqueue with backpressure.
  std::unique_lock<std::mutex> lk(mu_);
  if (queue_.size() >= sopt_.queue_depth) {
    boost_writer();
    Stopwatch sw;
    cv_space_.wait(lk, [&] {
      return queue_.size() < sopt_.queue_depth ||
             dead_.load(std::memory_order_acquire);
    });
    uint64_t ns = sw.elapsed_ns();
    st_stall_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (crpm_stats_ != nullptr) crpm_stats_->add_archive_stall_ns(ns);
  }
  if (dead_.load(std::memory_order_acquire)) {
    st_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  queue_.push_back(std::move(f));
  ++unstaged_;
  uint64_t depth = queue_.size();
  // A growing queue means the idle-class writer is losing the CPU-share
  // race against the foreground; promote it well before the cliff (a full
  // queue stalls the producer inside the capture window), and early
  // enough that the backlog it then drains in one go stays small.
  if (depth * 4 >= sopt_.queue_depth) boost_writer();
  uint64_t prev = st_qhwm_.load(std::memory_order_relaxed);
  while (depth > prev && !st_qhwm_.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
  if (crpm_stats_ != nullptr) crpm_stats_->note_archive_queue_depth(depth);
  last_epoch_.store(d.epoch, std::memory_order_release);
  lk.unlock();
  cv_stage_work_.notify_one();
}

bool ArchiveWriter::opportunistic_reap_allowed() {
  std::lock_guard<std::mutex> lk(obs_mu_);
  return !file_op_hook_;
}

void ArchiveWriter::boost_writer() {
  // Called by a producer losing ground to the writer (mu_ held). Setting
  // the policy from outside takes effect immediately — the starved idle
  // thread never gets a slice in which to promote itself.
  if (boost_level_.exchange(1, std::memory_order_relaxed) != 0) return;
  sched_param sp{};
  ::pthread_setschedparam(thread_.native_handle(), SCHED_OTHER, &sp);
  pid_t tid = writer_tid_.load(std::memory_order_acquire);
  if (tid != 0) ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 0);
}

void ArchiveWriter::worker() {
  // Archive I/O is background work: run the writer as SCHED_IDLE so waking
  // it at the end of a commit can never preempt the committing thread — on
  // few-core machines a freshly woken default-policy thread would steal the
  // rest of the stop-the-world window. Best effort; fall back to a nice
  // penalty where the policy isn't available.
  sched_param sp{};
  if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &sp) != 0) {
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 10);
  }
  writer_tid_.store(static_cast<pid_t>(::syscall(SYS_gettid)),
                    std::memory_order_release);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Caught up after a boost: drop back to background priority before
    // sleeping, so the next commit wake-up cannot preempt the committing
    // thread.
    if (queue_.empty() && inflight_.empty() &&
        boost_level_.exchange(0, std::memory_order_relaxed) != 0) {
      sched_param idle{};
      if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle) != 0) {
        ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)),
                      10);
      }
    }
    cv_work_.wait(lk, [&] {
      if (stop_ && queue_.empty()) return true;
      if (compact_pending_) return true;
      if (front_staged()) return true;
      if (!inflight_.empty()) {
        if (flush_now_) return true;
        if (opportunistic_reap_allowed() &&
            engine_->done(inflight_.front().ticket)) {
          return true;
        }
      }
      return false;
    });
    // Reap completed batches. Outside forced points this is suppressed
    // while a file-op hook is installed: completion *timing* must not
    // perturb the op sequence the crash matrix enumerates. Forced points
    // (flush/drain, ring full, compaction, stop) reap deterministically.
    if (!inflight_.empty() &&
        (flush_now_ || stop_ ||
         (opportunistic_reap_allowed() &&
          engine_->done(inflight_.front().ticket)))) {
      reap_inflight(lk, /*all=*/flush_now_ || stop_);
    }
    if (compact_pending_) {
      reap_inflight(lk, /*all=*/true);
      compact_pending_ = false;
      if (!dead_.load(std::memory_order_acquire) && !shadow_.empty()) {
        const uint64_t fold_epoch = shadow_epoch_;
        const auto fold_roots = shadow_roots_;
        busy_ = true;  // keeps drain() waiting out the fold
        lk.unlock();
        compact(fold_epoch, fold_roots);
        lk.lock();
        busy_ = false;
      }
      cv_idle_.notify_all();
    }
    if (stop_ && queue_.empty() && inflight_.empty()) return;
    if (!front_staged()) continue;

    // Group commit: gather staged frames into one batch until it is full
    // (group_epochs / group_bytes of plain-frame payload) or the flush
    // deadline since the first frame expires — bounding how long a lone
    // small epoch waits for durability.
    busy_ = true;
    Batch b;
    // Deadlines beyond an hour mean "batch-full or drain only"; clamping
    // also keeps the time arithmetic overflow-free.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(std::min<uint64_t>(
            sopt_.tier.flush_deadline_us, 3'600'000'000ull));
    uint64_t est_bytes = 0;
    for (;;) {
      while (front_staged() && b.frames.size() < sopt_.tier.group_epochs &&
             est_bytes < sopt_.tier.group_bytes) {
        est_bytes += frame_bytes(queue_.front().blocks.size(), block_size_);
        b.frames.push_back(std::move(queue_.front()));
        queue_.pop_front();
        cv_space_.notify_one();
      }
      // A drain-forced flush waits for frames still being staged: the
      // batch a drain cuts must be a pure function of the epochs enqueued
      // before it, not of how far the stager happened to get — the crash
      // matrix enumerates the resulting file ops and replays by index.
      if (b.frames.size() >= sopt_.tier.group_epochs ||
          est_bytes >= sopt_.tier.group_bytes ||
          (flush_now_ && unstaged_ == 0) || stop_ ||
          dead_.load(std::memory_order_acquire)) {
        break;
      }
      if (!cv_work_.wait_until(lk, deadline, [&] {
            return front_staged() || (flush_now_ && unstaged_ == 0) ||
                   stop_ || dead_.load(std::memory_order_acquire);
          })) {
        break;  // deadline expired: flush the partial batch
      }
    }
    lk.unlock();
    submit_batch(b);
    lk.lock();
    if (b.ticket != 0) {
      inflight_.push_back(std::move(b));
      // The ring bound: block on the oldest completion once too many
      // batches are in flight. This is a forced reap point, deterministic
      // whether or not completions already landed.
      while (inflight_.size() > sopt_.tier.ring_depth) reap_one(lk);
    } else {
      // Dropped before submission (dead or hook veto): recycle the frames.
      for (auto& f : b.frames) {
        if (pool_.size() <= sopt_.queue_depth) pool_.push_back(std::move(f));
      }
    }
    busy_ = false;
    cv_idle_.notify_all();
  }
}

void ArchiveWriter::reap_one(std::unique_lock<std::mutex>& lk) {
  Batch b = std::move(inflight_.front());
  inflight_.pop_front();
  const bool was_busy = busy_;
  busy_ = true;  // the batch left inflight_ but is not yet accounted
  lk.unlock();
  bool io_ok = engine_->wait(b.ticket);
  finish_batch(b, io_ok);
  lk.lock();
  busy_ = was_busy;
  for (auto& f : b.frames) {
    if (pool_.size() <= sopt_.queue_depth) pool_.push_back(std::move(f));
  }
}

void ArchiveWriter::reap_inflight(std::unique_lock<std::mutex>& lk,
                                  bool all) {
  while (!inflight_.empty() &&
         (all || engine_->done(inflight_.front().ticket))) {
    reap_one(lk);
  }
  cv_idle_.notify_all();
}

void ArchiveWriter::submit_batch(Batch& b) {
  if (b.frames.empty()) return;
  if (dead_.load(std::memory_order_acquire)) {
    st_dropped_.fetch_add(b.frames.size(), std::memory_order_relaxed);
    return;  // ticket stays 0; the caller recycles the frames
  }
  const uint32_t codec = sopt_.tier.codec;
  for (PendingFrame& f : b.frames) {
    std::vector<uint8_t> plain;
    serialize_frame(f.kind, f.epoch, f.roots, f.blocks, f.payload.data(),
                    block_size_, &plain);
    b.raw_lens.push_back(plain.size());
    uint32_t disk_kind = f.kind;
    std::vector<uint8_t> coded;
    if (codec != tier::kCodecNone) {
      if (!file_op_allowed("tier.encode", plain.size())) {
        st_dropped_.fetch_add(b.frames.size(), std::memory_order_relaxed);
        return;
      }
      if (tier::encode_frame(plain.data(), plain.size(), codec,
                             sopt_.tier.codec_min_ratio, &coded)) {
        disk_kind =
            f.kind == kBaseFrame ? kCodedBaseFrame : kCodedDeltaFrame;
      }
    }
    b.disk_kinds.push_back(disk_kind);
    b.bufs.push_back(is_coded_kind(disk_kind) ? std::move(coded)
                                              : std::move(plain));
    b.bytes += b.bufs.back().size();
  }

  if (!file_op_allowed("archive.frame", b.bytes)) {
    st_dropped_.fetch_add(b.frames.size(), std::memory_order_relaxed);
    return;
  }
  // Crash-simulation budget: clamp the batch to the remaining bytes. A
  // clamped batch is still submitted — the device ends up with a torn
  // batch tail, exactly the shape a process kill mid-append leaves.
  uint64_t budget = write_budget_.load(std::memory_order_acquire);
  uint64_t allowed = b.bytes;
  bool clamped = false;
  if (budget < allowed) {
    allowed = budget;
    clamped = true;
  }
  bool want_sync = sopt_.fsync_each_epoch && !clamped;
  if (want_sync && !file_op_allowed("archive.fsync", 0)) {
    // Vetoed sync: the append lands but the "process" dies before the
    // fdatasync — write unsynced and drop the batch from accounting.
    want_sync = false;
    b.torn = true;
  }
  if (clamped) {
    b.torn = true;
    write_budget_.store(0, std::memory_order_release);
    dead_.store(true, std::memory_order_release);
    cv_space_.notify_all();
  } else if (budget != ~uint64_t{0}) {
    write_budget_.store(budget - allowed, std::memory_order_release);
  }
  if (b.torn) {
    // Counted here, not at reap: a dead writer's drain() does not wait for
    // the ring, so the drop must be visible as soon as the kill lands.
    st_dropped_.fetch_add(b.frames.size(), std::memory_order_relaxed);
  }
  if (allowed == 0 && !want_sync) return;
  std::vector<iovec> iov;
  uint64_t left = allowed;
  for (auto& buf : b.bufs) {
    if (left == 0) break;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(buf.size(), left));
    iov.push_back(iovec{buf.data(), n});
    left -= n;
  }
  b.ticket =
      engine_->submit(fd_, append_off_, std::move(iov), allowed, want_sync);
  b.synced = want_sync;
  append_off_ += allowed;
}

void ArchiveWriter::finish_batch(Batch& b, bool io_ok) {
  if (!io_ok) {
    if (!dead_.load(std::memory_order_acquire)) {
      CRPM_LOG_WARN("archive %s: batch write failed — archiving disabled",
                    path_.c_str());
      dead_.store(true, std::memory_order_release);
      cv_space_.notify_all();
    }
    st_dropped_.fetch_add(b.frames.size(), std::memory_order_relaxed);
    return;
  }
  if (b.torn) return;  // already counted dropped at submit
  // Completion-side crash point: the batch is durable, but the process
  // dies before any of its in-memory effects (stats, observers, shadow).
  if (!file_op_allowed("tier.complete", b.bytes)) {
    st_dropped_.fetch_add(b.frames.size(), std::memory_order_relaxed);
    return;
  }
  FrameObserver obs;
  {
    std::lock_guard<std::mutex> lk(obs_mu_);
    obs = observer_;
  }
  for (size_t i = 0; i < b.frames.size(); ++i) {
    const PendingFrame& f = b.frames[i];
    st_epochs_.fetch_add(1, std::memory_order_relaxed);
    if (f.kind == kBaseFrame) {
      st_bases_.fetch_add(1, std::memory_order_relaxed);
    }
    st_blocks_.fetch_add(f.blocks.size(), std::memory_order_relaxed);
    st_raw_bytes_.fetch_add(b.raw_lens[i], std::memory_order_relaxed);
    if (is_coded_kind(b.disk_kinds[i])) {
      st_coded_.fetch_add(1, std::memory_order_relaxed);
    }
    charge_io(b.bufs[i].size(), b.synced && i + 1 == b.frames.size());
    if (crpm_stats_ != nullptr) {
      crpm_stats_->add_archive_epoch(b.bufs[i].size());
    }
    if (obs) {
      obs(f.epoch, b.disk_kinds[i], b.bufs[i].data(), b.bufs[i].size());
    }
    if (sopt_.compact_every != 0) {
      // Maintain the running image and schedule a fold when the chain
      // grows long. The fold itself is deferred until the ring drains.
      if (f.kind == kBaseFrame) {
        std::fill(shadow_.begin(), shadow_.end(), 0);
        deltas_since_base_ = 0;
      }
      for (size_t j = 0; j < f.blocks.size(); ++j) {
        std::memcpy(shadow_.data() + f.blocks[j] * block_size_,
                    f.payload.data() + j * block_size_, block_size_);
      }
      shadow_epoch_ = f.epoch;
      shadow_roots_ = f.roots;
      if (f.kind == kDeltaFrame &&
          ++deltas_since_base_ >= sopt_.compact_every) {
        compact_pending_ = true;
      }
    }
  }
  st_batches_.fetch_add(1, std::memory_order_relaxed);
}

void ArchiveWriter::stage(PendingFrame& f) {
  if (f.kind == kDeltaFrame) {
    // resize over a recycled frame reuses its capacity; the copies below
    // overwrite every byte.
    f.payload.resize(f.blocks.size() * block_size_);
    // One copy per run of consecutive dirty blocks (block indices arrive
    // sorted): applications dirty objects, not isolated blocks, so runs are
    // common and sequential copies beat a per-block gather.
    for (size_t i = 0; i < f.blocks.size();) {
      size_t j = i + 1;
      while (j < f.blocks.size() && f.blocks[j] == f.blocks[j - 1] + 1) ++j;
      stream_copy(f.payload.data() + i * block_size_,
                  f.src + f.blocks[i] * block_size_, (j - i) * block_size_);
      i = j;
    }
    _mm_sfence();  // staged payload visible before cv_staged_ releases f.src
  } else {
    // Base frame: gather every non-zero block of the region.
    f.blocks.clear();
    f.payload.clear();
    const uint64_t nr = region_size_ / block_size_;
    for (uint64_t b = 0; b < nr; ++b) {
      const uint8_t* p = f.src + b * block_size_;
      bool zero = p[0] == 0 && std::memcmp(p, p + 1, block_size_ - 1) == 0;
      if (zero) continue;
      f.blocks.push_back(b);
      f.payload.insert(f.payload.end(), p, p + block_size_);
    }
  }
  f.src = nullptr;
}

ArchiveWriter::PendingFrame* ArchiveWriter::find_unstaged() {
  for (PendingFrame& q : queue_) {
    if (q.state == PendingFrame::kUnstaged) return &q;
  }
  return nullptr;
}

void ArchiveWriter::stager() {
  // Unlike the writer, the stager keeps the default scheduling policy: its
  // work is one bounded copy per epoch that the committing leader may be
  // sleeping on in wait_captured(), so it must win the CPU from the
  // (SCHED_IDLE) writer.
  for (;;) {
    PendingFrame* uf = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Defer to an active wait_captured(): the leader steals staging work
      // rather than sleeping, and a frame this thread claimed but got
      // preempted on would pin that leader to OUR next CPU slice.
      cv_stage_work_.wait(lk, [&] {
        return stop_ ||
               (capture_waiters_ == 0 && find_unstaged() != nullptr);
      });
      uf = find_unstaged();
      if (uf == nullptr) {
        if (stop_) return;
        continue;
      }
      uf->state = PendingFrame::kStaging;
    }
    // Copy with mu_ released: the claim (kStaging) keeps this frame ours,
    // and deque references survive the producer's push_back / the worker's
    // pop_front of other (staged) frames.
    stage(*uf);
    {
      std::lock_guard<std::mutex> lk(mu_);
      uf->state = PendingFrame::kStaged;
      --unstaged_;
    }
    cv_staged_.notify_all();  // wait_captured()
    cv_idle_.notify_all();    // drain()
    cv_work_.notify_one();    // the front may have become writable
  }
}

void ArchiveWriter::wait_captured() {
  std::unique_lock<std::mutex> lk(mu_);
  // With a spare core the stager staged the copy during the flush phase —
  // grant it a short grace so an in-flight copy lands without charging
  // the commit path (cpu_vs_off) for work a background thread was about
  // to finish anyway.
  if (unstaged_ != 0) {
    cv_staged_.wait_for(lk, std::chrono::microseconds(200),
                        [&] { return unstaged_ == 0; });
  }
  // Work stealing instead of sleeping further: the leader is stopped
  // anyway, and on a saturated machine waiting for the stager thread to
  // be scheduled turns a bounded memcpy into a scheduling-latency tail
  // charged to the capture window. Claim whatever is still unstaged and
  // copy it here (the stager defers to us while capture_waiters_ is up);
  // only a frame the stager already claimed mid-copy is waited out.
  ++capture_waiters_;
  bool staged_any = false;
  for (;;) {
    PendingFrame* uf = find_unstaged();
    if (uf == nullptr) break;
    uf->state = PendingFrame::kStaging;
    lk.unlock();
    stage(*uf);
    lk.lock();
    uf->state = PendingFrame::kStaged;
    --unstaged_;
    staged_any = true;
  }
  --capture_waiters_;
  if (unstaged_ != 0) cv_staged_.wait(lk, [&] { return unstaged_ == 0; });
  // One wake at the end, not per frame: the woken writer/stager must not
  // preempt the stopped leader mid-capture.
  if (staged_any) cv_work_.notify_one();  // the front became writable
  cv_idle_.notify_all();                  // drain() also waits out staging
  if (capture_waiters_ == 0) cv_stage_work_.notify_one();
}

bool ArchiveWriter::raw_write(int fd, const void* buf, size_t len) {
  if (!file_op_allowed(io_site_, len)) return false;
  uint64_t budget = write_budget_.load(std::memory_order_acquire);
  size_t allowed = len;
  if (budget < len) allowed = static_cast<size_t>(budget);
  const auto* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < allowed) {
    ssize_t n = ::write(fd, p + done, allowed - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      CRPM_LOG_WARN("archive %s: write failed: %s — archiving disabled",
                    path_.c_str(), std::strerror(errno));
      dead_.store(true, std::memory_order_release);
      cv_space_.notify_all();
      return false;
    }
    done += static_cast<size_t>(n);
  }
  if (budget != ~uint64_t{0}) {
    write_budget_.store(budget - allowed, std::memory_order_release);
  }
  if (allowed < len) {
    // Simulated kill mid-append: the file now ends in a torn frame.
    dead_.store(true, std::memory_order_release);
    cv_space_.notify_all();
    return false;
  }
  return true;
}

void ArchiveWriter::charge_io(uint64_t bytes, bool fsynced) {
  st_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (fsynced) st_fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (dev_ != nullptr) {
    dev_->stats().add_archive_write(bytes);
    if (fsynced) dev_->stats().add_archive_fsync();
    const CostModel& m = dev_->cost_model();
    if (m.enabled && m.archive_write_ns_per_kb > 0.0) {
      spin_for_ns(m.archive_write_ns_per_kb * double(bytes) / 1024.0);
    }
  }
}

void ArchiveWriter::set_frame_observer(FrameObserver obs) {
  std::lock_guard<std::mutex> lk(obs_mu_);
  observer_ = std::move(obs);
}

void ArchiveWriter::set_cold_observer(ColdObserver obs) {
  std::lock_guard<std::mutex> lk(obs_mu_);
  cold_observer_ = std::move(obs);
}

void ArchiveWriter::set_file_op_hook(FileOpHook hook) {
  std::lock_guard<std::mutex> lk(obs_mu_);
  file_op_hook_ = std::move(hook);
}

bool ArchiveWriter::file_op_allowed(const char* site, uint64_t bytes) {
  FileOpHook hook;
  {
    std::lock_guard<std::mutex> lk(obs_mu_);
    hook = file_op_hook_;
  }
  if (!hook || hook(site, bytes)) return true;
  dead_.store(true, std::memory_order_release);
  cv_space_.notify_all();
  return false;
}

bool ArchiveWriter::store_cold_base(
    uint64_t epoch, const std::array<uint64_t, kNumRoots>& roots) {
  // Serialize the fold state (every non-zero shadow block) as a base
  // frame, then negotiate a codec for it — the cold tier always tries to
  // compress, defaulting to LZB when the hot path runs plain.
  std::vector<uint64_t> blocks;
  std::vector<uint8_t> payload;
  const uint64_t nr = region_size_ / block_size_;
  for (uint64_t blk = 0; blk < nr; ++blk) {
    const uint8_t* p = shadow_.data() + blk * block_size_;
    bool zero = p[0] == 0 && std::memcmp(p, p + 1, block_size_ - 1) == 0;
    if (zero) continue;
    blocks.push_back(blk);
    payload.insert(payload.end(), p, p + block_size_);
  }
  std::vector<uint8_t> plain;
  serialize_frame(kBaseFrame, epoch, roots, blocks, payload.data(),
                  block_size_, &plain);
  const uint32_t codec = sopt_.tier.codec != tier::kCodecNone
                             ? sopt_.tier.codec
                             : tier::kCodecLzb;
  std::vector<uint8_t> disk;
  if (!tier::encode_frame(plain.data(), plain.size(), codec,
                          sopt_.tier.codec_min_ratio, &disk)) {
    disk = std::move(plain);  // incompressible: store the plain base
  }
  ArchiveHeader h = make_header(block_size_, region_size_, segment_size_);
  tier::ColdTier cold(tier::ColdTier::dir_for(path_));
  io_site_ = "tier.cold";
  std::string err;
  bool ok = cold.store(
      epoch, &h, sizeof(h), disk.data(), disk.size(),
      [this](int fd, const void* buf, size_t len) {
        return raw_write(fd, buf, len);
      },
      sopt_.tier.cold_keep, &err);
  io_site_ = "archive.frame";
  if (!ok) {
    CRPM_LOG_WARN("archive %s: cold-tier store for epoch %llu failed: %s",
                  path_.c_str(), (unsigned long long)epoch, err.c_str());
    return false;
  }
  st_cold_.fetch_add(1, std::memory_order_relaxed);
  charge_io(sizeof(h) + disk.size(), true);
  ColdObserver cobs;
  {
    std::lock_guard<std::mutex> lk(obs_mu_);
    cobs = cold_observer_;
  }
  if (cobs) cobs(epoch, disk.data(), disk.size());
  return true;
}

void ArchiveWriter::compact(uint64_t epoch,
                            const std::array<uint64_t, kNumRoots>& roots) {
  if (sopt_.tier.cold_enabled && !store_cold_base(epoch, roots)) {
    // Without the cold copy the fold would silently retire epochs that
    // were promised a cold base; keep the delta chain and retry at the
    // next fold point (a hook veto killed the writer anyway).
    CRPM_LOG_WARN("archive %s: skipping compaction, cold store failed",
                  path_.c_str());
    return;
  }
  io_site_ = "archive.compact";
  CompactionResult r = fold_to_base(
      path_, make_header(block_size_, region_size_, segment_size_), epoch,
      roots,
      shadow_, block_size_,
      [this](int fd, const void* buf, size_t len) {
        return raw_write(fd, buf, len);
      });
  io_site_ = "archive.frame";
  if (!r.ok) {
    CRPM_LOG_WARN("archive %s: compaction failed (%s); keeping delta chain",
                  path_.c_str(), r.error.c_str());
    return;
  }
  // Switch appends over to the compacted file. Batches are written at
  // explicit offsets, so track the new end instead of O_APPEND.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR, 0644);
  CRPM_CHECK(fd_ >= 0, "reopen(%s) after compaction failed: %s",
             path_.c_str(), std::strerror(errno));
  off_t end = ::lseek(fd_, 0, SEEK_END);
  CRPM_CHECK(end >= 0, "lseek failed: %s", std::strerror(errno));
  append_off_ = static_cast<uint64_t>(end);
  deltas_since_base_ = 0;
  st_compactions_.fetch_add(1, std::memory_order_relaxed);
  charge_io(r.bytes_written, true);
  if (crpm_stats_ != nullptr) crpm_stats_->add_archive_compaction();
}

void ArchiveWriter::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  flush_now_ = true;
  if (!queue_.empty() || busy_ || !inflight_.empty()) boost_writer();
  cv_work_.notify_all();
  // Even when dead (writes are dropped), wait out staging: unstaged frames
  // still point into the container's working state.
  cv_idle_.wait(lk, [&] {
    return unstaged_ == 0 &&
           ((queue_.empty() && !busy_ && inflight_.empty() &&
             !compact_pending_) ||
            dead_.load(std::memory_order_acquire));
  });
  flush_now_ = false;
}

void ArchiveWriter::kill_after_bytes(uint64_t budget) {
  write_budget_.store(budget, std::memory_order_release);
}

ArchiveWriterStats ArchiveWriter::writer_stats() const {
  ArchiveWriterStats s;
  s.epochs_appended = st_epochs_.load(std::memory_order_relaxed);
  s.base_frames = st_bases_.load(std::memory_order_relaxed);
  s.bytes_appended = st_bytes_.load(std::memory_order_relaxed);
  s.raw_bytes = st_raw_bytes_.load(std::memory_order_relaxed);
  s.coded_frames = st_coded_.load(std::memory_order_relaxed);
  s.blocks_appended = st_blocks_.load(std::memory_order_relaxed);
  s.batches = st_batches_.load(std::memory_order_relaxed);
  s.queue_hwm = st_qhwm_.load(std::memory_order_relaxed);
  s.stall_ns = st_stall_ns_.load(std::memory_order_relaxed);
  s.fsyncs = st_fsyncs_.load(std::memory_order_relaxed);
  s.compactions = st_compactions_.load(std::memory_order_relaxed);
  s.cold_bases = st_cold_.load(std::memory_order_relaxed);
  s.dropped_epochs = st_dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crpm::snapshot
