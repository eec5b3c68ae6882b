#include "net/kv_service.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "scrub/scrubber.h"
#include "snapshot/lazy_restore.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm::net {

namespace {

// Read-only persistence policy over a LazyRestorer's faulting image: the
// PHashMap reader code runs unmodified against the archived bytes, and any
// chunk a lookup touches materializes on first access. Mutators CHECK-fail
// — mutations wait for the real container instead of ever reaching this.
class LazyImagePolicy {
 public:
  explicit LazyImagePolicy(const snapshot::LazyRestorer& lz) : lz_(lz) {}

  void* allocate(size_t) {
    CRPM_CHECK(false, "lazy restore image is read-only");
    return nullptr;
  }
  void deallocate(void*, size_t) {
    CRPM_CHECK(false, "lazy restore image is read-only");
  }
  void on_write(const void*, size_t) {
    CRPM_CHECK(false, "lazy restore image is read-only");
  }
  void checkpoint() { CRPM_CHECK(false, "lazy restore image is read-only"); }
  void set_root(uint32_t, uint64_t) {
    CRPM_CHECK(false, "lazy restore image is read-only");
  }
  uint64_t get_root(uint32_t slot) { return lz_.root(slot); }
  uint64_t to_offset(const void* p) {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p) -
                                 lz_.data());
  }
  void* from_offset(uint64_t off) {
    return const_cast<uint8_t*>(lz_.data()) + off;
  }
  bool fresh() const { return false; }

 private:
  const snapshot::LazyRestorer& lz_;
};

static_assert(PersistencePolicy<LazyImagePolicy>);

}  // namespace

struct KvService::LazyState {
  std::string container_path;
  CrpmOptions opt;  // geometry finish_file builds the container with
  std::unique_ptr<snapshot::LazyRestorer> restorer;
  // Declared after restorer so the reader map dies before the image it
  // points into.
  std::unique_ptr<LazyImagePolicy> policy;
  std::unique_ptr<PHashMap<uint64_t, KvVal, LazyImagePolicy>> map;
};

KvService::KvService(const Config& cfg) : cfg_(cfg) {
  Stopwatch ttfq;
  if (cfg_.lazy_restore) {
    const std::string ctr = StateStore::container_path(cfg_.dir, 0);
    const std::string snap = StateStore::archive_path(cfg_.dir, 0);
    if (!StateStore::container_file_usable(ctr) &&
        std::filesystem::exists(snap)) {
      auto st = std::make_unique<LazyState>();
      st->container_path = ctr;
      st->opt.main_region_size = cfg_.capacity_bytes;
      st->opt.restore_workers = cfg_.restore_workers;
      st->restorer =
          snapshot::restore_lazy(snap, Container::kLatestEpoch, st->opt);
      if (st->restorer->ok() && st->restorer->root(0) != 0) {
        for (const auto& w : st->restorer->warnings()) {
          CRPM_LOG_WARN("lazy restore: %s", w.c_str());
        }
        st->policy = std::make_unique<LazyImagePolicy>(*st->restorer);
        st->map =
            std::make_unique<PHashMap<uint64_t, KvVal, LazyImagePolicy>>(
                *st->policy, cfg_.buckets);
        lazy_ = std::move(st);
      } else {
        CRPM_LOG_WARN(
            "lazy restore unavailable (%s); falling back to the blocking "
            "restore path",
            st->restorer->ok() ? "archived epoch carries no map root"
                               : st->restorer->error().c_str());
      }
    }
  }
  if (lazy_ != nullptr) {
    // This run IS an archive recovery, whatever level the eventual
    // container open of the rebuilt file reports; record it before
    // serving so an offline inspect after a crash mid-restore sees it.
    write_marker(recovery_source_name(RecoverySource::kArchive));
    finish_thread_ = std::thread([this] { finish_restore(); });
  } else {
    open_store();
    ready_.store(true, std::memory_order_release);
  }
  ttfq_ms_ = ttfq.elapsed_sec() * 1e3;
  ckpt_thread_ = std::thread([this] { ckpt_loop(); });
}

void KvService::open_store() {
  StateStore::Config sc;
  sc.backend = CkptBackend::kCrpmDefault;
  sc.dir = cfg_.dir;
  sc.capacity_bytes = cfg_.capacity_bytes;
  sc.async_checkpoint = true;
  sc.async_workers = cfg_.async_workers == 0 ? 1 : cfg_.async_workers;
  sc.max_inflight_epochs =
      cfg_.max_inflight_epochs == 0 ? 1 : cfg_.max_inflight_epochs;
  sc.commit_shards = cfg_.commit_shards == 0 ? 1 : cfg_.commit_shards;
  sc.archive = cfg_.archive;
  sc.archive_compact_every = cfg_.archive_compact_every;
  sc.archive_tier = cfg_.archive_tier;
  sc.restore_workers = cfg_.restore_workers;
  store_ = std::make_unique<StateStore>(sc);
  policy_ = std::make_unique<CrpmPolicy>(*store_->container(),
                                         *store_->heap());
  map_ = std::make_unique<Map>(*policy_, cfg_.buckets);
  map_->set_max_load_factor(cfg_.max_load_factor);
  captured_epoch_.store(store_->container()->committed_epoch(),
                        std::memory_order_relaxed);

  // Release parked durable responses per *joined* commit: the container
  // notifies each coordinated commit (FIFO by epoch) from whichever
  // pipeline participant ran the join, so tag release keeps pace with the
  // multi-window pipeline instead of serializing capture on commit.
  store_->container()->set_commit_callback([this](uint64_t epoch) {
    std::function<void(uint64_t)> cb;
    {
      std::lock_guard<std::mutex> lk(cb_mu_);
      cb = commit_cb_;
    }
    if (cb) cb(epoch);
  });

  // Record which recovery level produced this state, for offline
  // inspection (crpm_inspect kvd) after the server is gone. A lazy
  // recovery already wrote "archive" and keeps it: the container open
  // above only saw the file the background finish built.
  if (lazy_ == nullptr) {
    write_marker(recovery_source_name(store_->last_recovery()));
  }

  if (cfg_.scrub_interval_ms > 0) start_scrubber();
}

void KvService::finish_restore() {
  snapshot::RestoreResult res =
      lazy_->restorer->finish_file(lazy_->container_path, lazy_->opt);
  if (res.container == nullptr) {
    // The image already proved restorable at start(), so a failed finish
    // is the filesystem side of the swap. open_store() below re-runs the
    // blocking restore triage against the same archive.
    CRPM_LOG_WARN("lazy restore finish failed: %s", res.error.c_str());
  } else {
    res.container.reset();  // re-opened by StateStore below
  }
  open_store();
  {
    std::lock_guard<std::mutex> lk(ready_mu_);
    ready_.store(true, std::memory_order_release);
  }
  ready_cv_.notify_all();
}

void KvService::start_scrubber() {
  scrub::ScrubOptions so;
  so.container_path = StateStore::container_path(cfg_.dir, 0);
  if (cfg_.archive || cfg_.archive_tier) {
    so.archive_path = StateStore::archive_path(cfg_.dir, 0);
  }
  so.stats = &store_->container()->stats();
  so.interval_ms = cfg_.scrub_interval_ms;
  scrubber_ = std::make_unique<scrub::Scrubber>(std::move(so));
  scrubber_->start();
}

void KvService::write_marker(const char* name) {
  std::string marker = cfg_.dir + "/" + kRecoveryMarker;
  if (std::FILE* f = std::fopen(marker.c_str(), "w")) {
    std::fprintf(f, "%s\n", name);
    std::fclose(f);
  }
}

void KvService::wait_ready() const {
  if (ready_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(ready_mu_);
  ready_cv_.wait(lk,
                 [this] { return ready_.load(std::memory_order_acquire); });
}

KvService::~KvService() {
  {
    std::lock_guard<std::mutex> lk(cv_mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  // The background finish owns store_ construction; after this join the
  // members below are in their final state.
  if (finish_thread_.joinable()) finish_thread_.join();
  if (scrubber_ != nullptr) scrubber_->stop();
  // Disconnect the container's commit notifications before members start
  // dying: ~StateStore still drains in-flight windows, and those commits
  // must not touch cb_mu_ (destroyed before store_).
  store_->container()->set_commit_callback(nullptr);
  // Leave uncaptured tail writes uncommitted on purpose: a shutdown is
  // indistinguishable from a crash for anything the client was never acked
  // for. Callers wanting a clean final epoch call flush() first.
  // ~StateStore drains the archive and in-flight commits.
}

bool KvService::get(uint64_t key, KvVal* out) const {
  if (!ready_.load(std::memory_order_acquire)) {
    // Archive image: immutable and never unmapped while the service
    // lives, so no lock. Chunks the lookup touches fault-materialize.
    return lazy_->map->find(key, out);
  }
  std::shared_lock<std::shared_mutex> rl(rw_mu_);
  return map_->find(key, out);
}

uint64_t KvService::put(uint64_t key, const KvVal& v) {
  wait_ready();
  std::lock_guard<std::mutex> wl(write_mu_);
  {
    std::unique_lock<std::shared_mutex> ul(rw_mu_);
    map_->put(key, v);
  }
  dirty_ = true;
  return captured_epoch_.load(std::memory_order_relaxed) + 1;
}

uint64_t KvService::del(uint64_t key, bool* found) {
  wait_ready();
  std::lock_guard<std::mutex> wl(write_mu_);
  bool erased;
  {
    std::unique_lock<std::shared_mutex> ul(rw_mu_);
    erased = map_->erase(key);
  }
  if (found != nullptr) *found = erased;
  if (!erased) return 0;
  dirty_ = true;
  return captured_epoch_.load(std::memory_order_relaxed) + 1;
}

uint64_t KvService::scan(
    uint64_t cursor, uint64_t limit,
    const std::function<void(uint64_t, const KvVal&)>& fn) const {
  if (!ready_.load(std::memory_order_acquire)) {
    return lazy_->map->scan(cursor, limit, fn);
  }
  std::shared_lock<std::shared_mutex> rl(rw_mu_);
  return map_->scan(cursor, limit, fn);
}

uint64_t KvService::key_count() const {
  if (!ready_.load(std::memory_order_acquire)) return lazy_->map->size();
  std::shared_lock<std::shared_mutex> rl(rw_mu_);
  return map_->size();
}

uint64_t KvService::bucket_count() const {
  if (!ready_.load(std::memory_order_acquire)) {
    return lazy_->map->bucket_count();
  }
  std::shared_lock<std::shared_mutex> rl(rw_mu_);
  return map_->bucket_count();
}

uint64_t KvService::committed_epoch() const {
  if (!ready_.load(std::memory_order_acquire)) {
    return lazy_->restorer->epoch();
  }
  return store_->container()->committed_epoch();
}

uint64_t KvService::request_checkpoint() {
  wait_ready();
  uint64_t tag;
  {
    std::lock_guard<std::mutex> wl(write_mu_);
    // Clean: nothing new to capture, but earlier captures may still be in
    // flight in the pipeline, so the tag that makes everything handed out
    // so far durable is the highest *captured* epoch, not the committed one.
    if (!dirty_) return captured_epoch_.load(std::memory_order_relaxed);
    tag = captured_epoch_.load(std::memory_order_relaxed) + 1;
  }
  kick();
  return tag;
}

void KvService::kick() {
  {
    std::lock_guard<std::mutex> lk(cv_mu_);
    kicked_ = true;
  }
  cv_.notify_one();
}

void KvService::set_commit_callback(std::function<void(uint64_t)> cb) {
  std::lock_guard<std::mutex> lk(cb_mu_);
  commit_cb_ = std::move(cb);
}

void KvService::flush() {
  uint64_t target = request_checkpoint();
  while (committed_epoch() < target) {
    kick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void KvService::ckpt_loop() {
  const bool timed = cfg_.interval_ms > 0;
  const auto interval = std::chrono::duration<double, std::milli>(
      timed ? cfg_.interval_ms : 1.0);
  std::unique_lock<std::mutex> lk(cv_mu_);
  while (!stop_) {
    if (timed) {
      cv_.wait_for(lk, interval, [this] { return stop_ || kicked_; });
    } else {
      cv_.wait(lk, [this] { return stop_ || kicked_; });
    }
    if (stop_) break;
    kicked_ = false;
    lk.unlock();
    capture_once();
    lk.lock();
  }
}

void KvService::capture_once() {
  {
    std::lock_guard<std::mutex> wl(write_mu_);
    if (!dirty_) return;
    dirty_ = false;
    // Capture: stop-the-world for writers only; readers keep running.
    store_->container()->checkpoint();
    captured_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  // Do NOT wait for the commit: up to max_inflight_epochs captured windows
  // ride the pipeline concurrently, and the container fires the commit
  // callback per joined commit (FIFO), which is what releases parked
  // durable responses. checkpoint() itself backpressures when all windows
  // are open, so captures can't outrun the pipeline.
}

bool KvService::recovered() const {
  return last_recovery() != RecoverySource::kFresh;
}

RecoverySource KvService::last_recovery() const {
  if (lazy_ != nullptr) return RecoverySource::kArchive;
  return store_->last_recovery();
}

StateStore& KvService::store() {
  wait_ready();
  return *store_;
}

std::string KvService::stats_text() const {
  if (!ready_.load(std::memory_order_acquire)) {
    std::string out = "recovery=archive(restoring)";
    out += " committed_epoch=" + std::to_string(lazy_->restorer->epoch());
    out += " keys=" + std::to_string(lazy_->map->size());
    out += " restore_chunks=" +
           std::to_string(lazy_->restorer->chunks_ready()) + "/" +
           std::to_string(lazy_->restorer->chunks_total());
    return out;
  }
  auto snap = store_->container()->stats().snapshot();
  std::string out =
      "recovery=" + std::string(recovery_source_name(last_recovery()));
  out += " committed_epoch=" + std::to_string(committed_epoch());
  out += " keys=" + std::to_string(key_count());
  out += " ";
  out += snap.to_string();
  return out;
}

}  // namespace crpm::net
