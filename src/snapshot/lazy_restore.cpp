#include "snapshot/lazy_restore.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "tier/cold.h"
#include "util/logging.h"

namespace crpm::snapshot {

namespace {

constexpr uint8_t kCold = 0;
constexpr uint8_t kBusy = 1;
constexpr uint8_t kReady = 2;

constexpr size_t kMaxRestorers = 8;

struct FaultRegistry {
  std::atomic<LazyRestorer*> slots[kMaxRestorers]{};
  std::atomic<bool> installed{false};
  struct sigaction old_segv{};
};

FaultRegistry g_faults;

}  // namespace

struct LazyRestorer::Plan {
  std::vector<const uint8_t*> recs;  // chain-ordered records for the chunk
};

// Routes SIGSEGV on a restorer's read view to that restorer's chunk apply.
// Everything on this path is async-signal-safe: atomics, memcpy into the
// write view, and the mprotect syscall. A foreign fault chain-calls the
// saved previous handler directly — the router stays installed, because a
// later legitimate fault on a still-active read view must still reach
// materialize; only when the previous disposition is SIG_DFL does the
// router unhook (the re-executed faulting instruction then takes the
// default action and the process dies anyway).
struct LazyFaultRouter {
  static void on_fault(int sig, siginfo_t* si, void* uc) {
    void* addr = si != nullptr ? si->si_addr : nullptr;
    for (auto& slot : g_faults.slots) {
      LazyRestorer* r = slot.load(std::memory_order_acquire);
      if (r != nullptr && r->owns(addr)) {
        r->materialize_addr(addr);
        return;
      }
    }
    const struct sigaction& prev = g_faults.old_segv;
    if ((prev.sa_flags & SA_SIGINFO) != 0) {
      if (prev.sa_sigaction != nullptr) {
        prev.sa_sigaction(sig, si, uc);
        return;
      }
    } else if (prev.sa_handler == SIG_IGN) {
      return;
    } else if (prev.sa_handler != SIG_DFL && prev.sa_handler != nullptr) {
      prev.sa_handler(sig);
      return;
    }
    ::sigaction(sig, &g_faults.old_segv, nullptr);
  }
};

void LazyRestorer::install_fault_handler() {
  bool expected = false;
  if (!g_faults.installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa{};
  sa.sa_flags = SA_SIGINFO;
  sa.sa_sigaction = [](int sig, siginfo_t* si, void* uc) {
    LazyFaultRouter::on_fault(sig, si, uc);
  };
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_faults.old_segv);
}

LazyRestorer::LazyRestorer() = default;

LazyRestorer::~LazyRestorer() { unmap(); }

void LazyRestorer::unmap() {
  if (registry_slot_ >= 0) {
    g_faults.slots[registry_slot_].store(nullptr, std::memory_order_release);
    registry_slot_ = -1;
  }
  if (read_base_ != nullptr && read_base_ != write_base_) {
    ::munmap(read_base_, map_size_);
  }
  if (write_base_ != nullptr) ::munmap(write_base_, map_size_);
  read_base_ = write_base_ = nullptr;
}

bool LazyRestorer::owns(const void* addr) const {
  if (read_base_ == nullptr || read_base_ == write_base_) return false;
  const auto* p = static_cast<const uint8_t*>(addr);
  return p >= read_base_ && p < read_base_ + map_size_;
}

void LazyRestorer::materialize_addr(const void* addr) {
  const uint64_t off =
      static_cast<uint64_t>(static_cast<const uint8_t*>(addr) - read_base_);
  const uint64_t ci = off / chunk_size_;
  if (ci < nr_chunks_) materialize(ci);
}

void LazyRestorer::materialize(uint64_t chunk_index) {
  auto& st = chunk_state_[chunk_index];
  uint8_t expect = kCold;
  if (!st.compare_exchange_strong(expect, kBusy,
                                  std::memory_order_acq_rel)) {
    // Another thread owns the apply; its mprotect + ready store publish
    // the finished chunk.
    while (st.load(std::memory_order_acquire) != kReady) ::sched_yield();
    return;
  }
  for (const uint8_t* p : plans_[chunk_index].recs) {
    uint64_t idx = 0;
    std::memcpy(&idx, p, 8);
    std::memcpy(write_base_ + idx * block_size_, p + 8, block_size_);
  }
  if (read_base_ != write_base_) {
    const uint64_t off = chunk_index * chunk_size_;
    const uint64_t len = std::min(chunk_size_, map_size_ - off);
    ::mprotect(read_base_ + off, len, PROT_READ);
  }
  st.store(kReady, std::memory_order_release);
  ready_chunks_.fetch_add(1, std::memory_order_acq_rel);
  detail::restore_step("lazy.chunk");
}

void LazyRestorer::ensure_range(uint64_t off, uint64_t len) {
  if (!ok_ || len == 0 || off >= region_size_) return;
  const uint64_t end = std::min(off + len, region_size_);
  for (uint64_t ci = off / chunk_size_; ci * chunk_size_ < end; ++ci) {
    materialize(ci);
  }
}

void LazyRestorer::materialize_all(uint32_t workers) {
  if (!ok_) return;
  std::atomic<uint64_t> cursor{0};
  auto sweep = [&]() {
    for (;;) {
      const uint64_t ci = cursor.fetch_add(1, std::memory_order_relaxed);
      if (ci >= nr_chunks_) break;
      materialize(ci);
      if (throttle_us_ > 0) ::usleep(static_cast<useconds_t>(throttle_us_));
    }
  };
  if (workers <= 1) {
    sweep();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (uint32_t w = 1; w < workers; ++w) pool.emplace_back(sweep);
  sweep();
  for (auto& t : pool) t.join();
}

bool LazyRestorer::start(const std::string& archive_path, uint64_t epoch,
                         const CrpmOptions& opt) {
  CRPM_CHECK(write_base_ == nullptr, "LazyRestorer::start called twice");
  uint64_t target = epoch;
  std::vector<EpochInfo> chain;
  bool have = false;
  std::string hot_error;
  std::unique_ptr<ArchiveReader> cold_reader;
  ArchiveReader reader(archive_path);
  const ArchiveReader* src = &reader;
  warnings_ = reader.scan().warnings;
  if (!reader.ok()) {
    hot_error = "not a valid snapshot archive: " + archive_path;
  } else {
    bool have_target = true;
    if (target == Container::kLatestEpoch) {
      if (reader.latest_restorable(&target)) {
        const auto& epochs = reader.scan().epochs;
        if (!epochs.empty() && epochs.back().epoch != target) {
          warnings_.push_back("newest archived epoch " +
                              std::to_string(epochs.back().epoch) +
                              " is not restorable; falling back to epoch " +
                              std::to_string(target));
        }
      } else {
        have_target = false;
        hot_error = "archive holds no restorable epoch";
      }
    }
    if (have_target && reader.chain(target, &chain, &hot_error)) {
      have = true;
    }
  }
  if (!have) {
    // Same cold-tier fallback as restore(): a cold base is a standalone
    // one-frame archive, so the chain is that single frame.
    auto entries = tier::ColdTier::list_for_archive(archive_path);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (epoch != Container::kLatestEpoch && it->epoch != epoch) continue;
      cold_reader = std::make_unique<ArchiveReader>(it->path);
      std::string cerr;
      if (cold_reader->ok() &&
          cold_reader->chain(it->epoch, &chain, &cerr)) {
        src = cold_reader.get();
        target = it->epoch;
        warnings_.push_back("epoch " + std::to_string(target) +
                            " served from the cold tier");
        have = true;
        break;
      }
    }
  }
  if (!have) {
    error_ = hot_error;
    return false;
  }

  const ArchiveHeader& h = src->scan().header;
  region_size_ = h.region_size;
  block_size_ = h.block_size;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  chunk_size_ = std::max<uint64_t>(h.segment_size, page);
  map_size_ = (region_size_ + page - 1) / page * page;
  nr_chunks_ = (region_size_ + chunk_size_ - 1) / chunk_size_;

  if (!src->frame_roots(chain.back(), &roots_)) {
    error_ = "archive read failed while loading roots";
    return false;
  }

  // Stage the chain's record regions in DRAM, across the restore workers.
  // Their CRCs were verified by the scan (and by the decode, for coded
  // frames), so the per-chunk apply can run from a signal handler without
  // re-hashing.
  frames_.reserve(chain.size());
  auto keep = [&](size_t, std::vector<uint8_t>& recs, std::string*) {
    frames_.push_back(std::move(recs));
    return true;
  };
  if (!src->load_chain(chain, detail::clamped_workers(opt), 0, keep,
                       &error_)) {
    return false;
  }

  // Build the per-chunk apply plans. A block never straddles chunks:
  // chunk_size_ is a multiple of block_size_ (both powers of two).
  const uint64_t rec = record_bytes(block_size_);
  plans_.assign(nr_chunks_, Plan{});
  for (size_t fi = 0; fi < frames_.size(); ++fi) {
    const uint8_t* base = frames_[fi].data();
    for (uint64_t i = 0; i < chain[fi].block_count; ++i) {
      const uint8_t* p = base + i * rec;
      uint64_t idx = 0;
      std::memcpy(&idx, p, 8);
      if ((idx + 1) * block_size_ > region_size_) {
        error_ = "archived record lies outside the region";
        return false;
      }
      plans_[idx * block_size_ / chunk_size_].recs.push_back(p);
    }
  }
  chunk_state_ = std::make_unique<std::atomic<uint8_t>[]>(nr_chunks_);
  for (uint64_t i = 0; i < nr_chunks_; ++i) {
    chunk_state_[i].store(kCold, std::memory_order_relaxed);
  }

  // The image is a memfd mapped twice: the write view applies records, the
  // read view's pages become readable only when their chunk is complete.
  int mfd = -1;
#ifdef SYS_memfd_create
  mfd = static_cast<int>(::syscall(SYS_memfd_create, "crpm-lazy", 0));
#endif
  bool eager = false;
  if (mfd >= 0 && ::ftruncate(mfd, static_cast<off_t>(map_size_)) == 0) {
    write_base_ = static_cast<uint8_t*>(::mmap(
        nullptr, map_size_, PROT_READ | PROT_WRITE, MAP_SHARED, mfd, 0));
    read_base_ = static_cast<uint8_t*>(
        ::mmap(nullptr, map_size_, PROT_NONE, MAP_SHARED, mfd, 0));
    if (write_base_ == MAP_FAILED || read_base_ == MAP_FAILED) {
      if (write_base_ != MAP_FAILED) ::munmap(write_base_, map_size_);
      if (read_base_ != MAP_FAILED) ::munmap(read_base_, map_size_);
      write_base_ = read_base_ = nullptr;
    }
  }
  if (mfd >= 0) ::close(mfd);
  if (write_base_ == nullptr) {
    // No memfd (or mapping failed): single anonymous RW mapping and an
    // eager apply — correct, just without the lazy fault path.
    write_base_ = static_cast<uint8_t*>(
        ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    if (write_base_ == MAP_FAILED) {
      write_base_ = nullptr;
      error_ = "mmap of the lazy-restore image failed";
      return false;
    }
    read_base_ = write_base_;
    eager = true;
  }

  if (const char* t = std::getenv("CRPM_LAZY_THROTTLE_US")) {
    throttle_us_ = static_cast<uint64_t>(std::strtoull(t, nullptr, 10));
  }

  epoch_ = target;
  ok_ = true;
  detail::restore_step("lazy.plan");

  if (eager) {
    materialize_all(1);
    return true;
  }
  install_fault_handler();
  for (size_t s = 0; s < kMaxRestorers; ++s) {
    LazyRestorer* none = nullptr;
    if (g_faults.slots[s].compare_exchange_strong(
            none, this, std::memory_order_acq_rel)) {
      registry_slot_ = static_cast<int>(s);
      break;
    }
  }
  if (registry_slot_ < 0) {
    // Registry full: fall back to eager so unregistered faults never hit
    // a PROT_NONE page.
    materialize_all(1);
    ::mprotect(read_base_, map_size_, PROT_READ);
  }
  return true;
}

RestoreResult LazyRestorer::finish_file(const std::string& container_path,
                                        const CrpmOptions& opt) {
  RestoreResult r;
  if (!ok_) {
    r.error = error_.empty() ? "lazy restore was not started" : error_;
    return r;
  }
  materialize_all(detail::clamped_workers(opt));
  r = build_container_file(write_base_, region_size_, roots_, epoch_,
                           container_path, opt);
  r.warnings.insert(r.warnings.begin(), warnings_.begin(), warnings_.end());
  return r;
}

std::unique_ptr<LazyRestorer> restore_lazy(const std::string& archive_path,
                                           uint64_t epoch,
                                           const CrpmOptions& opt) {
  auto r = std::make_unique<LazyRestorer>();
  r->start(archive_path, epoch, opt);
  return r;
}

}  // namespace crpm::snapshot
