#include "nvm/stats.h"

#include <sstream>

namespace crpm {

PersistStatsSnapshot PersistStatsSnapshot::operator-(
    const PersistStatsSnapshot& rhs) const {
  PersistStatsSnapshot d;
  d.clwb = clwb - rhs.clwb;
  d.sfence = sfence - rhs.sfence;
  d.wbinvd = wbinvd - rhs.wbinvd;
  d.nt_stores = nt_stores - rhs.nt_stores;
  d.flushed_bytes = flushed_bytes - rhs.flushed_bytes;
  d.media_write_bytes = media_write_bytes - rhs.media_write_bytes;
  d.msync = msync - rhs.msync;
  d.archive_write_bytes = archive_write_bytes - rhs.archive_write_bytes;
  d.archive_fsync = archive_fsync - rhs.archive_fsync;
  return d;
}

std::string PersistStatsSnapshot::to_string() const {
  std::ostringstream os;
  os << "clwb=" << clwb << " sfence=" << sfence << " wbinvd=" << wbinvd
     << " nt_stores=" << nt_stores << " flushed_bytes=" << flushed_bytes
     << " media_write_bytes=" << media_write_bytes << " msync=" << msync;
  if (archive_write_bytes != 0 || archive_fsync != 0) {
    os << " archive_write_bytes=" << archive_write_bytes
       << " archive_fsync=" << archive_fsync;
  }
  return os.str();
}

namespace {

constexpr unsigned kUnclaimed = ~0u;

// Free list of thread slots: one flag per slot, set while a thread owns it.
// The release store at thread exit and the acquire exchange of the next
// claimant hand the slot's shards over with their counts intact.
std::atomic<bool> g_slot_taken[PersistStats::kShards];

thread_local unsigned t_slot = kUnclaimed;

struct SlotRelease {
  unsigned slot;
  ~SlotRelease() {
    // Persist events from later thread-exit code land in the overflow shard.
    t_slot = PersistStats::kShards;
    g_slot_taken[slot].store(false, std::memory_order_release);
  }
};

unsigned claim_slot() {
  for (unsigned i = 0; i < PersistStats::kShards; ++i) {
    if (!g_slot_taken[i].load(std::memory_order_relaxed) &&
        !g_slot_taken[i].exchange(true, std::memory_order_acquire)) {
      thread_local SlotRelease release{i};  // runs once per thread
      return t_slot = i;
    }
  }
  return t_slot = PersistStats::kShards;
}

uint64_t load(const std::atomic<uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

}  // namespace

PersistStats::Shard& PersistStats::local() {
  unsigned slot = t_slot;
  return shards_[slot != kUnclaimed ? slot : claim_slot()];
}

uint64_t PersistStats::sfence_count() const {
  uint64_t n = 0;
  for (const Shard& sh : shards_) n += load(sh.sfence_);
  return n;
}

uint64_t PersistStats::media_write_bytes() const {
  uint64_t n = 0;
  for (const Shard& sh : shards_) n += load(sh.media_write_bytes_);
  return n;
}

PersistStatsSnapshot PersistStats::snapshot() const {
  PersistStatsSnapshot s;
  for (const Shard& sh : shards_) {
    s.clwb += load(sh.clwb_);
    s.sfence += load(sh.sfence_);
    s.wbinvd += load(sh.wbinvd_);
    s.nt_stores += load(sh.nt_stores_);
    s.flushed_bytes += load(sh.flushed_bytes_);
    s.media_write_bytes += load(sh.media_write_bytes_);
    s.msync += load(sh.msync_);
    s.archive_write_bytes += load(sh.archive_write_bytes_);
    s.archive_fsync += load(sh.archive_fsync_);
  }
  return s;
}

uint64_t media_bytes_for_range(uintptr_t addr, uint64_t bytes) {
  if (bytes == 0) return 0;
  uintptr_t first = addr / kMediaLineSize;
  uintptr_t last = (addr + bytes - 1) / kMediaLineSize;
  return (last - first + 1) * kMediaLineSize;
}

}  // namespace crpm
