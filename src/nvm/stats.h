// Persistence-instruction statistics.
//
// The paper's two headline metrics are (a) checkpoint size — bytes written
// to NVM media per operation (Table 1a) — and (b) the number of sfence
// instructions issued per epoch (Table 1b). Every simulated NVM device
// maintains one of these counter blocks; benchmarks snapshot it around an
// epoch to compute per-epoch deltas.
//
// The counters sit on the persistence primitives' hot path, so they are
// sharded per thread: a thread bumps only its own cache-line-aligned shard
// with a plain relaxed load and store. A shared fetch_add would be a
// lock-prefixed instruction, and on x86 that waits for the core's pending
// streaming stores, i.e. a hidden sfence after every nt_copy. Readers sum
// the shards; the sums are exact whenever the writers are quiescent.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace crpm {

// Intel Optane DCPMM internally accesses media in 256-byte units (XPLines);
// writing a single cache line still costs one full media line. This constant
// drives the write-amplification accounting.
inline constexpr uint64_t kMediaLineSize = 256;

// CPU cache line size; clwb operates at this granularity.
inline constexpr uint64_t kCacheLineSize = 64;

struct PersistStatsSnapshot {
  uint64_t clwb = 0;            // cache-line write-backs issued
  uint64_t sfence = 0;          // store fences issued
  uint64_t wbinvd = 0;          // whole-cache flushes issued
  uint64_t nt_stores = 0;       // non-temporal store instructions (64B units)
  uint64_t flushed_bytes = 0;   // bytes covered by clwb (64B granularity)
  uint64_t media_write_bytes = 0;  // bytes charged at 256B media granularity
  uint64_t msync = 0;           // msync calls (file-backed devices only)
  uint64_t archive_write_bytes = 0;  // snapshot-archive bytes appended
  uint64_t archive_fsync = 0;        // snapshot-archive fdatasync calls

  PersistStatsSnapshot operator-(const PersistStatsSnapshot& rhs) const;
  std::string to_string() const;
};

// Thread-safe counters, one shard per thread slot (see the file comment).
class PersistStats {
 public:
  // Threads claim one of kShards slots on first use and give it back at
  // exit, so slots are recycled. Threads beyond kShards share one overflow
  // shard, which keeps fetch_add.
  static constexpr unsigned kShards = 32;

  // One slot's counters. Only the slot's owner thread writes them.
  class alignas(64) Shard {
   public:
    void add_clwb(uint64_t lines) {
      bump(clwb_, lines);
      bump(flushed_bytes_, lines * kCacheLineSize);
    }
    void add_sfence() { bump(sfence_, 1); }
    void add_wbinvd() { bump(wbinvd_, 1); }
    void add_nt_store_bytes(uint64_t bytes) {
      bump(nt_stores_, (bytes + kCacheLineSize - 1) / kCacheLineSize);
    }
    void add_media_write(uint64_t bytes) { bump(media_write_bytes_, bytes); }
    void add_msync() { bump(msync_, 1); }
    // Snapshot-archive I/O: charged by an attached snapshot::ArchiveWriter
    // so a device's stats block accounts for *all* persistence traffic the
    // container generates, on-device and off.
    void add_archive_write(uint64_t bytes) {
      bump(archive_write_bytes_, bytes);
    }
    void add_archive_fsync() { bump(archive_fsync_, 1); }

    // Cache lines flushed or streamed since this slot's last fence; the
    // cost model charges them to that fence (sfence drains only the
    // issuing core's stores). Not part of the snapshot.
    void add_pending_lines(uint64_t lines) { bump(pending_lines_, lines); }
    uint64_t take_pending_lines() {
      if (shared_) return pending_lines_.exchange(0, std::memory_order_relaxed);
      uint64_t v = pending_lines_.load(std::memory_order_relaxed);
      pending_lines_.store(0, std::memory_order_relaxed);
      return v;
    }

   private:
    friend class PersistStats;

    void bump(std::atomic<uint64_t>& c, uint64_t n) {
      if (shared_) {
        c.fetch_add(n, std::memory_order_relaxed);
      } else {
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
      }
    }

    std::atomic<uint64_t> clwb_{0};
    std::atomic<uint64_t> sfence_{0};
    std::atomic<uint64_t> wbinvd_{0};
    std::atomic<uint64_t> nt_stores_{0};
    std::atomic<uint64_t> flushed_bytes_{0};
    std::atomic<uint64_t> media_write_bytes_{0};
    std::atomic<uint64_t> msync_{0};
    std::atomic<uint64_t> archive_write_bytes_{0};
    std::atomic<uint64_t> archive_fsync_{0};
    std::atomic<uint64_t> pending_lines_{0};
    bool shared_ = false;  // the overflow shard
  };

  PersistStats() { shards_[kShards].shared_ = true; }

  // The calling thread's shard. A primitive that bumps several counters
  // looks it up once.
  Shard& local();

  void add_archive_write(uint64_t bytes) { local().add_archive_write(bytes); }
  void add_archive_fsync() { local().add_archive_fsync(); }

  uint64_t sfence_count() const;
  uint64_t media_write_bytes() const;
  PersistStatsSnapshot snapshot() const;

 private:
  std::array<Shard, kShards + 1> shards_;  // [kShards] is the overflow
};

// Charges `bytes` starting at media-line-aligned accounting: the number of
// distinct 256B media lines the range [addr, addr+bytes) touches.
uint64_t media_bytes_for_range(uintptr_t addr, uint64_t bytes);

}  // namespace crpm
