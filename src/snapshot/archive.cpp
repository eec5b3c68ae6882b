#include "snapshot/archive.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "tier/coded.h"
#include "util/logging.h"

namespace crpm::snapshot {

namespace {

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool pread_exact(int fd, void* buf, size_t len, uint64_t off) {
  auto* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    off += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return true;
}

std::string warnf(const char* fmt, unsigned long long a,
                  unsigned long long b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& path) { run_scan(path); }

ArchiveReader::~ArchiveReader() {
  if (fd_ >= 0) ::close(fd_);
}

void ArchiveReader::run_scan(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    scan_.warnings.push_back("cannot open archive: " +
                             std::string(std::strerror(errno)));
    return;
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return;
  const auto file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(ArchiveHeader)) {
    scan_.warnings.push_back("file too small to be a snapshot archive");
    return;
  }
  ArchiveHeader h;
  if (!pread_exact(fd_, &h, sizeof(h), 0) || !header_valid(h)) {
    scan_.warnings.push_back("archive header corrupt or not an archive");
    return;
  }
  scan_.valid = true;
  scan_.header = h;

  const uint64_t nr_blocks = h.region_size / h.block_size;
  uint64_t off = sizeof(ArchiveHeader);
  uint64_t prev_epoch = 0;
  while (off + sizeof(FrameHeader) <= file_size) {
    FrameHeader fh;
    if (!pread_exact(fd_, &fh, sizeof(fh), off)) break;
    if (fh.marker != kFrameMarker ||
        fh.header_crc != crc32(&fh, offsetof(FrameHeader, header_crc))) {
      scan_.warnings.push_back(warnf(
          "unparseable frame header at offset %llu: dropping %llu tail "
          "bytes (torn append)",
          off, file_size - off));
      break;
    }
    if (!known_kind(fh.kind) || fh.block_count > nr_blocks ||
        fh.epoch <= prev_epoch) {
      scan_.warnings.push_back(warnf(
          "implausible frame at offset %llu (epoch %llu): stopping scan",
          off, fh.epoch));
      break;
    }

    EpochInfo info;
    info.epoch = fh.epoch;
    info.kind = fh.kind;
    info.file_offset = off;
    info.block_count = fh.block_count;

    uint64_t total = 0;
    bool intact = true;
    if (is_coded_kind(fh.kind)) {
      // Coded frame: the length comes from the CodedExtent, which must
      // itself verify before we trust it. A torn extent is the tail shape
      // of a crash mid-append, exactly like a torn header.
      CodedExtent ce;
      if (off + sizeof(FrameHeader) + sizeof(ce) > file_size ||
          !pread_exact(fd_, &ce, sizeof(ce), off + sizeof(FrameHeader))) {
        scan_.warnings.push_back(warnf(
            "coded frame for epoch %llu truncated mid-append: dropping "
            "%llu tail bytes",
            fh.epoch, file_size - off));
        break;
      }
      if (ce.marker != kExtentMarker ||
          ce.extent_crc != crc32(&ce, offsetof(CodedExtent, extent_crc)) ||
          ce.raw_bytes != frame_bytes(fh.block_count, h.block_size) ||
          ce.encoded_bytes >= ce.raw_bytes) {
        scan_.warnings.push_back(warnf(
            "unparseable coded extent at offset %llu: dropping %llu tail "
            "bytes (torn append)",
            off, file_size - off));
        break;
      }
      total = coded_frame_bytes(ce.encoded_bytes);
      if (off + total > file_size) {
        scan_.warnings.push_back(warnf(
            "coded frame for epoch %llu truncated mid-append: dropping "
            "%llu tail bytes",
            fh.epoch, file_size - off));
        break;
      }
      info.codec = ce.codec;
      info.raw_bytes = ce.raw_bytes;
      // Full structural + encoded-CRC verification (no decode needed).
      std::vector<uint8_t> buf(total);
      if (!pread_exact(fd_, buf.data(), buf.size(), off)) break;
      intact = tier::coded_frame_valid(buf.data(), buf.size());
    } else {
      total = frame_bytes(fh.block_count, h.block_size);
      if (off + total > file_size) {
        scan_.warnings.push_back(warnf(
            "frame for epoch %llu truncated mid-append: dropping %llu tail "
            "bytes",
            fh.epoch, file_size - off));
        break;
      }
      info.raw_bytes = total;

      // Verify records and footer.
      const uint64_t rec = record_bytes(h.block_size);
      std::vector<uint8_t> buf(total - sizeof(FrameHeader));
      if (!pread_exact(fd_, buf.data(), buf.size(),
                       off + sizeof(FrameHeader))) {
        break;
      }
      uint32_t payload_crc = 0;
      const uint8_t* p = buf.data();
      for (uint64_t i = 0; i < fh.block_count && intact; ++i, p += rec) {
        uint32_t stored = 0;
        std::memcpy(&stored, p + rec - 4, 4);
        uint64_t idx = 0;
        std::memcpy(&idx, p, 8);
        if (stored != crc32(p, rec - 4) || idx >= nr_blocks) intact = false;
        payload_crc = crc32(&stored, 4, payload_crc);
      }
      FrameFooter ff;
      std::memcpy(&ff, buf.data() + buf.size() - sizeof(ff), sizeof(ff));
      if (ff.marker != kFooterMarker || ff.epoch != fh.epoch ||
          ff.frame_bytes != total || ff.payload_crc != payload_crc ||
          ff.footer_crc != crc32(&ff, offsetof(FrameFooter, footer_crc))) {
        intact = false;
      }
    }
    info.frame_bytes = total;
    info.intact = intact;
    if (!intact) {
      scan_.warnings.push_back(warnf(
          "epoch %llu at offset %llu failed CRC verification: skipping "
          "corrupt frame",
          fh.epoch, off));
    }
    scan_.epochs.push_back(info);
    prev_epoch = fh.epoch;
    off += total;
  }
  scan_.scan_end = off;
  scan_.truncated_bytes = file_size - off;
  for (const auto& w : scan_.warnings) {
    CRPM_LOG_WARN("archive %s: %s", path.c_str(), w.c_str());
  }
}

int ArchiveReader::index_of(uint64_t epoch) const {
  for (size_t i = 0; i < scan_.epochs.size(); ++i) {
    if (scan_.epochs[i].epoch == epoch) return static_cast<int>(i);
  }
  return -1;
}

int ArchiveReader::chain_start(uint64_t epoch) const {
  int i = index_of(epoch);
  if (i < 0 || !scan_.epochs[i].intact) return -1;
  for (int j = i; j >= 0; --j) {
    const EpochInfo& f = scan_.epochs[j];
    if (!f.intact) return -1;
    if (is_base_kind(f.kind)) return j;
    if (j == 0) {
      // A delta chain at the head of the file starts from the implicit
      // all-zero image only if it begins at the container's first epoch.
      return f.epoch == 1 ? 0 : -1;
    }
    // The chain needs the immediately preceding epoch's delta.
    if (scan_.epochs[j - 1].epoch != f.epoch - 1) return -1;
  }
  return -1;
}

bool ArchiveReader::restorable(uint64_t epoch) const {
  return scan_.valid && chain_start(epoch) >= 0;
}

bool ArchiveReader::latest_restorable(uint64_t* epoch) const {
  if (!scan_.valid) return false;
  for (auto it = scan_.epochs.rbegin(); it != scan_.epochs.rend(); ++it) {
    if (chain_start(it->epoch) >= 0) {
      *epoch = it->epoch;
      return true;
    }
  }
  return false;
}

bool ArchiveReader::apply_records(const uint8_t* recs, uint64_t block_count,
                                  std::vector<uint8_t>* image,
                                  std::string* err) const {
  const uint64_t bs = scan_.header.block_size;
  const uint64_t rec = record_bytes(bs);
  const uint8_t* p = recs;
  for (uint64_t i = 0; i < block_count; ++i, p += rec) {
    uint64_t idx = 0;
    std::memcpy(&idx, p, 8);
    uint32_t stored = 0;
    std::memcpy(&stored, p + rec - 4, 4);
    if (stored != crc32(p, rec - 4) ||
        (idx + 1) * bs > image->size()) {
      if (err) *err = "record CRC mismatch while applying epoch frame";
      return false;
    }
    std::memcpy(image->data() + idx * bs, p + 8, bs);
  }
  return true;
}

bool ArchiveReader::apply_records_parallel(
    const uint8_t* recs, uint64_t block_count, uint32_t workers,
    std::vector<uint8_t>* image, std::string* err, uint64_t* cpu_total,
    uint64_t* cpu_critical) const {
  const uint64_t bs = scan_.header.block_size;
  const uint64_t seg = scan_.header.segment_size;
  const uint64_t rec = record_bytes(bs);
  // Partition records by owning segment, segments round-robin over the
  // workers — the commit_shards layout applied to the read path. Block
  // indices are unique within a frame, so shard applies never alias.
  // Record indices stay 64-bit end to end: a frame can legitimately carry
  // >= 2^32 records, and truncated indices would restore silently wrong
  // bytes instead of failing.
  std::vector<std::vector<uint64_t>> shards(workers);
  for (uint64_t i = 0; i < block_count; ++i) {
    uint64_t idx = 0;
    std::memcpy(&idx, recs + i * rec, 8);
    shards[(idx * bs / seg) % workers].push_back(i);
  }
  std::vector<std::atomic<uint64_t>> cursors(workers);
  for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  std::atomic<int> bad_shard{-1};
  // Apply CPU is accounted per SHARD, not per thread: stealing means one
  // thread may drain several shards (on a single-core host the first
  // runner drains them all), but the max per-shard CPU still reports how
  // evenly the sharding spread the work — the same convention as the
  // commit pipeline's flush accounting, meaningful on any core count.
  std::vector<std::atomic<uint64_t>> shard_ns(workers);
  for (auto& ns : shard_ns) ns.store(0, std::memory_order_relaxed);
  // Records are small (a block plus header), so claiming them one at a
  // time turns the shared cursors into an atomic-RMW hot spot; claiming
  // batches keeps the contention negligible while stealing still balances
  // at batch granularity.
  constexpr uint64_t kClaimBatch = 128;
  auto sweep = [&](uint32_t self) {
    // Own shard first, then steal from lagging shards.
    for (uint32_t pass = 0; pass < workers; ++pass) {
      const uint32_t s = (self + pass) % workers;
      const uint64_t shard_size = shards[s].size();
      if (cursors[s].load(std::memory_order_relaxed) >= shard_size) continue;
      // One clock read per shard pass, not per batch: the thread-CPU clock
      // is a syscall, and the thread works only on shard s inside this
      // loop, so the attribution stays exact.
      const uint64_t t0 = thread_cpu_ns();
      for (;;) {
        if (bad_shard.load(std::memory_order_relaxed) >= 0) break;
        const uint64_t at =
            cursors[s].fetch_add(kClaimBatch, std::memory_order_relaxed);
        if (at >= shard_size) break;
        const uint64_t end = std::min(at + kClaimBatch, shard_size);
        for (uint64_t j = at; j < end; ++j) {
          const uint8_t* p = recs + shards[s][j] * rec;
          uint64_t idx = 0;
          std::memcpy(&idx, p, 8);
          uint32_t stored = 0;
          std::memcpy(&stored, p + rec - 4, 4);
          if (stored != crc32(p, rec - 4) ||
              (idx + 1) * bs > image->size()) {
            int expect = -1;
            bad_shard.compare_exchange_strong(expect, static_cast<int>(s));
            break;
          }
          std::memcpy(image->data() + idx * bs, p + 8, bs);
        }
      }
      shard_ns[s].fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (uint32_t w = 1; w < workers; ++w) pool.emplace_back(sweep, w);
  sweep(0);
  for (auto& t : pool) t.join();
  uint64_t max_ns = 0;
  for (auto& ns : shard_ns) {
    const uint64_t v = ns.load(std::memory_order_relaxed);
    *cpu_total += v;
    max_ns = std::max(max_ns, v);
  }
  *cpu_critical += max_ns;
  const int bad = bad_shard.load(std::memory_order_relaxed);
  if (bad >= 0) {
    if (err) {
      *err = "record CRC mismatch while applying epoch frame (restore "
             "shard " +
             std::to_string(bad) + " of " + std::to_string(workers) + ")";
    }
    return false;
  }
  return true;
}

bool ArchiveReader::apply_span(const uint8_t* recs, uint64_t block_count,
                               uint32_t workers, std::vector<uint8_t>* image,
                               std::string* err, RestorePerf* perf) const {
  uint64_t cpu_total = 0;
  uint64_t cpu_critical = 0;
  bool ok;
  if (workers <= 1 || block_count == 0) {
    const uint64_t t0 = thread_cpu_ns();
    ok = apply_records(recs, block_count, image, err);
    cpu_total = cpu_critical = thread_cpu_ns() - t0;
  } else {
    ok = apply_records_parallel(recs, block_count, workers, image, err,
                                &cpu_total, &cpu_critical);
  }
  if (perf != nullptr) {
    perf->frames += 1;
    perf->records += block_count;
    perf->apply_ns_total += cpu_total;
    perf->apply_ns_critical += cpu_critical;
  }
  return ok;
}

bool ArchiveReader::load_records(const EpochInfo& info,
                                 std::vector<uint8_t>* recs,
                                 std::string* err) const {
  const uint64_t rec = record_bytes(scan_.header.block_size);
  if (is_coded_kind(info.kind)) {
    std::vector<uint8_t> buf(info.frame_bytes);
    if (!pread_exact(fd_, buf.data(), buf.size(), info.file_offset)) {
      if (err) *err = "archive read failed while applying coded frame";
      return false;
    }
    if (!tier::decode_frame(buf.data(), buf.size(), recs)) {
      if (err) *err = "coded frame failed CRC verification or decode";
      return false;
    }
    // Drop the plain frame's header and footer in place.
    const uint64_t len = info.block_count * rec;
    if (recs->size() < sizeof(FrameHeader) + len) {
      if (err) *err = "decoded frame is shorter than its records";
      return false;
    }
    recs->erase(recs->begin(),
                recs->begin() + static_cast<ptrdiff_t>(sizeof(FrameHeader)));
    recs->resize(len);
    return true;
  }
  recs->resize(info.block_count * rec);
  if (!pread_exact(fd_, recs->data(), recs->size(),
                   info.file_offset + sizeof(FrameHeader))) {
    if (err) *err = "archive read failed while applying epoch frame";
    return false;
  }
  return true;
}

bool ArchiveReader::frame_roots(const EpochInfo& info,
                                std::array<uint64_t, kNumRoots>* roots) const {
  FrameHeader fh;
  if (!pread_exact(fd_, &fh, sizeof(fh), info.file_offset)) return false;
  std::memcpy(roots->data(), fh.roots, sizeof(fh.roots));
  return true;
}

bool ArchiveReader::chain(uint64_t epoch, std::vector<EpochInfo>* frames,
                          std::string* err) const {
  frames->clear();
  if (!scan_.valid) {
    if (err) *err = "not a valid snapshot archive";
    return false;
  }
  int start = chain_start(epoch);
  if (start < 0) {
    if (err) {
      *err = "epoch " + std::to_string(epoch) +
             " is not restorable from this archive (missing, corrupt, or "
             "its delta chain is broken)";
    }
    return false;
  }
  const int target = index_of(epoch);
  for (int j = start; j <= target; ++j) frames->push_back(scan_.epochs[j]);
  return true;
}

bool ArchiveReader::load_chain(const std::vector<EpochInfo>& frames,
                               uint32_t workers, size_t window,
                               const ChainConsumer& consume,
                               std::string* err) const {
  const size_t n = frames.size();
  if (window == 0 || window > n) window = n;
  const size_t stagers = std::min<size_t>(workers, n);
  if (stagers <= 1) {
    std::vector<uint8_t> recs;
    for (size_t i = 0; i < n; ++i) {
      if (!load_records(frames[i], &recs, err) || !consume(i, recs, err)) {
        return false;
      }
    }
    return true;
  }

  // Frame i stages into slot i % window, once frame i - window has been
  // consumed. The consumer takes frames in order, so whichever stager
  // claimed the next frame is never blocked by the window: no deadlock.
  struct Slot {
    std::vector<uint8_t> recs;
    std::string err;
    bool ready = false;
    bool ok = false;
  };
  std::vector<Slot> slots(window);
  std::mutex mu;
  std::condition_variable cv;
  size_t consumed = 0;  // guarded by mu
  bool stop = false;    // guarded by mu
  std::atomic<size_t> cursor{0};
  auto stage = [&]() {
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Slot& slot = slots[i % window];
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return stop || i < consumed + window; });
        if (stop) return;
      }
      std::string e;
      bool ok = false;
      try {
        ok = load_records(frames[i], &slot.recs, &e);
      } catch (const std::exception& ex) {  // e.g. bad_alloc: fail the frame
        e = std::string("staging an archive frame failed: ") + ex.what();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        slot.err = std::move(e);
        slot.ok = ok;
        slot.ready = true;
      }
      cv.notify_all();
    }
  };
  std::vector<std::thread> pool;
  auto join_all = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_all();
    for (auto& t : pool) t.join();
  };
  pool.reserve(stagers);
  for (size_t t = 0; t < stagers; ++t) pool.emplace_back(stage);

  bool ok = true;
  try {
    for (size_t i = 0; i < n && ok; ++i) {
      Slot& slot = slots[i % window];
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return slot.ready; });
      }
      if (!slot.ok) {
        if (err) *err = slot.err;
        ok = false;
      } else {
        ok = consume(i, slot.recs, err);
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        slot.ready = false;
        ++consumed;
      }
      cv.notify_all();
    }
  } catch (...) {
    join_all();
    throw;
  }
  join_all();
  return ok;
}

bool ArchiveReader::state_at(uint64_t epoch, std::vector<uint8_t>* image,
                             std::array<uint64_t, kNumRoots>* roots,
                             std::string* err) const {
  return state_at(epoch, image, roots, err, 1, nullptr);
}

bool ArchiveReader::state_at(uint64_t epoch, std::vector<uint8_t>* image,
                             std::array<uint64_t, kNumRoots>* roots,
                             std::string* err, uint32_t workers,
                             RestorePerf* perf) const {
  std::vector<EpochInfo> frames;
  if (!chain(epoch, &frames, err)) return false;
  if (workers == 0) workers = 1;
  if (perf != nullptr) perf->workers = workers;
  image->assign(scan_.header.region_size, 0);
  auto apply = [&](size_t i, std::vector<uint8_t>& recs, std::string* e) {
    return apply_span(recs.data(), frames[i].block_count, workers, image, e,
                      perf);
  };
  if (!load_chain(frames, workers, 2 * size_t{workers}, apply, err)) {
    return false;
  }
  if (roots != nullptr && !frame_roots(frames.back(), roots)) {
    if (err) *err = "archive read failed while loading roots";
    return false;
  }
  return true;
}

}  // namespace crpm::snapshot
