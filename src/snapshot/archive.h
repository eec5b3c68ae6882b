// Archive read path: scanning, CRC verification, truncated-tail and
// corrupt-epoch handling, and state reconstruction.
//
// Robustness policy (ISSUE: crash mid-append, bit rot):
//   * A frame whose header never made it to disk intact ends the scan —
//     everything from there on is an unparseable tail (the normal shape of
//     a crash mid-append) and is reported as truncated bytes.
//   * A frame with an intact header but a failing record/footer CRC is
//     *skipped with a warning*: its length is known, so later epochs are
//     still enumerated. Epochs whose delta chain passes through the corrupt
//     frame are simply not restorable; later epochs become restorable again
//     at the next base frame.
//   * restorable()/latest_restorable() expose exactly which epochs can be
//     reconstructed; state_at() refuses anything else.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "snapshot/format.h"

namespace crpm::snapshot {

struct EpochInfo {
  uint64_t epoch = 0;
  uint32_t kind = kDeltaFrame;
  uint64_t file_offset = 0;  // of the FrameHeader
  uint64_t block_count = 0;
  uint64_t frame_bytes = 0;  // on-disk bytes (encoded size for coded frames)
  uint32_t codec = 0;        // tier codec id; 0 for plain frames
  uint64_t raw_bytes = 0;    // plain-frame equivalent bytes
  bool intact = false;  // every CRC (header, extent/records, footer) verified
};

struct ScanResult {
  bool valid = false;  // file exists and the archive header verifies
  ArchiveHeader header{};
  std::vector<EpochInfo> epochs;  // in file order; epochs strictly ascend
  uint64_t scan_end = 0;          // offset past the last parseable frame
  uint64_t truncated_bytes = 0;   // unparseable tail dropped by the scan
  std::vector<std::string> warnings;
};

// Thread-CPU accounting for the record apply inside state_at().
// `apply_ns_total` sums the CLOCK_THREAD_CPUTIME_ID time spent applying
// records; `apply_ns_critical` max-reduces the per-SHARD apply time of
// each frame (the critical path of the sharding), mirroring the async
// commit pipeline's shard_flush_ns convention. Attributing the time to
// the shard rather than the applying thread keeps the ratio meaningful
// on any core count: work stealing lets one thread drain every shard on
// a loaded or single-core host, but the shards themselves still carry an
// even split, so total/critical still reads ~workers when the sharding
// spreads the work and collapses to ~1 when it stops doing so.
struct RestorePerf {
  uint32_t workers = 1;
  uint64_t frames = 0;
  uint64_t records = 0;
  uint64_t apply_ns_total = 0;
  uint64_t apply_ns_critical = 0;
};

class ArchiveReader {
 public:
  explicit ArchiveReader(const std::string& path);
  ~ArchiveReader();

  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  // True if the file opened and its header verified.
  bool ok() const { return scan_.valid; }
  const ScanResult& scan() const { return scan_; }

  // True if `epoch` is archived, intact, and its whole chain back to a base
  // frame (or the implicit all-zero base before epoch 1) is intact.
  bool restorable(uint64_t epoch) const;

  // Newest restorable epoch; false if the archive holds none.
  bool latest_restorable(uint64_t* epoch) const;

  // Reconstructs the working state at `epoch` into `image` (resized to the
  // archive's region size) and the committed roots into `roots` (may be
  // null). Returns false with `err` set if the epoch is not restorable or
  // re-reading the frames hits an I/O error.
  bool state_at(uint64_t epoch, std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots,
                std::string* err) const;

  // Parallel variant: `workers` threads stage the chain (load_chain, at
  // most 2 x workers frames ahead of the apply) and shard each frame's
  // record apply by owning segment (seg % workers) with work stealing,
  // each worker re-verifying the CRC of every record it applies, so
  // corruption is pinned to the shard that owns it. Frames apply strictly
  // in chain order. Block indices are unique within a frame, so the
  // sharded memcpys never alias. workers <= 1 is the serial path. `perf`
  // (may be null) accumulates thread-CPU apply cost for benchmarking.
  bool state_at(uint64_t epoch, std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, std::string* err,
                uint32_t workers, RestorePerf* perf) const;

  // The intact frame chain reconstructing `epoch`, base (or implicit
  // all-zero start) through target, in file order. False with `err` when
  // the epoch is not restorable. Lets callers stage their own apply (the
  // lazy restorer materializes per-chunk instead of front-to-back).
  bool chain(uint64_t epoch, std::vector<EpochInfo>* frames,
             std::string* err) const;

  // Stages a frame chain: loads each frame's record region (decoding and
  // verifying coded frames, see load_records) on `workers` threads that
  // claim frames from an atomic cursor, and hands each staged region to
  // `consume(i, recs, err)` on the calling thread, strictly in chain
  // order. Staging runs at most `window` frames ahead
  // of `consume` (0 = the whole chain), which bounds the staged bytes held
  // at once. `consume` may keep `recs` by moving from it; otherwise its
  // buffer is reused for a later frame. Stops at the first frame that
  // fails to load or that `consume` rejects and reports that frame's
  // error, exactly as a serial front-to-back walk would. workers <= 1
  // stages on the calling thread.
  using ChainConsumer =
      std::function<bool(size_t, std::vector<uint8_t>&, std::string*)>;
  bool load_chain(const std::vector<EpochInfo>& frames, uint32_t workers,
                  size_t window, const ChainConsumer& consume,
                  std::string* err) const;

  // Reads the committed roots stored in frame `info`'s header.
  bool frame_roots(const EpochInfo& info,
                   std::array<uint64_t, kNumRoots>* roots) const;

 private:
  void run_scan(const std::string& path);
  // Index into scan_.epochs of the chain start for `epoch`, or -1.
  int chain_start(uint64_t epoch) const;
  int index_of(uint64_t epoch) const;
  // Loads frame `info`'s record region (decoding coded frames first) into
  // `recs`: block_count records of record_bytes(block_size) bytes each.
  // Coded frames decode straight into `recs` after their encoded CRC
  // verifies, and the raw CRC of the decoded frame must match too.
  bool load_records(const EpochInfo& info, std::vector<uint8_t>* recs,
                    std::string* err) const;
  // Record-region apply shared by the plain and decoded paths; dispatches
  // to the serial or sharded implementation and accounts `perf`.
  bool apply_span(const uint8_t* recs, uint64_t block_count,
                  uint32_t workers, std::vector<uint8_t>* image,
                  std::string* err, RestorePerf* perf) const;
  bool apply_records(const uint8_t* recs, uint64_t block_count,
                     std::vector<uint8_t>* image, std::string* err) const;
  bool apply_records_parallel(const uint8_t* recs, uint64_t block_count,
                              uint32_t workers, std::vector<uint8_t>* image,
                              std::string* err, uint64_t* cpu_total,
                              uint64_t* cpu_critical) const;

  int fd_ = -1;
  ScanResult scan_;
};

}  // namespace crpm::snapshot
