// Container configuration.
//
// The defaults mirror the paper's platform: 2 MB segments (copy-on-write
// granularity), 256 B blocks (data-copy granularity), a 32 MB LLC threshold
// for choosing clwb-per-block vs. wbinvd during checkpointing, and eager
// copy-on-write of all dirty segments inside the checkpoint when few
// segments are dirty. Figure 10 sweeps segment_size and block_size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace crpm {

// Hard caps on the multi-window knobs: each in-flight epoch needs its own
// persistent seg_state/roots replica, and each commit shard its own
// persistent progress word, so both scale the metadata footprint.
inline constexpr uint32_t kMaxInflightEpochs = 8;
inline constexpr uint32_t kMaxCommitShards = 64;

// Cap on the restore worker pool (snapshot::restore / ReplicaStore chain
// apply): the apply shards by segment, so more workers than commit shards
// makes sense, but an unbounded pool only adds scheduling noise.
inline constexpr uint32_t kMaxRestoreWorkers = 64;

struct CrpmOptions {
  // Copy-on-write granularity. Must be a power of two and a multiple of
  // block_size. Paper default: 2 MB (Figure 10a sweeps 512 B – 32 MB).
  uint64_t segment_size = 2 * 1024 * 1024;

  // Data-copy granularity. Must be a power of two and a multiple of the
  // cache line size. Paper default: 256 B (Figure 10b sweeps 64 B – 16 KB).
  uint64_t block_size = 256;

  // Size of the main region (the application-visible heap), rounded up to a
  // whole number of segments.
  uint64_t main_region_size = 64 * 1024 * 1024;

  // Backup segments as a fraction of main segments. 1.0 guarantees a paired
  // backup always exists; lower ratios exercise backup-segment recycling
  // ("a backup segment can be allocated if it is not used for saving the
  //  checkpoint state", Section 3.3).
  double backup_ratio = 1.0;

  // Checkpoint flushes dirty blocks with clwb unless their total size
  // exceeds this threshold, in which case a whole-cache writeback is used
  // instead (Section 3.4.2; 32 MB = LLC size on the paper's platform).
  uint64_t wbinvd_threshold = 32 * 1024 * 1024;

  // If at most this many segments are dirty at the end of an epoch, their
  // copy-on-write is executed inside the checkpoint with batched fences
  // (Section 3.4.2, last paragraph). 0 disables eager copy-on-write.
  uint64_t eager_cow_segments = 8;

  // Number of application threads participating in the collective
  // crpm_checkpoint() call.
  uint32_t thread_count = 1;

  // Buffered mode (Section 3.5): the working state lives in DRAM and is
  // replicated differentially into NVM at each checkpoint.
  bool buffered = false;

  // --- concurrent background checkpointing ------------------------------
  // Splits crpm_checkpoint() into a short stop-the-world *capture* phase
  // (snapshot the dirty-block sets, stage the next seg_state/roots arrays,
  // hand the epoch to the sink) and a background *commit pipeline* that
  // performs the block flushes and the committed_epoch bump while the
  // application keeps mutating the main region. Correctness comes from
  // write-hook cooperation: the first write to a segment whose captured
  // copy is still pending steals that segment's flush (and snapshots its
  // capture-epoch image) under the per-segment lock before dirtying it.
  // Default-mode containers only; rejected with buffered = true.

  // Selects async mode. checkpoint() then returns once capture ends;
  // wait_committed() completes the contract.
  bool async_checkpoint = false;

  // Background commit workers. 0 = cooperative mode: the pipeline runs
  // inline on application threads (inside wait_committed() and the next
  // checkpoint()'s backpressure wait), which keeps the persistence-event
  // stream deterministic — the crash-matrix harness depends on this.
  uint32_t async_workers = 1;

  // Captured-but-uncommitted epochs tolerated before checkpoint() blocks
  // in its capture phase (backpressure). The persistent seg_state/roots
  // metadata is replicated max_inflight_epochs + 1 ways so each in-flight
  // window stages into its own copy (epoch E uses copy E mod replicas);
  // windows join strictly FIFO at the coordinated commit. Honored in async
  // mode only — sync and buffered containers are structurally
  // double-buffered and clamp to 1. Capped at kMaxInflightEpochs.
  uint32_t max_inflight_epochs = 1;

  // Epoch shard domains for the async commit pipeline: segments partition
  // by seg % commit_shards, workers sweep their own shard's flush work
  // first and then steal from others, and each shard durably records its
  // per-epoch flush progress in its own persistent word ("shard.commit").
  // The coordinated commit joins the shards with an in-process min-reduce
  // over those records (SimComm::allreduce_min semantics) before the
  // committed_epoch bump. 1 = unsharded. Async mode only; capped at
  // kMaxCommitShards.
  uint32_t commit_shards = 1;

  // --- recovery read path (snapshot::restore) ---------------------------

  // Worker threads sharding the archive record apply during restore.
  // Segments partition across workers (seg % workers), each worker sweeps
  // its own shard's records first and then steals from lagging shards —
  // the commit_shards work-stealing discipline applied to the read path.
  // Every worker re-verifies the CRC of each record it applies, so a
  // corrupt frame is detected by whichever shard owns the damage. 0 or 1
  // keeps the single-threaded apply. Capped at kMaxRestoreWorkers. The
  // apply runs on a DRAM image before the restored container is built, so
  // the device persistence-event stream stays deterministic regardless.
  uint32_t restore_workers = 0;

  // --- checkpoint engine selection (src/engines) -----------------------
  // Which checkpoint protocol backs the region. The core library ignores
  // this field (Container is the "foca" engine); engines::open_engine()
  // dispatches on it:
  //   "foca"     dual-replica segment CoW (Container; the paper's design)
  //   "undolog"  per-block undo logging (src/baselines, 2 fences/entry)
  //   "pagecow"  page-granularity journal + shadow (src/baselines)
  //   "adaptive" per-segment hybrid: dense segments checkpoint FOCA-style
  //              (one pre-image, then free writes), sparse segments log
  //              per block; strategy chosen from observed write density
  //              with hysteresis (src/engines/adaptive.h)
  std::string engine = "foca";

  // Adaptive engine tuning. A segment is *dense* when the fraction of its
  // blocks dirtied in an epoch reaches adaptive_dense_threshold — the
  // engine then switches it to COW mode, mid-epoch if the threshold is
  // crossed while the epoch is still open. It demotes a COW segment back
  // to LOG mode only after its density EWMA has stayed at or below
  // adaptive_sparse_threshold for adaptive_hysteresis_epochs consecutive
  // epochs, so alternating workloads don't thrash the strategy.
  double adaptive_dense_threshold = 0.5;
  double adaptive_sparse_threshold = 0.2;
  uint32_t adaptive_hysteresis_epochs = 2;

  // Returns a copy with sizes validated and rounded; aborts on nonsensical
  // combinations (block > segment, non-power-of-two sizes, ...).
  CrpmOptions validated() const;
};

}  // namespace crpm
