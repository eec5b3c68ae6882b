// StateStore: pluggable program-state management for the mini-apps.
//
// The paper ports LULESH / HPCCG / CoMD to checkpoint-recovery "by
// replacing memory allocation functions and adding checkpoint logic"
// (Section 5.2.2). StateStore is that porting layer: an application
// allocates its state arrays through it, marks the arrays it rewrites each
// iteration, and calls checkpoint() every N iterations. Three backends:
//
//   kNone          plain DRAM arrays, no persistence (the 1.0 baseline of
//                  Figure 8)
//   kFti           plain DRAM arrays protected by the FTI-like library
//                  (full serialized checkpoints to files)
//   kCrpmBuffered  arrays in a libcrpm buffered container (DRAM working
//                  state, differential NVM checkpoints)
//   kCrpmDefault   working state directly in the NVM container (Section
//                  3.4), optionally with async checkpointing and a
//                  snapshot archive attached — the configuration the
//                  crpm_kvd server (src/net) embeds
//
// Multi-rank apps pass a SimComm; checkpoints are then coordinated
// (Section 3.6) and recovery agrees on the global minimum epoch.
//
// Recovery for the crpm backends is multi-level: a healthy container file
// recovers in place (kLocal); with an archive configured, a missing or
// structurally invalid container file is re-materialized from the newest
// restorable archived epoch (kArchive) before opening — the same
// snapshot::restore() path replica pulls use. last_recovery() reports
// which level ran.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fti.h"
#include "comm/sim_comm.h"
#include "core/container.h"
#include "core/heap.h"
#include "snapshot/writer.h"

namespace crpm {

enum class CkptBackend { kNone, kFti, kCrpmBuffered, kCrpmDefault };

const char* backend_name(CkptBackend b);

// Which level of the recovery hierarchy produced the current state.
enum class RecoverySource { kFresh, kLocal, kArchive };

const char* recovery_source_name(RecoverySource s);

class StateStore {
 public:
  struct Config {
    CkptBackend backend = CkptBackend::kNone;
    std::string dir;          // checkpoint files / containers live here
    int rank = 0;
    SimComm* comm = nullptr;  // null for single-rank apps
    uint64_t capacity_bytes = 64 << 20;  // crpm container sizing (0 = let
                                         // the caller compute from state)
    CostModel cost_model = CostModel::disabled();

    // kCrpmDefault extras (ignored by the other backends): concurrent
    // background checkpointing (DESIGN §10) and a snapshot archive
    // (DESIGN §5) that doubles as the second recovery level.
    bool async_checkpoint = false;
    uint32_t async_workers = 1;
    // Multi-window commit pipeline (async only): tolerated in-flight
    // capture windows and commit-shard domains (see CrpmOptions).
    uint32_t max_inflight_epochs = 1;
    uint32_t commit_shards = 1;
    bool archive = false;                // <dir>/crpm-rank<N>.snap
    uint32_t archive_compact_every = 0;
    // Worker threads for the archive-restore record apply (second
    // recovery level); 0/1 = serial. See CrpmOptions::restore_workers.
    uint32_t restore_workers = 0;
    // Route the archive through src/tier: lzb codec, four-epoch group
    // commit (bounded by the default flush deadline, so a lone durable
    // epoch still reaches the device promptly), threaded writeback.
    bool archive_tier = false;
  };

  explicit StateStore(const Config& cfg);
  ~StateStore();

  // Filesystem layout of the crpm backends: where a given (dir, rank)
  // keeps its container and snapshot archive. Exposed so servers (and
  // offline tools) can triage recovery before constructing the store.
  static std::string container_path(const std::string& dir, int rank);
  static std::string archive_path(const std::string& dir, int rank);

  // Recovery triage over the container file at `path`. The distinction
  // between kInvalid and kUnreadable is load-bearing: only a header that
  // was actually READ and is definitively not a container (wrong magic,
  // torn format, too small to ever have been one) may be set aside and
  // reformatted; a transient read failure (fd exhaustion, EACCES) says
  // nothing about the bytes, and treating it as damage would destroy a
  // healthy container.
  enum class ContainerTriage {
    kMissing,     // no file: fresh start (or archive restore)
    kUsable,      // header read, magic + initialized check out
    kInvalid,     // header read, definitively not a valid container
    kUnreadable,  // the file exists but could not be read — not evidence
  };
  static ContainerTriage triage_container_file(const std::string& path);

  // True if `path` plausibly holds an openable container: the file
  // exists, covers at least a MetaHeader, and the header carries the
  // right magic and the initialized flag. Container::open() aborts on
  // structural damage, so recovery triage has to check before opening.
  static bool container_file_usable(const std::string& path);

  // Allocates (or re-attaches, after recovery) array `slot` of `count`
  // elements. Slots must be allocated in the same order and size across
  // restarts. T must be trivially copyable.
  template <typename T>
  T* array(uint32_t slot, uint64_t count) {
    return static_cast<T*>(raw_array(slot, count * sizeof(T)));
  }

  // True if this run restored state from a previous checkpoint. Call only
  // after ALL arrays have been allocated: for the FTI backend this is the
  // point where the protect list is complete and recovery actually loads
  // the buffers (FTI's contract).
  bool recovered() {
    finalize_recovery_probe();
    return recovered_;
  }

  // The recovered iteration counter (0 on fresh runs); the app stores its
  // progress here before each checkpoint. Like recovered(), valid after
  // all arrays are allocated.
  uint64_t iteration() {
    finalize_recovery_probe();
    return iteration_;
  }
  void set_iteration(uint64_t it) { iteration_ = it; }

  // Declares [p, p + bytes) modified since the last checkpoint. Required
  // for kCrpmBuffered (it drives the dirty-block bitmap); no-op otherwise.
  void mark_dirty(const void* p, uint64_t bytes);

  // Persists all state (collective across ranks when a SimComm is set).
  void checkpoint();

  // --- accounting (Figure 8 / Sections 5.5-5.6) -------------------------
  double checkpoint_seconds() const { return ckpt_seconds_; }
  uint64_t checkpoints_taken() const { return ckpts_; }
  uint64_t state_bytes() const;      // live program state
  uint64_t storage_bytes() const;    // NVM/file footprint
  uint64_t dram_bytes() const;       // extra DRAM (buffers, bitmaps)
  uint64_t checkpoint_bytes() const; // data written across all checkpoints
  double last_recovery_seconds() const { return recovery_seconds_; }

  Container* container() { return ctr_.get(); }
  // The allocator over the container's working state (crpm backends only;
  // null otherwise). Exposed so servers can layer persistent containers
  // over the same store (e.g. a PHashMap through the non-owning
  // CrpmPolicy form, CrpmPolicy(*container(), *heap())).
  Heap* heap() { return heap_.get(); }
  // The attached archive writer (null unless cfg.archive); exposed for
  // stats reporting — benches read writer_stats() after draining.
  snapshot::ArchiveWriter* archive_writer() { return archive_.get(); }
  RecoverySource last_recovery() const { return recovery_source_; }

 private:
  void* raw_array(uint32_t slot, uint64_t bytes);
  void finalize_recovery_probe();

  Config cfg_;
  bool recovered_ = false;
  uint64_t iteration_ = 0;
  double ckpt_seconds_ = 0;
  double recovery_seconds_ = 0;
  uint64_t ckpts_ = 0;

  // kNone / kFti
  std::vector<std::unique_ptr<uint8_t[]>> plain_arrays_;
  std::vector<std::pair<void*, uint64_t>> registered_;
  std::unique_ptr<FtiLike> fti_;
  bool fti_recover_pending_ = false;

  // kCrpmBuffered / kCrpmDefault
  std::unique_ptr<NvmDevice> owned_dev_;  // when coordinated_open is used
  std::unique_ptr<Container> ctr_;
  std::unique_ptr<Heap> heap_;
  // Declared after ctr_ so the writer detaches before the container dies.
  std::unique_ptr<snapshot::ArchiveWriter> archive_;
  RecoverySource recovery_source_ = RecoverySource::kFresh;
};

}  // namespace crpm
