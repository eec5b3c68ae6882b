#include "apps/state_store.h"

#include <cstring>
#include <filesystem>

#include "comm/coordinated.h"
#include "core/layout.h"
#include "snapshot/restore.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm {

namespace {
constexpr uint32_t kIterationRoot = kNumRoots - 1;  // crpm root slot
constexpr int kIterationFtiId = 1 << 20;            // FTI buffer id
}  // namespace

const char* backend_name(CkptBackend b) {
  switch (b) {
    case CkptBackend::kNone: return "no-checkpoint";
    case CkptBackend::kFti: return "FTI";
    case CkptBackend::kCrpmBuffered: return "libcrpm-Buffered";
    case CkptBackend::kCrpmDefault: return "libcrpm-Default";
  }
  return "?";
}

const char* recovery_source_name(RecoverySource s) {
  switch (s) {
    case RecoverySource::kFresh: return "fresh";
    case RecoverySource::kLocal: return "local";
    case RecoverySource::kArchive: return "archive";
  }
  return "?";
}

std::string StateStore::container_path(const std::string& dir, int rank) {
  return dir + "/crpm-rank" + std::to_string(rank) + ".ctr";
}

std::string StateStore::archive_path(const std::string& dir, int rank) {
  return dir + "/crpm-rank" + std::to_string(rank) + ".snap";
}

StateStore::ContainerTriage StateStore::triage_container_file(
    const std::string& path) {
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec);
  if (ec) return ContainerTriage::kUnreadable;
  if (!exists) return ContainerTriage::kMissing;
  auto size = std::filesystem::file_size(path, ec);
  if (ec) return ContainerTriage::kUnreadable;
  // A container file is never smaller than its header: too-small is a
  // definitive verdict, not a read failure.
  if (size < sizeof(MetaHeader)) return ContainerTriage::kInvalid;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ContainerTriage::kUnreadable;
  MetaHeader h{};
  size_t got = std::fread(&h, 1, sizeof(h), f);
  std::fclose(f);
  // The size check above said these bytes exist; a short read is an I/O
  // error, not evidence about the contents.
  if (got != sizeof(h)) return ContainerTriage::kUnreadable;
  return (h.magic == kMetaMagic && h.initialized != 0)
             ? ContainerTriage::kUsable
             : ContainerTriage::kInvalid;
}

bool StateStore::container_file_usable(const std::string& path) {
  return triage_container_file(path) == ContainerTriage::kUsable;
}

StateStore::StateStore(const Config& cfg) : cfg_(cfg) {
  switch (cfg_.backend) {
    case CkptBackend::kNone:
      break;
    case CkptBackend::kFti: {
      fti_ = std::make_unique<FtiLike>(cfg_.dir, cfg_.rank);
      if (cfg_.cost_model.enabled) {
        // FTI's checkpoint files live on the same (emulated) NVM.
        fti_->set_write_cost_ns_per_line(cfg_.cost_model.nt_store_ns_per_line);
      }
      // The iteration counter is protected like any other state buffer.
      plain_arrays_.push_back(std::make_unique<uint8_t[]>(8));
      std::memset(plain_arrays_.back().get(), 0, 8);
      fti_->protect(kIterationFtiId, plain_arrays_.back().get(), 8);
      fti_recover_pending_ = true;
      break;
    }
    case CkptBackend::kCrpmBuffered:
    case CkptBackend::kCrpmDefault: {
      const bool buffered = cfg_.backend == CkptBackend::kCrpmBuffered;
      CrpmOptions opt;
      opt.buffered = buffered;
      opt.main_region_size = cfg_.capacity_bytes;
      std::string path = container_path(cfg_.dir, cfg_.rank);
      if (!buffered) {
        opt.async_checkpoint = cfg_.async_checkpoint;
        opt.async_workers = cfg_.async_workers;
        opt.max_inflight_epochs = cfg_.max_inflight_epochs;
        opt.commit_shards = cfg_.commit_shards;
        opt.restore_workers = cfg_.restore_workers;
        if (cfg_.async_checkpoint) opt.eager_cow_segments = 0;
        if (cfg_.archive) {
          opt.archive_path = archive_path(cfg_.dir, cfg_.rank);
          opt.archive_compact_every = cfg_.archive_compact_every;
          if (cfg_.archive_tier) {
            opt.archive_codec = "lzb";
            opt.archive_group_epochs = 4;
            opt.archive_writeback = "threads";
            // Checkpoint cadences are tens of ms; a deadline shorter than
            // the cadence degenerates group commit to one fsync per epoch.
            // The archive is the second recovery level (durable acks wait
            // on the container epoch, not on archive writeback), so a
            // 100 ms archive-durability lag trades nothing the service
            // promised away.
            opt.archive_flush_deadline_us = 100'000;
            // Group commit parks frames until the batch cuts; a queue
            // deep enough to hold several batches keeps the committing
            // thread from stalling against the writer (the stall lands
            // inside the capture window and shows up as serving tail).
            opt.archive_queue_depth = 32;
            // Compaction needs somewhere to retire folded epochs; keep
            // the cold tier on whenever the fold is.
            opt.archive_cold = cfg_.archive_compact_every != 0;
          }
        }
      }
      const ContainerTriage triage = triage_container_file(path);
      // An unreadable file is NOT a triage verdict: the bytes may well be
      // a healthy container we just failed to read (fd exhaustion,
      // EACCES). Abort loudly rather than risk destroying it below.
      CRPM_CHECK(triage != ContainerTriage::kUnreadable,
                 "container file %s exists but could not be read; "
                 "refusing to triage it as damaged",
                 path.c_str());
      recovery_source_ = triage == ContainerTriage::kUsable
                             ? RecoverySource::kLocal
                             : RecoverySource::kFresh;
      // Second recovery level: a missing or invalid container file is
      // rebuilt from the newest restorable archived epoch, if any.
      if (recovery_source_ != RecoverySource::kLocal) {
        if (!opt.archive_path.empty() &&
            std::filesystem::exists(opt.archive_path)) {
          auto res = snapshot::restore_file(
              opt.archive_path, Container::kLatestEpoch, path, opt);
          if (res.container != nullptr) {
            res.container.reset();  // re-opened below via the normal path
            recovery_source_ = RecoverySource::kArchive;
          }
        }
        // No archive could rebuild it. A definitively-invalid file (the
        // header was read and carries wrong magic / torn format) is set
        // aside as <path>.damaged — never deleted — so the open below
        // formats fresh while the operator keeps the bytes for salvage.
        if (recovery_source_ != RecoverySource::kArchive &&
            triage == ContainerTriage::kInvalid) {
          const std::string damaged = path + ".damaged";
          std::error_code ec;
          std::filesystem::rename(path, damaged, ec);
          CRPM_CHECK(!ec, "could not set aside damaged container %s: %s",
                     path.c_str(), ec.message().c_str());
          CRPM_LOG_WARN(
              "container %s is not a valid container and no archive could "
              "rebuild it; preserved as %s, formatting fresh",
              path.c_str(), damaged.c_str());
        }
        std::error_code ec;
        std::filesystem::remove(path + ".restoring", ec);
      }
      auto dev = std::make_unique<FileNvmDevice>(
          path, Container::required_device_size(opt));
      dev->set_cost_model(cfg_.cost_model);
      Stopwatch sw;
      if (cfg_.comm != nullptr) {
        // Keep the device alive alongside the container.
        NvmDevice* raw = dev.get();
        owned_dev_ = std::move(dev);
        auto opened = coordinated_open(*cfg_.comm, cfg_.rank, raw, opt);
        ctr_ = std::move(opened.container);
      } else {
        ctr_ = Container::open(std::move(dev), opt);
      }
      recovery_seconds_ = sw.elapsed_sec();
      heap_ = std::make_unique<Heap>(*ctr_);
      archive_ = snapshot::ArchiveWriter::attach_if_configured(*ctr_);
      recovered_ = !ctr_->fresh();
      if (!recovered_) recovery_source_ = RecoverySource::kFresh;
      if (recovered_) {
        uint64_t off = ctr_->get_root(kIterationRoot);
        CRPM_CHECK(off != 0, "recovered container missing iteration root");
        iteration_ = *static_cast<uint64_t*>(ctr_->from_offset(off));
      } else {
        auto* it = static_cast<uint64_t*>(heap_->allocate(sizeof(uint64_t)));
        ctr_->annotate(it, sizeof(uint64_t));
        *it = 0;
        ctr_->set_root(kIterationRoot, ctr_->to_offset(it));
      }
      break;
    }
  }
}

StateStore::~StateStore() {
  if (ctr_ != nullptr && archive_ != nullptr) {
    ctr_->wait_committed();
    archive_->drain();
    ctr_->set_epoch_sink(nullptr);
  }
}

void* StateStore::raw_array(uint32_t slot, uint64_t bytes) {
  if (cfg_.backend == CkptBackend::kCrpmBuffered ||
      cfg_.backend == CkptBackend::kCrpmDefault) {
    CRPM_CHECK(slot < kIterationRoot, "slot %u reserved", slot);
    void* p;
    if (recovered_) {
      uint64_t off = ctr_->get_root(slot);
      CRPM_CHECK(off != 0, "recovered container missing array slot %u",
                 slot);
      p = ctr_->from_offset(off);
    } else {
      p = heap_->allocate(bytes);
      ctr_->annotate(p, bytes);
      std::memset(p, 0, bytes);
      ctr_->set_root(slot, ctr_->to_offset(p));
    }
    registered_.emplace_back(p, bytes);
    return p;
  }
  plain_arrays_.push_back(std::make_unique<uint8_t[]>(bytes));
  void* p = plain_arrays_.back().get();
  std::memset(p, 0, bytes);
  registered_.emplace_back(p, bytes);
  if (cfg_.backend == CkptBackend::kFti) {
    fti_->protect(static_cast<int>(slot), p, bytes);
  }
  return p;
}

void StateStore::finalize_recovery_probe() {
  if (!fti_recover_pending_) return;
  fti_recover_pending_ = false;
  Stopwatch sw;
  if (fti_->recover()) {
    recovered_ = true;
    std::memcpy(&iteration_, plain_arrays_.front().get(), 8);
  }
  recovery_seconds_ = sw.elapsed_sec();
}

void StateStore::mark_dirty(const void* p, uint64_t bytes) {
  if (ctr_ != nullptr) ctr_->annotate(p, bytes);
}

void StateStore::checkpoint() {
  Stopwatch sw;
  switch (cfg_.backend) {
    case CkptBackend::kNone:
      return;
    case CkptBackend::kFti: {
      finalize_recovery_probe();
      std::memcpy(plain_arrays_.front().get(), &iteration_, 8);
      fti_->checkpoint();
      if (cfg_.comm != nullptr) cfg_.comm->barrier();
      break;
    }
    case CkptBackend::kCrpmBuffered:
    case CkptBackend::kCrpmDefault: {
      uint64_t off = ctr_->get_root(kIterationRoot);
      auto* it = static_cast<uint64_t*>(ctr_->from_offset(off));
      ctr_->annotate(it, sizeof(uint64_t));
      *it = iteration_;
      if (cfg_.comm != nullptr) {
        coordinated_checkpoint(*cfg_.comm, *ctr_);
      } else {
        ctr_->checkpoint();
      }
      break;
    }
  }
  ckpt_seconds_ += sw.elapsed_sec();
  ++ckpts_;
}

uint64_t StateStore::state_bytes() const {
  uint64_t total = 0;
  for (const auto& [p, n] : registered_) total += n;
  return total;
}

uint64_t StateStore::storage_bytes() const {
  switch (cfg_.backend) {
    case CkptBackend::kNone: return 0;
    case CkptBackend::kFti: return fti_->checkpoint_state_bytes();
    case CkptBackend::kCrpmBuffered:
    case CkptBackend::kCrpmDefault: return ctr_->nvm_bytes();
  }
  return 0;
}

uint64_t StateStore::dram_bytes() const {
  return ctr_ != nullptr ? ctr_->dram_bytes() : 0;
}

uint64_t StateStore::checkpoint_bytes() const {
  switch (cfg_.backend) {
    case CkptBackend::kNone: return 0;
    case CkptBackend::kFti: return fti_->bytes_written();
    case CkptBackend::kCrpmBuffered:
    case CkptBackend::kCrpmDefault:
      return ctr_->stats().snapshot().checkpoint_bytes;
  }
  return 0;
}

}  // namespace crpm
