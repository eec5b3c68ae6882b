#include "snapshot/restore.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "tier/cold.h"
#include "util/logging.h"

namespace crpm::snapshot {

namespace {

RestoreStepHook g_step_hook;

void step(const char* name) {
  if (g_step_hook) g_step_hook(name);
}

// fsync `path` (and optionally its byte contents via the fd) so a rename
// that follows is durable in the right order.
bool fsync_path(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::string dirname_of(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// The restored container committed the image as its first epoch. Relabel
// it to the archived epoch, so the restore resumes the archive's timeline:
// an ArchiveWriter attached later continues the chain, instead of
// dropping every archived frame past epoch 1 and leaving a later restore
// stale. Renumbering must keep the epoch's residue mod the metadata
// replica count (Container::renumber_epoch), so first commit
// state-identical checkpoints until the residues match; touching a root
// with its own value defeats the empty-checkpoint skip.
void resume_at_epoch(Container& c, uint64_t epoch) {
  const uint64_t replicas = c.geometry().meta_replicas();
  c.wait_committed();
  while ((epoch - c.committed_epoch()) % replicas != 0) {
    c.set_root(0, c.get_root(0));
    c.checkpoint();
    c.wait_committed();
  }
  c.renumber_epoch(epoch);
}

// Cold-tier fallback: serve `epoch` (or the newest cold base when asked
// for kLatestEpoch) from `<archive>.cold/`. Each cold file is a standalone
// one-frame archive, so the regular reader handles it; only exact fold
// epochs are servable (a cold base carries no deltas to replay forward).
bool read_cold_state(const std::string& archive_path, uint64_t epoch,
                     uint64_t* chosen, std::vector<uint8_t>* image,
                     std::array<uint64_t, kNumRoots>* roots,
                     uint32_t workers, RestorePerf* perf) {
  auto entries = tier::ColdTier::list_for_archive(archive_path);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (epoch != Container::kLatestEpoch && it->epoch != epoch) continue;
    ArchiveReader cr(it->path);
    std::string cerr;
    if (cr.ok() && cr.state_at(it->epoch, image, roots, &cerr, workers,
                               perf)) {
      *chosen = it->epoch;
      return true;
    }
  }
  return false;
}

RestoreResult restore_impl(const std::string& archive_path, uint64_t epoch,
                           NvmDevice* dev,
                           std::unique_ptr<NvmDevice> owned_dev,
                           const CrpmOptions& opt) {
  RestoreResult r;
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
  uint64_t target = epoch;
  bool loaded = false;
  std::string hot_error;
  const uint32_t workers = detail::clamped_workers(opt);
  {
    ArchiveReader reader(archive_path);
    r.warnings = reader.scan().warnings;
    if (!reader.ok()) {
      hot_error = "not a valid snapshot archive: " + archive_path;
    } else {
      bool have_target = true;
      if (target == Container::kLatestEpoch) {
        if (reader.latest_restorable(&target)) {
          const auto& epochs = reader.scan().epochs;
          if (!epochs.empty() && epochs.back().epoch != target) {
            r.warnings.push_back(
                "newest archived epoch " +
                std::to_string(epochs.back().epoch) +
                " is not restorable; falling back to epoch " +
                std::to_string(target));
          }
        } else {
          have_target = false;
          target = Container::kLatestEpoch;  // let the cold tier pick
          hot_error = "archive holds no restorable epoch";
        }
      }
      if (have_target && reader.state_at(target, &image, &roots, &hot_error,
                                         workers, &r.perf)) {
        loaded = true;
      }
    }
  }
  if (!loaded) {
    // The hot archive cannot serve this epoch (compaction folded it away,
    // a corrupt chain, or the file is gone) — try the cold tier.
    if (read_cold_state(archive_path, epoch, &target, &image, &roots,
                        workers, &r.perf)) {
      loaded = true;
      r.warnings.push_back("epoch " + std::to_string(target) +
                           " served from the cold tier");
    }
  }
  if (!loaded) {
    r.error = hot_error;
    return r;
  }
  step("restore.image");

  CrpmOptions ropt = opt;
  ropt.thread_count = 1;       // restore is single-threaded
  ropt.archive_path.clear();   // never re-archive the replay itself
  if (Geometry(ropt).main_region_size() != image.size()) {
    r.error = "container options describe a " +
              std::to_string(Geometry(ropt).main_region_size()) +
              "-byte main region but the archive holds " +
              std::to_string(image.size()) + " bytes";
    return r;
  }

  std::unique_ptr<Container> c =
      owned_dev != nullptr ? Container::open(std::move(owned_dev), ropt)
                           : Container::open(dev, ropt);
  if (!c->fresh()) {
    r.error = "restore target device is not pristine";
    return r;
  }
  // The whole image is one annotated store: every non-zero byte of the
  // archived state lands in the working state, then one checkpoint commits
  // it as the restored container's first epoch.
  c->annotate(c->data(), image.size());
  std::memcpy(c->data(), image.data(), image.size());
  for (uint32_t s = 0; s < kNumRoots; ++s) c->set_root(s, roots[s]);
  c->checkpoint();
  resume_at_epoch(*c, target);
  step("restore.container");

  r.container = std::move(c);
  r.epoch = target;
  return r;
}

}  // namespace

void set_restore_step_hook(RestoreStepHook hook) {
  g_step_hook = std::move(hook);
}

namespace detail {
void restore_step(const char* name) { step(name); }

uint32_t clamped_workers(const CrpmOptions& opt) {
  return opt.restore_workers > kMaxRestoreWorkers ? kMaxRestoreWorkers
                                                  : opt.restore_workers;
}
}  // namespace detail

RestoreResult build_container_file(
    const uint8_t* image, uint64_t size,
    const std::array<uint64_t, kNumRoots>& roots, uint64_t epoch,
    const std::string& container_path, const CrpmOptions& opt) {
  RestoreResult r;
  r.epoch = epoch;
  CrpmOptions ropt = opt;
  ropt.thread_count = 1;
  ropt.archive_path.clear();
  if (Geometry(ropt).main_region_size() != size) {
    r.error = "container options describe a " +
              std::to_string(Geometry(ropt).main_region_size()) +
              "-byte main region but the restored image holds " +
              std::to_string(size) + " bytes";
    return r;
  }
  const std::string tmp = container_path + ".restoring";
  std::remove(tmp.c_str());
  {
    auto c = Container::open(
        std::make_unique<FileNvmDevice>(tmp,
                                        Container::required_device_size(ropt)),
        ropt);
    if (!c->fresh()) {
      r.error = "restore target device is not pristine";
      std::remove(tmp.c_str());
      return r;
    }
    c->annotate(c->data(), size);
    std::memcpy(c->data(), image, size);
    for (uint32_t s = 0; s < kNumRoots; ++s) c->set_root(s, roots[s]);
    c->checkpoint();
    resume_at_epoch(*c, epoch);
  }
  step("restore.tmp");
  if (!fsync_path(tmp)) {
    r.error = "fsync of restored container failed: " +
              std::string(std::strerror(errno));
    std::remove(tmp.c_str());
    return r;
  }
  step("restore.synced");
  if (std::rename(tmp.c_str(), container_path.c_str()) != 0) {
    r.error = "rename of restored container failed: " +
              std::string(std::strerror(errno));
    std::remove(tmp.c_str());
    return r;
  }
  fsync_path(dirname_of(container_path));
  step("restore.renamed");
  r.container = Container::open_file(container_path, ropt);
  if (r.container->fresh()) {
    r.container.reset();
    r.error = "restored container failed to reattach after rename";
  }
  return r;
}

RestoreResult restore(const std::string& archive_path, uint64_t epoch,
                      NvmDevice* dev, const CrpmOptions& opt) {
  return restore_impl(archive_path, epoch, dev, nullptr, opt);
}

RestoreResult restore(const std::string& archive_path, uint64_t epoch,
                      std::unique_ptr<NvmDevice> dev,
                      const CrpmOptions& opt) {
  return restore_impl(archive_path, epoch, nullptr, std::move(dev), opt);
}

RestoreResult restore_file(const std::string& archive_path, uint64_t epoch,
                           const std::string& container_path,
                           const CrpmOptions& opt) {
  // Materialize into a side file first: a crash anywhere before the final
  // rename leaves `container_path` untouched (old bytes or absent), so a
  // reattach never trusts a half-formatted restore target.
  const std::string tmp = container_path + ".restoring";
  std::remove(tmp.c_str());
  auto dev = std::make_unique<FileNvmDevice>(
      tmp, Container::required_device_size(opt));
  RestoreResult r = restore(archive_path, epoch, std::move(dev), opt);
  if (r.container == nullptr) {
    std::remove(tmp.c_str());
    return r;
  }
  step("restore.tmp");
  // Close the container so its mapping is flushed, then make the side
  // file durable before renaming it into place (cold-tier discipline:
  // fsync file, rename, fsync directory).
  r.container.reset();
  if (!fsync_path(tmp)) {
    r.error = "fsync of restored container failed: " +
              std::string(std::strerror(errno));
    std::remove(tmp.c_str());
    return r;
  }
  step("restore.synced");
  if (std::rename(tmp.c_str(), container_path.c_str()) != 0) {
    r.error = "rename of restored container failed: " +
              std::string(std::strerror(errno));
    std::remove(tmp.c_str());
    return r;
  }
  fsync_path(dirname_of(container_path));
  step("restore.renamed");

  // Reopen at the final path with the same reduced options restore used,
  // so callers still receive a live container.
  CrpmOptions ropt = opt;
  ropt.thread_count = 1;
  ropt.archive_path.clear();
  r.container = Container::open_file(container_path, ropt);
  if (r.container->fresh()) {
    r.container.reset();
    r.error = "restored container failed to reattach after rename";
  }
  return r;
}

bool read_state(const std::string& archive_path, uint64_t epoch,
                std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, std::string* err,
                uint32_t workers, RestorePerf* perf) {
  if (workers > kMaxRestoreWorkers) workers = kMaxRestoreWorkers;
  std::string hot_error;
  {
    ArchiveReader reader(archive_path);
    if (!reader.ok()) {
      hot_error = "not a valid snapshot archive: " + archive_path;
    } else {
      uint64_t target = epoch;
      if (target == Container::kLatestEpoch &&
          !reader.latest_restorable(&target)) {
        hot_error = "archive holds no restorable epoch";
      } else if (reader.state_at(target, image, roots, &hot_error, workers,
                                 perf)) {
        return true;
      }
    }
  }
  std::array<uint64_t, kNumRoots> cold_roots{};
  uint64_t chosen = 0;
  if (read_cold_state(archive_path, epoch, &chosen, image,
                      roots != nullptr ? roots : &cold_roots, workers,
                      perf)) {
    return true;
  }
  if (err) *err = hot_error;
  return false;
}

}  // namespace crpm::snapshot
