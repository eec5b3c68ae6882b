// crpm_inspect: offline container and archive inspection.
//
//   crpm_inspect <container-file>
//   crpm_inspect archive list <archive-file>
//   crpm_inspect archive verify <archive-file>
//   crpm_inspect archive dump <archive-file> <epoch> <out-file>
//   crpm_inspect repl status <replica-store-dir>
//   crpm_inspect kvd <server-data-dir>
//   crpm_inspect stats [sync|async|<engine>]
//
// Container form: prints the persistent metadata (header, committed epoch,
// segment-state histogram, backup pairings, roots, heap usage) and verifies
// the structural invariants that recovery depends on:
//
//   * magic/version/initialized flags
//   * geometry arithmetic consistent with the device size
//   * every pairing in range and no two backups paired to the same main
//   * segment states within the enum; SS_Backup only with a pairing
//
// Archive form: scans a snapshot archive (src/snapshot), listing every
// framed epoch with its CRC verdict and restorability, or dumps one epoch's
// reconstructed byte image to a file.
//
// Repl form: audits a replication store (src/repl) — one snapshot archive
// per peer rank — reporting each peer's newest restorable epoch and any
// corruption. Exits non-zero if any peer file is damaged.
//
// Kvd form: reports a crpm_kvd server data directory — container committed
// epoch, live key count (read straight out of the committed PHashMap meta,
// no recovery), the last-recovery source recorded by the server, and the
// archive's newest restorable epoch if one is configured. Exit 0 = healthy,
// 1 = not a kvd data directory, 2 = structurally damaged.
//
// Stats form: runs a fixed seeded micro-workload on an in-memory container
// and prints the CrpmStats line it produces — a quick way to see what the
// counters (and, with `async`, the capture/steal/backpressure counters of
// the background commit pipeline) look like for a known workload. With an
// engine name (foca, undolog, pagecow, adaptive) the same idea runs
// through the pluggable-engine layer (src/engines) instead and prints the
// per-engine EngineCounters line — for the adaptive engine that shows the
// strategy split and the transition counters.
//
// Read-only: opens files without running recovery, so it can be used on a
// crashed container or a torn archive before restarting the application.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/container.h"
#include "core/layout.h"
#include "engines/engine.h"
#include "nvm/device.h"
#include "snapshot/archive.h"
#include "snapshot/restore.h"
#include "scrub/scrubber.h"
#include "tier/codec.h"
#include "tier/cold.h"
#include "util/rng.h"
#include "util/table.h"

using namespace crpm;

namespace {

int inspect(const char* path) {
  int fd = ::open(path, O_RDONLY);
  if (fd < 0) {
    std::perror("open");
    return 1;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    std::perror("fstat");
    return 1;
  }
  auto size = static_cast<size_t>(st.st_size);
  if (size < sizeof(MetaHeader)) {
    std::fprintf(stderr, "file too small to be a crpm container\n");
    return 1;
  }
  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mem == MAP_FAILED) {
    std::perror("mmap");
    return 1;
  }
  const auto* h = static_cast<const MetaHeader*>(mem);
  const auto* base = static_cast<const uint8_t*>(mem);

  if (h->magic != kMetaMagic) {
    std::fprintf(stderr, "bad magic 0x%llx: not a crpm container\n",
                 (unsigned long long)h->magic);
    return 1;
  }

  std::printf("container:         %s\n", path);
  std::printf("version:           %u  (initialized: %s, mode: %s)\n",
              h->version, h->initialized ? "yes" : "NO",
              (h->flags & 1u) ? "buffered" : "default");
  std::printf("committed epoch:   %llu (active seg_state array: %llu)\n",
              (unsigned long long)h->committed_epoch,
              (unsigned long long)(h->committed_epoch & 1));
  std::printf("geometry:          %llu main + %llu backup segments of %s, "
              "%s blocks\n",
              (unsigned long long)h->nr_main_segs,
              (unsigned long long)h->nr_backup_segs,
              format_bytes(h->segment_size).c_str(),
              format_bytes(h->block_size).c_str());
  std::printf("device size:       %s (file), regions at %s / %s\n",
              format_bytes(size).c_str(),
              format_bytes(h->main_region_offset).c_str(),
              format_bytes(h->backup_region_offset).c_str());

  int errors = 0;
  uint64_t expected_min =
      h->backup_region_offset + h->nr_backup_segs * h->segment_size;
  if (size < expected_min) {
    std::printf("ERROR: file truncated: need %llu bytes\n",
                (unsigned long long)expected_min);
    ++errors;
  }

  // Segment state histograms for both arrays.
  const uint8_t* states = base + h->seg_state_offset;
  for (int a = 0; a < 2; ++a) {
    uint64_t counts[4] = {0, 0, 0, 0};
    for (uint64_t s = 0; s < h->nr_main_segs; ++s) {
      uint8_t v = states[a * h->nr_main_segs + s];
      if (v > kSegBackup) {
        if (counts[3]++ == 0) {
          std::printf("ERROR: seg_state[%d][%llu] = %u (invalid)\n", a,
                      (unsigned long long)s, v);
          ++errors;
        }
        continue;
      }
      ++counts[v];
    }
    std::printf("seg_state[%d]%s:     initial=%llu main=%llu backup=%llu"
                "%s\n",
                a,
                a == int(h->committed_epoch & 1) ? " (active)" : "         ",
                (unsigned long long)counts[0], (unsigned long long)counts[1],
                (unsigned long long)counts[2],
                counts[3] ? " INVALID!" : "");
  }

  // Pairings.
  const auto* b2m =
      reinterpret_cast<const uint32_t*>(base + h->backup_to_main_offset);
  std::vector<uint32_t> pair_of_main(h->nr_main_segs, kNoPair);
  uint64_t paired = 0;
  for (uint64_t b = 0; b < h->nr_backup_segs; ++b) {
    uint32_t m = b2m[b];
    if (m == kNoPair) continue;
    ++paired;
    if (m >= h->nr_main_segs) {
      std::printf("ERROR: backup %llu paired to out-of-range main %u\n",
                  (unsigned long long)b, m);
      ++errors;
      continue;
    }
    if (pair_of_main[m] != kNoPair) {
      std::printf("ERROR: main segment %u paired to backups %u and %llu\n",
                  m, pair_of_main[m], (unsigned long long)b);
      ++errors;
    }
    pair_of_main[m] = static_cast<uint32_t>(b);
  }
  std::printf("pairings:          %llu of %llu backups in use\n",
              (unsigned long long)paired,
              (unsigned long long)h->nr_backup_segs);

  // SS_Backup requires a pairing (in the active array).
  const uint8_t* active =
      states + (h->committed_epoch & 1) * h->nr_main_segs;
  for (uint64_t s = 0; s < h->nr_main_segs; ++s) {
    if (active[s] == kSegBackup && pair_of_main[s] == kNoPair) {
      std::printf("ERROR: segment %llu is SS_Backup but has no pairing\n",
                  (unsigned long long)s);
      ++errors;
    }
  }

  // Roots (double-buffered; report the committed/active copy).
  const auto* roots =
      reinterpret_cast<const uint64_t*>(base + h->roots_offset) +
      (h->committed_epoch & 1) * kNumRoots;
  for (uint32_t r = 0; r < kNumRoots; ++r) {
    if (roots[r] != 0) {
      std::printf("root[%u]:           offset %llu%s\n", r,
                  (unsigned long long)roots[r],
                  roots[r] >= h->nr_main_segs * h->segment_size
                      ? "  ERROR: out of range"
                      : "");
      if (roots[r] >= h->nr_main_segs * h->segment_size) ++errors;
    }
  }

  // Heap header (if present at main region offset 0).
  const auto* heap_words =
      reinterpret_cast<const uint64_t*>(base + h->main_region_offset);
  if (heap_words[0] == 0x6372706d68656170ull /* crpm::Heap magic */) {
    std::printf("heap:              bump=%s, live=%s of %s\n",
                format_bytes(heap_words[2]).c_str(),
                format_bytes(heap_words[3]).c_str(),
                format_bytes(heap_words[1]).c_str());
  }

  std::printf("%s (%d error%s)\n",
              errors == 0 ? "container is structurally consistent"
                          : "CONTAINER IS CORRUPT",
              errors, errors == 1 ? "" : "s");
  ::munmap(mem, size);
  ::close(fd);
  return errors == 0 ? 0 : 2;
}

// --- archive subcommands --------------------------------------------------

int archive_list(const char* path, bool verify_only) {
  snapshot::ArchiveReader reader(path);
  const auto& scan = reader.scan();
  for (const auto& w : scan.warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  if (!scan.valid) {
    std::fprintf(stderr, "%s: not a valid snapshot archive\n", path);
    return 1;
  }
  const auto& h = scan.header;
  std::printf("archive:           %s\n", path);
  std::printf("geometry:          %s region, %s blocks, %s segments\n",
              format_bytes(h.region_size).c_str(),
              format_bytes(h.block_size).c_str(),
              format_bytes(h.segment_size).c_str());
  std::printf("epochs:            %zu framed", scan.epochs.size());
  if (scan.truncated_bytes != 0)
    std::printf("  (+%llu truncated tail bytes dropped)",
                (unsigned long long)scan.truncated_bytes);
  std::printf("\n");

  // The cold tier beside the archive is part of its restorability story:
  // list/verify both, and a damaged cold base is archive damage (exit 2).
  const auto cold = tier::ColdTier::list_for_archive(path);

  auto ratio_of = [](const snapshot::EpochInfo& e) {
    char buf[16];
    if (e.codec == tier::kCodecNone || e.raw_bytes == 0) return std::string("-");
    std::snprintf(buf, sizeof(buf), "%.2f",
                  static_cast<double>(e.frame_bytes) /
                      static_cast<double>(e.raw_bytes));
    return std::string(buf);
  };

  uint64_t corrupt = 0, unrestorable = 0, cold_epochs = 0;
  if (!verify_only) {
    TablePrinter t({"epoch", "tier", "kind", "blocks", "bytes", "codec",
                    "ratio", "crc", "restorable"});
    for (const auto& e : scan.epochs) {
      bool r = reader.restorable(e.epoch);
      if (!e.intact) ++corrupt;
      if (!r) ++unrestorable;
      t.row()
          .cell(e.epoch)
          .cell("hot")
          .cell(snapshot::is_base_kind(e.kind) ? "base" : "delta")
          .cell(e.block_count)
          .cell(format_bytes(e.frame_bytes))
          .cell(tier::codec_name(e.codec))
          .cell(ratio_of(e))
          .cell(e.intact ? "ok" : "CORRUPT")
          .cell(r ? "yes" : "NO");
    }
    for (const auto& ce : cold) {
      snapshot::ArchiveReader cr(ce.path);
      const auto& cs = cr.scan();
      const snapshot::EpochInfo* info = nullptr;
      for (const auto& e : cs.epochs)
        if (e.epoch == ce.epoch) info = &e;
      bool ok = cr.ok() && info != nullptr && info->intact &&
                cr.restorable(ce.epoch);
      if (!ok) ++corrupt;
      ++cold_epochs;
      auto& row = t.row().cell(ce.epoch).cell("cold").cell("base");
      if (info != nullptr) {
        row.cell(info->block_count)
            .cell(format_bytes(info->frame_bytes))
            .cell(tier::codec_name(info->codec))
            .cell(ratio_of(*info));
      } else {
        row.cell("?").cell(format_bytes(ce.bytes)).cell("?").cell("-");
      }
      row.cell(ok ? "ok" : "CORRUPT").cell(ok ? "yes" : "NO");
    }
    t.print();
  } else {
    for (const auto& e : scan.epochs) {
      if (!e.intact) {
        ++corrupt;
        std::printf("epoch %llu: CORRUPT (CRC mismatch)\n",
                    (unsigned long long)e.epoch);
      }
      if (!reader.restorable(e.epoch)) ++unrestorable;
    }
    for (const auto& ce : cold) {
      ++cold_epochs;
      snapshot::ArchiveReader cr(ce.path);
      if (!cr.ok() || !cr.restorable(ce.epoch)) {
        ++corrupt;
        std::printf("cold epoch %llu: CORRUPT (%s)\n",
                    (unsigned long long)ce.epoch, ce.path.c_str());
      }
    }
  }

  uint64_t latest = 0;
  if (reader.latest_restorable(&latest))
    std::printf("latest restorable: epoch %llu\n", (unsigned long long)latest);
  else
    std::printf("latest restorable: NONE\n");
  if (cold_epochs != 0)
    std::printf("cold tier:         %llu base%s under %s\n",
                (unsigned long long)cold_epochs, cold_epochs == 1 ? "" : "s",
                tier::ColdTier::dir_for(path).c_str());

  bool bad = corrupt != 0 || scan.truncated_bytes != 0;
  std::printf("%s (%llu corrupt, %llu unrestorable of %zu hot + %llu cold)\n",
              bad ? "ARCHIVE HAS DAMAGE" : "archive is fully intact",
              (unsigned long long)corrupt, (unsigned long long)unrestorable,
              scan.epochs.size(), (unsigned long long)cold_epochs);
  return bad ? 2 : 0;
}

int archive_dump(const char* path, const char* epoch_str, const char* out) {
  char* end = nullptr;
  uint64_t epoch = std::strtoull(epoch_str, &end, 10);
  if (end == epoch_str || *end != '\0') {
    std::fprintf(stderr, "bad epoch '%s'\n", epoch_str);
    return 64;
  }
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
  std::string err;
  if (!snapshot::read_state(path, epoch, &image, &roots, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  std::FILE* f = std::fopen(out, "wb");
  if (f == nullptr || std::fwrite(image.data(), 1, image.size(), f) !=
                          image.size()) {
    std::perror("write");
    if (f) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  std::printf("epoch %llu: %s written to %s\n", (unsigned long long)epoch,
              format_bytes(image.size()).c_str(), out);
  for (uint32_t r = 0; r < kNumRoots; ++r)
    if (roots[r] != 0)
      std::printf("root[%u]:           offset %llu\n", r,
                  (unsigned long long)roots[r]);
  return 0;
}

// --- replication store ----------------------------------------------------

int repl_status(const char* dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    std::fprintf(stderr, "%s: not a directory\n", dir);
    return 1;
  }
  std::printf("replica store:     %s\n", dir);

  int damaged = 0;
  size_t peers = 0;
  TablePrinter t({"peer", "epochs", "newest", "bytes", "status"});
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("peer_", 0) == 0 &&
        name.find(".crpmsnap") != std::string::npos) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    ++peers;
    const std::string name = path.filename().string();
    const std::string peer =
        name.substr(5, name.size() - 5 - std::strlen(".crpmsnap"));
    snapshot::ArchiveReader reader(path.string());
    const auto& scan = reader.scan();
    if (!scan.valid) {
      t.row().cell(peer).cell(0).cell("-").cell("-").cell("INVALID");
      ++damaged;
      continue;
    }
    uint64_t corrupt = 0, bytes = 0;
    for (const auto& ep : scan.epochs) {
      if (!ep.intact) ++corrupt;
      bytes += ep.frame_bytes;
    }
    uint64_t newest = 0;
    bool has = reader.latest_restorable(&newest);
    bool bad = corrupt != 0 || scan.truncated_bytes != 0;
    if (bad) ++damaged;
    t.row()
        .cell(peer)
        .cell(scan.epochs.size())
        .cell(has ? std::to_string(newest) : "-")
        .cell(format_bytes(bytes))
        .cell(bad ? "DAMAGED" : "ok");
  }
  t.print();
  std::printf("%s (%zu peer file%s, %d damaged)\n",
              damaged == 0 ? "replica store is intact"
                           : "REPLICA STORE HAS DAMAGE",
              peers, peers == 1 ? "" : "s", damaged);
  return damaged == 0 ? 0 : 2;
}

// --- kvd server data directory --------------------------------------------

// Reads the committed key count without opening (and thus recovering) the
// container: committed roots -> PHashMap meta {buckets_off, bucket_count,
// size} inside the main region. Mirrors src/net/kv_service.h's layout.
int kvd_status(const char* dir) {
  const std::string ctr_path = std::string(dir) + "/crpm-rank0.ctr";
  const std::string snap_path = std::string(dir) + "/crpm-rank0.snap";
  const std::string marker = std::string(dir) + "/LAST_RECOVERY";
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    std::fprintf(stderr, "%s: not a directory\n", dir);
    return 1;
  }
  if (!std::filesystem::exists(ctr_path, ec)) {
    std::fprintf(stderr, "%s: no crpm-rank0.ctr — not a kvd data dir\n",
                 dir);
    return 1;
  }

  int fd = ::open(ctr_path.c_str(), O_RDONLY);
  if (fd < 0) {
    std::perror("open");
    return 1;
  }
  struct stat st{};
  ::fstat(fd, &st);
  auto size = static_cast<size_t>(st.st_size);
  if (size < sizeof(MetaHeader)) {
    std::fprintf(stderr, "container file truncated\n");
    ::close(fd);
    return 2;
  }
  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    std::perror("mmap");
    return 1;
  }
  const auto* h = static_cast<const MetaHeader*>(mem);
  const auto* base = static_cast<const uint8_t*>(mem);
  if (h->magic != kMetaMagic || h->initialized == 0) {
    std::fprintf(stderr, "container is not initialized (magic/flag)\n");
    ::munmap(mem, size);
    return 2;
  }

  std::printf("kvd data dir:      %s\n", dir);
  std::printf("committed epoch:   %llu\n",
              (unsigned long long)h->committed_epoch);

  int rc = 0;
  const auto* roots =
      reinterpret_cast<const uint64_t*>(base + h->roots_offset) +
      (h->committed_epoch & 1) * kNumRoots;
  const uint64_t main_size = h->nr_main_segs * h->segment_size;
  if (roots[0] == 0) {
    std::printf("key count:         (no map root committed yet)\n");
  } else if (roots[0] + 24 > main_size ||
             h->main_region_offset + roots[0] + 24 > size) {
    std::printf("key count:         ERROR: map root out of range\n");
    rc = 2;
  } else {
    const auto* meta = reinterpret_cast<const uint64_t*>(
        base + h->main_region_offset + roots[0]);
    std::printf("key count:         %llu (in %llu buckets)\n",
                (unsigned long long)meta[2], (unsigned long long)meta[1]);
  }

  std::string src = "(unknown: no LAST_RECOVERY marker)";
  if (std::FILE* f = std::fopen(marker.c_str(), "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) {
      buf[std::strcspn(buf, "\n")] = '\0';
      src = buf;
    }
    std::fclose(f);
  }
  std::printf("last recovery:     %s\n", src.c_str());

  if (std::filesystem::exists(snap_path, ec)) {
    snapshot::ArchiveReader reader(snap_path);
    uint64_t newest = 0;
    if (reader.scan().valid && reader.latest_restorable(&newest)) {
      std::printf("archive:           newest restorable epoch %llu\n",
                  (unsigned long long)newest);
    } else {
      std::printf("archive:           present but NOT restorable\n");
      rc = 2;
    }
  } else {
    std::printf("archive:           none\n");
  }
  ::munmap(mem, size);
  std::printf("%s\n", rc == 0 ? "kvd data dir is consistent"
                              : "KVD DATA DIR IS DAMAGED");
  return rc;
}

// --- stats demo -----------------------------------------------------------

// Deterministic micro-workload: 6 epochs of 48 seeded 8-byte writes on a
// 16-segment in-memory container. In async mode the pipeline runs
// cooperatively (workers = 0) and a few captured cells are rewritten right
// after each capture, so every async counter — captures, steals, the
// in-flight high-water mark, pipeline flush bytes, backpressure — is
// exercised on every run.
int stats_demo(const char* mode) {
  const bool async = std::strcmp(mode, "async") == 0;
  CrpmOptions o;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 16 * 1024;
  o.eager_cow_segments = async ? 0 : 4;
  o.async_checkpoint = async;
  o.async_workers = 0;
  HeapNvmDevice dev(Container::required_device_size(o));
  auto c = Container::open(&dev, o);

  constexpr uint64_t kEpochs = 6;
  constexpr int kWrites = 48;
  const uint64_t cells = o.main_region_size / 8;
  Xoshiro256 rng(42);
  auto put = [&](uint64_t cell, uint64_t v) {
    c->annotate(c->data() + cell * 8, 8);
    std::memcpy(c->data() + cell * 8, &v, 8);
  };
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    for (int i = 0; i < kWrites; ++i) put(rng.next_below(cells), rng.next());
    c->set_root(0, e);
    c->checkpoint();
    if (async) {
      // Rewrite a few captured cells while the window is open: the write
      // hook steals their segments' flushes.
      for (int i = 0; i < 4; ++i) put(rng.next_below(cells), rng.next());
    }
  }
  c->wait_committed();

  std::printf("workload:          %llu epochs x %d writes, %s checkpoints\n",
              (unsigned long long)kEpochs, kWrites,
              async ? "async (cooperative pipeline)" : "synchronous");
  std::printf("committed epoch:   %llu\n",
              (unsigned long long)c->committed_epoch());
  std::printf("stats:             %s\n",
              c->stats().snapshot().to_string().c_str());
  return 0;
}

// Engine form of the stats demo: the same idea replayed through one
// pluggable checkpoint engine. The workload aims 7 of 8 writes at a
// rotating hot segment with a uniform scatter for the rest — dense enough
// for mid-epoch promotions, sparse enough elsewhere that the adaptive
// engine keeps a LOG population, so every strategy counter is nonzero on
// every run.
int engine_stats_demo(const std::string& name) {
  const auto names = engines::engine_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::fprintf(stderr,
                 "stats wants 'sync', 'async' or an engine name "
                 "(foca|undolog|pagecow|adaptive), got '%s'\n",
                 name.c_str());
    return 64;
  }
  CrpmOptions o;
  o.engine = name;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 16 * 1024;
  o.eager_cow_segments = 4;
  HeapNvmDevice dev(engines::engine_device_size(o));
  auto e = engines::open_engine(&dev, o);

  constexpr uint64_t kEpochs = 6;
  constexpr int kWrites = 48;
  uint8_t* w = e->data();
  const uint64_t cap = e->capacity();
  Xoshiro256 rng(42);
  for (uint64_t ep = 1; ep <= kEpochs; ++ep) {
    const uint64_t hot = (ep % (cap / o.segment_size)) * o.segment_size;
    for (int i = 0; i < kWrites; ++i) {
      uint64_t off = (i % 8 != 7)
                         ? hot + rng.next_below(o.segment_size / 8) * 8
                         : rng.next_below(cap / 8) * 8;
      uint64_t v = rng.next() | 1;
      e->annotate(w + off, 8);
      std::memcpy(w + off, &v, 8);
    }
    e->set_root(0, ep * 8);
    e->checkpoint();
  }

  std::printf("workload:          %llu epochs x %d writes, hot segment + "
              "uniform scatter\n",
              (unsigned long long)kEpochs, kWrites);
  std::printf("engine:            %s\n", e->name());
  std::printf("committed epoch:   %llu\n",
              (unsigned long long)e->committed_epoch());
  std::printf("engine stats:      %s\n", e->counters().to_string().c_str());
  return 0;
}

// --- scrub ----------------------------------------------------------------
//
// One offline scrubber pass over every container (*.ctr) and archive
// (*.snap, cold tier rides along) in a data directory, via the same
// src/scrub engine the server runs online. Damaged objects get a
// `<object>.quarantine` marker (unless --no-quarantine) so a later restart
// or inspect run still sees the verdict. Exit 0 = clean, 2 = damage found
// or quarantined (pre-existing markers count: quarantine is sticky until
// an operator removes the marker).
int scrub_dir(const std::string& dir, bool quarantine) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    std::fprintf(stderr, "scrub: %s is not a directory\n", dir.c_str());
    return 1;
  }
  scrub::ScrubReport r = scrub::scrub_directory(dir, quarantine);
  std::printf("scrub: %llu frames, %llu bytes checked, %llu skipped "
              "(epoch-racy), %zu findings\n",
              (unsigned long long)r.frames_checked,
              (unsigned long long)r.bytes_checked,
              (unsigned long long)r.skipped, r.findings.size());
  for (const auto& f : r.findings) {
    std::printf("  DAMAGE %s: %s\n", f.object.c_str(), f.detail.c_str());
  }
  return r.damaged() ? 2 : 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <container-file>\n"
               "       %s archive list <archive-file>\n"
               "       %s archive verify <archive-file>\n"
               "       %s archive dump <archive-file> <epoch> <out-file>\n"
               "       %s repl status <replica-store-dir>\n"
               "       %s kvd <server-data-dir>\n"
               "       %s scrub <data-dir> [--no-quarantine]\n"
               "       %s stats [sync|async|foca|undolog|pagecow|adaptive]"
               "\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "archive") == 0) {
    if (argc == 4 && std::strcmp(argv[2], "list") == 0)
      return archive_list(argv[3], false);
    if (argc == 4 && std::strcmp(argv[2], "verify") == 0)
      return archive_list(argv[3], true);
    if (argc == 6 && std::strcmp(argv[2], "dump") == 0)
      return archive_dump(argv[3], argv[4], argv[5]);
    return usage(argv[0]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "repl") == 0) {
    if (argc == 4 && std::strcmp(argv[2], "status") == 0)
      return repl_status(argv[3]);
    return usage(argv[0]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "kvd") == 0) {
    if (argc == 3) return kvd_status(argv[2]);
    return usage(argv[0]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "scrub") == 0) {
    if (argc == 3) return scrub_dir(argv[2], true);
    if (argc == 4 && std::strcmp(argv[3], "--no-quarantine") == 0)
      return scrub_dir(argv[2], false);
    return usage(argv[0]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "stats") == 0) {
    if (argc > 3) return usage(argv[0]);
    const char* mode = argc == 3 ? argv[2] : "async";
    if (std::strcmp(mode, "sync") == 0 || std::strcmp(mode, "async") == 0)
      return stats_demo(mode);
    return engine_stats_demo(mode);
  }
  if (argc != 2) return usage(argv[0]);
  return inspect(argv[1]);
}
