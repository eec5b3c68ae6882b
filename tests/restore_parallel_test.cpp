// Property test for the parallel restore read path: across randomized
// epoch/segment geometries, the parallel chain staging and sharded record
// apply must reproduce the serial ones byte for byte — which in turn must
// reproduce the recorded golden state — for every restorable epoch, at
// every worker count, for plain and lzb-coded chains, through both the
// blocking and the lazy restore, and through the corrupt-frame fallback.
// The worker pool only reorders the staging and the apply; any divergence
// is a staging, sharding or stealing bug.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "case_dir.h"
#include "core/container.h"
#include "nvm/device.h"
#include "snapshot/archive.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "tier/codec.h"
#include "util/rng.h"

namespace crpm {
namespace {

struct Geometry {
  uint64_t segment_size = 0;
  uint64_t block_size = 0;
  uint64_t region = 0;
  uint64_t epochs = 0;
  uint64_t seed = 0;
};

CrpmOptions opts_for(const Geometry& g) {
  CrpmOptions o;
  o.segment_size = g.segment_size;
  o.block_size = g.block_size;
  o.main_region_size = g.region;
  return o;
}

// Draws a geometry whose segment count and epoch count vary enough to hit
// uneven shards, single-segment regions, and worker counts above the
// segment count.
Geometry draw_geometry(Xoshiro256& rng) {
  static const uint64_t kSegs[] = {512, 1024, 2048, 4096};
  static const uint64_t kBlocks[] = {64, 128, 256};
  Geometry g;
  g.segment_size = kSegs[rng.next_below(4)];
  g.block_size = kBlocks[rng.next_below(3)];
  if (g.block_size > g.segment_size) g.block_size = g.segment_size;
  g.region = g.segment_size * (1 + rng.next_below(24));
  g.epochs = 2 + rng.next_below(5);
  g.seed = rng.next();
  return g;
}

struct EpochRecord {
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
};

// Archives `g.epochs` epochs of a seeded random workload and returns the
// reference state after each commit (index e-1 holds epoch e). With
// `codec` set, the writer lzb-codes the frames and the workload writes
// short byte runs, so the frames compress and win codec negotiation.
std::vector<EpochRecord> build_archive(const Geometry& g,
                                       const std::string& path,
                                       uint32_t codec = tier::kCodecNone) {
  const CrpmOptions opt = opts_for(g);
  auto c = Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
  snapshot::SnapshotOptions sopt;
  sopt.tier.codec = codec;
  snapshot::ArchiveWriter w(path, sopt);
  w.attach(*c);
  Xoshiro256 rng(g.seed);
  std::vector<EpochRecord> recs;
  for (uint64_t e = 1; e <= g.epochs; ++e) {
    const int runs = 2 + static_cast<int>(rng.next_below(6));
    for (int r = 0; r < runs; ++r) {
      uint64_t len = 1 + rng.next_below(2 * g.segment_size);
      if (len > g.region) len = g.region;
      uint64_t off = rng.next_below(g.region - len + 1);
      c->annotate(c->data() + off, len);
      uint8_t run_byte = 0;
      for (uint64_t i = 0; i < len; ++i) {
        if (codec == tier::kCodecNone || i % 24 == 0) {
          run_byte = static_cast<uint8_t>(rng.next());
        }
        c->data()[off + i] = run_byte;
      }
    }
    c->set_root(0, e * 1000);
    c->set_root(1, rng.next());
    c->checkpoint();
    EpochRecord rec;
    rec.image.assign(c->data(), c->data() + g.region);
    for (uint32_t s = 0; s < kNumRoots; ++s) rec.roots[s] = c->get_root(s);
    recs.push_back(std::move(rec));
  }
  w.drain();
  c->set_epoch_sink(nullptr);
  return recs;
}

TEST(RestoreParallel, MatchesSerialAndGoldenAcrossRandomGeometries) {
  Xoshiro256 meta_rng(20260808);
  for (int trial = 0; trial < 6; ++trial) {
    const Geometry g = draw_geometry(meta_rng);
    SCOPED_TRACE("segment=" + std::to_string(g.segment_size) +
                 " block=" + std::to_string(g.block_size) +
                 " region=" + std::to_string(g.region) +
                 " epochs=" + std::to_string(g.epochs) +
                 " seed=" + std::to_string(g.seed));
    CaseDir dir;
    const std::string path = dir.file("prop" + std::to_string(trial) +
                                      ".crpmsnap");
    const std::vector<EpochRecord> recs = build_archive(g, path);

    for (uint64_t e = 1; e <= g.epochs; ++e) {
      std::vector<uint8_t> serial_image;
      std::array<uint64_t, kNumRoots> serial_roots{};
      std::string err;
      ASSERT_TRUE(snapshot::read_state(path, e, &serial_image, &serial_roots,
                                       &err))
          << "epoch " << e << ": " << err;
      ASSERT_EQ(serial_image, recs[e - 1].image) << "serial diverges from "
                                                    "golden at epoch "
                                                 << e;
      ASSERT_EQ(serial_roots, recs[e - 1].roots);

      for (uint32_t workers : {2u, 3u, 8u}) {
        std::vector<uint8_t> par_image;
        std::array<uint64_t, kNumRoots> par_roots{};
        snapshot::RestorePerf perf;
        ASSERT_TRUE(snapshot::read_state(path, e, &par_image, &par_roots,
                                         &err, workers, &perf))
            << "epoch " << e << " workers " << workers << ": " << err;
        EXPECT_EQ(par_image, serial_image)
            << "parallel apply diverged at epoch " << e << " with "
            << workers << " workers";
        EXPECT_EQ(par_roots, serial_roots);
        EXPECT_EQ(perf.workers, workers);
        EXPECT_GT(perf.records, 0u);
        EXPECT_GE(perf.apply_ns_total, perf.apply_ns_critical)
            << "the critical path cannot exceed the summed thread CPU";
      }
    }
  }
}

TEST(RestoreParallel, FullRestoreContainerIsBitIdentical) {
  Xoshiro256 meta_rng(77);
  const Geometry g = draw_geometry(meta_rng);
  const CrpmOptions opt = opts_for(g);
  CaseDir dir;
  const std::string path = dir.file("container.crpmsnap");
  const std::vector<EpochRecord> recs = build_archive(g, path);

  CrpmOptions popt = opt;
  popt.restore_workers = 4;
  auto rr = snapshot::restore(
      path, Container::kLatestEpoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(popt)),
      popt);
  ASSERT_NE(rr.container, nullptr) << rr.error;
  EXPECT_EQ(rr.epoch, g.epochs);
  EXPECT_EQ(rr.perf.workers, 4u);
  EXPECT_GT(rr.perf.frames, 0u);
  const EpochRecord& want = recs[g.epochs - 1];
  EXPECT_EQ(std::memcmp(rr.container->data(), want.image.data(),
                        want.image.size()),
            0);
  for (uint32_t s = 0; s < kNumRoots; ++s) {
    EXPECT_EQ(rr.container->get_root(s), want.roots[s]) << "slot " << s;
  }
}

TEST(RestoreParallel, CorruptFrameFallbackMatchesSerial) {
  Geometry g;
  g.segment_size = 1024;
  g.block_size = 128;
  g.region = 16 * 1024;
  g.epochs = 5;
  g.seed = 42;
  CaseDir dir;
  const std::string path = dir.file("corrupt.crpmsnap");
  const std::vector<EpochRecord> recs = build_archive(g, path);

  // Flip one payload byte inside the tail epoch's frame: "latest" must
  // fall back to the newest intact epoch, with a warning, identically for
  // the serial and the parallel apply.
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    const auto& epochs = reader.scan().epochs;
    ASSERT_EQ(epochs.size(), g.epochs);
    const auto& tail = epochs.back();
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(
                  f,
                  static_cast<long>(tail.file_offset + tail.frame_bytes / 2),
                  SEEK_SET),
              0);
    int ch = std::fgetc(f);
    ASSERT_NE(ch, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(ch ^ 0x5a, f);
    std::fclose(f);
  }

  CrpmOptions popt = opts_for(g);
  popt.restore_workers = 4;
  auto par = snapshot::restore(
      path, Container::kLatestEpoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(popt)),
      popt);
  ASSERT_NE(par.container, nullptr) << par.error;
  EXPECT_LT(par.epoch, g.epochs) << "fallback must skip the corrupt tail";
  EXPECT_FALSE(par.warnings.empty());

  auto serial = snapshot::restore(
      path, Container::kLatestEpoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(popt)),
      opts_for(g));
  ASSERT_NE(serial.container, nullptr) << serial.error;
  EXPECT_EQ(par.epoch, serial.epoch);
  EXPECT_EQ(std::memcmp(par.container->data(), serial.container->data(),
                        g.region),
            0);
  const EpochRecord& want = recs[par.epoch - 1];
  EXPECT_EQ(std::memcmp(par.container->data(), want.image.data(),
                        want.image.size()),
            0);
}

// A chain of lzb-coded delta frames from epoch 1; every frame compresses.
Geometry coded_geometry() {
  Geometry g;
  g.segment_size = 2048;
  g.block_size = 128;
  g.region = 24 * 2048;
  g.epochs = 9;
  g.seed = 4242;
  return g;
}

// Counts the coded frames among the scanned epochs.
size_t coded_frames(const std::string& path) {
  snapshot::ArchiveReader reader(path);
  size_t n = 0;
  for (const auto& info : reader.scan().epochs) {
    n += info.codec == tier::kCodecLzb ? 1 : 0;
  }
  return n;
}

// Flips one byte in the middle of epoch `epoch`'s frame.
void flip_frame_byte(const std::string& path, uint64_t epoch) {
  uint64_t at = 0;
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    bool found = false;
    for (const auto& info : reader.scan().epochs) {
      if (info.epoch != epoch) continue;
      at = info.file_offset + info.frame_bytes / 2;
      found = true;
    }
    ASSERT_TRUE(found) << "epoch " << epoch << " is not archived";
  }
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(at), SEEK_SET), 0);
  int ch = std::fgetc(f);
  ASSERT_NE(ch, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(ch ^ 0x5a, f);
  std::fclose(f);
}

CrpmOptions with_workers(const Geometry& g, uint32_t workers) {
  CrpmOptions o = opts_for(g);
  o.restore_workers = workers;
  return o;
}

snapshot::RestoreResult restore_heap(const std::string& path, uint64_t epoch,
                                     const CrpmOptions& opt) {
  return snapshot::restore(
      path, epoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
}

TEST(RestoreParallel, CodedChainStagesIdenticallyForOneAndFourWorkers) {
  const Geometry g = coded_geometry();
  CaseDir dir;
  const std::string path = dir.file("coded.crpmsnap");
  const std::vector<EpochRecord> recs =
      build_archive(g, path, tier::kCodecLzb);
  ASSERT_GE(coded_frames(path), g.epochs - 1) << "the codec must win";

  for (uint64_t e = 1; e <= g.epochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    std::vector<uint8_t> img1, img4;
    std::array<uint64_t, kNumRoots> roots1{}, roots4{};
    snapshot::RestorePerf perf1, perf4;
    std::string err;
    ASSERT_TRUE(
        snapshot::read_state(path, e, &img1, &roots1, &err, 1, &perf1))
        << err;
    ASSERT_TRUE(
        snapshot::read_state(path, e, &img4, &roots4, &err, 4, &perf4))
        << err;
    EXPECT_EQ(img1, recs[e - 1].image);
    EXPECT_EQ(img4, img1);
    EXPECT_EQ(roots1, recs[e - 1].roots);
    EXPECT_EQ(roots4, roots1);
    EXPECT_EQ(perf4.frames, perf1.frames);
    EXPECT_EQ(perf4.records, perf1.records);
  }

  // The blocking and the lazy restore, at one and at four workers.
  const EpochRecord& want = recs.back();
  for (uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const CrpmOptions opt = with_workers(g, workers);
    auto rr = restore_heap(path, Container::kLatestEpoch, opt);
    ASSERT_NE(rr.container, nullptr) << rr.error;
    EXPECT_EQ(rr.epoch, g.epochs);
    EXPECT_EQ(rr.container->committed_epoch(), g.epochs)
        << "a restore resumes at the archived epoch";
    EXPECT_EQ(std::memcmp(rr.container->data(), want.image.data(),
                          want.image.size()),
              0);
    for (uint32_t s = 0; s < kNumRoots; ++s) {
      EXPECT_EQ(rr.container->get_root(s), want.roots[s]) << "slot " << s;
    }

    auto lazy = snapshot::restore_lazy(path, Container::kLatestEpoch, opt);
    ASSERT_TRUE(lazy->ok()) << lazy->error();
    EXPECT_EQ(lazy->epoch(), g.epochs);
    EXPECT_EQ(lazy->roots(), want.roots);
    lazy->materialize_all(workers);
    EXPECT_EQ(std::memcmp(lazy->data(), want.image.data(), want.image.size()),
              0);
  }
}

TEST(RestoreParallel, CorruptCodedMidChainFrameFallsBackAlikeForOneAndFour) {
  const Geometry g = coded_geometry();
  CaseDir dir;
  const std::string path = dir.file("coded_corrupt.crpmsnap");
  const std::vector<EpochRecord> recs =
      build_archive(g, path, tier::kCodecLzb);
  const uint64_t bad = g.epochs / 2;
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_EQ(reader.scan().epochs.size(), g.epochs);
    ASSERT_EQ(reader.scan().epochs[bad - 1].codec, tier::kCodecLzb);
  }
  flip_frame_byte(path, bad);

  struct Outcome {
    uint64_t latest = 0;
    std::vector<std::string> warnings;
    std::string error;
    uint64_t lazy_latest = 0;
    std::vector<std::string> lazy_warnings;
    std::string lazy_error;
  };
  auto run = [&](uint32_t workers) {
    Outcome o;
    const CrpmOptions opt = with_workers(g, workers);
    auto latest = restore_heap(path, Container::kLatestEpoch, opt);
    EXPECT_NE(latest.container, nullptr) << latest.error;
    if (latest.container != nullptr) {
      const EpochRecord& want = recs[latest.epoch - 1];
      EXPECT_EQ(std::memcmp(latest.container->data(), want.image.data(),
                            want.image.size()),
                0);
    }
    o.latest = latest.epoch;
    o.warnings = latest.warnings;
    auto target = restore_heap(path, g.epochs, opt);
    EXPECT_EQ(target.container, nullptr);
    o.error = target.error;

    auto lazy = snapshot::restore_lazy(path, Container::kLatestEpoch, opt);
    EXPECT_TRUE(lazy->ok()) << lazy->error();
    o.lazy_latest = lazy->epoch();
    o.lazy_warnings = lazy->warnings();
    auto lazy_target = snapshot::restore_lazy(path, g.epochs, opt);
    EXPECT_FALSE(lazy_target->ok());
    o.lazy_error = lazy_target->error();
    return o;
  };
  const Outcome one = run(1);
  const Outcome four = run(4);
  EXPECT_EQ(one.latest, bad - 1) << "fallback stops before the corrupt frame";
  EXPECT_FALSE(one.warnings.empty());
  EXPECT_FALSE(one.error.empty());
  EXPECT_EQ(four.latest, one.latest);
  EXPECT_EQ(four.warnings, one.warnings);
  EXPECT_EQ(four.error, one.error);
  EXPECT_EQ(one.lazy_latest, one.latest);
  EXPECT_EQ(four.lazy_latest, one.lazy_latest);
  EXPECT_EQ(four.lazy_warnings, one.lazy_warnings);
  EXPECT_FALSE(one.lazy_error.empty());
  EXPECT_EQ(four.lazy_error, one.lazy_error);
}

// Damage that lands after the scan (a racing writer, media decay between
// scan and read) is caught by the staging decode's CRCs, and the first
// failing frame's error is reported whatever the worker count.
TEST(RestoreParallel, CodedFrameDamagedAfterScanFailsStagingAlike) {
  const Geometry g = coded_geometry();
  CaseDir dir;
  const std::string path = dir.file("coded_late.crpmsnap");
  build_archive(g, path, tier::kCodecLzb);
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.restorable(g.epochs));
  flip_frame_byte(path, g.epochs / 2);
  flip_frame_byte(path, g.epochs - 1);

  std::string err1, err4;
  std::vector<uint8_t> image;
  EXPECT_FALSE(reader.state_at(g.epochs, &image, nullptr, &err1, 1, nullptr));
  EXPECT_FALSE(reader.state_at(g.epochs, &image, nullptr, &err4, 4, nullptr));
  EXPECT_NE(err1.find("coded frame failed CRC verification"),
            std::string::npos)
      << err1;
  EXPECT_EQ(err4, err1);

  // The same through load_chain with a window smaller than the chain.
  std::vector<snapshot::EpochInfo> frames;
  ASSERT_TRUE(reader.chain(g.epochs, &frames, &err1));
  size_t consumed = 0;
  auto count = [&](size_t i, std::vector<uint8_t>&, std::string*) {
    EXPECT_EQ(i, consumed);
    ++consumed;
    return true;
  };
  std::string errw;
  EXPECT_FALSE(reader.load_chain(frames, 4, 2, count, &errw));
  EXPECT_EQ(errw, err4);
  EXPECT_EQ(consumed, g.epochs / 2 - 1)
      << "frames before the first damaged one are consumed in order";
}

}  // namespace
}  // namespace crpm
