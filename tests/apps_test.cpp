// Mini-app checkpoint-restart equivalence tests: an interrupted run that
// recovers from its checkpoint must reach bit-identical results to an
// uninterrupted run (the apps are deterministic).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include "apps/miniapp.h"
#include "apps/state_store.h"
#include "case_dir.h"

namespace crpm {
namespace {

using AppFn = MiniAppResult (*)(const MiniAppConfig&);

struct AppCase {
  const char* name;
  AppFn fn;
  int size;
};

const AppCase kApps[] = {
    {"hpccg", &run_hpccg, 12},
    {"lulesh", &run_lulesh_proxy, 10},
    {"comd", &run_comd_proxy, 8},
};

class AppsTest : public ::testing::TestWithParam<int> {
 protected:
  const AppCase& app() const { return kApps[GetParam()]; }

  MiniAppConfig base_cfg(CkptBackend backend, int iterations) const {
    MiniAppConfig c;
    c.size = app().size;
    c.iterations = iterations;
    c.ckpt_every = 5;
    c.store.backend = backend;
    c.store.dir = dir_.path().string();
    c.store.capacity_bytes = 0;
    return c;
  }

  CaseDir dir_;
};

TEST_P(AppsTest, RunsWithoutCheckpointing) {
  MiniAppConfig c = base_cfg(CkptBackend::kNone, 12);
  c.ckpt_every = 0;
  MiniAppResult r = app().fn(c);
  EXPECT_EQ(r.iterations_done, 12u);
  EXPECT_FALSE(r.resumed);
  EXPECT_GT(r.state_bytes, 0u);
  EXPECT_TRUE(std::isfinite(r.checksum));
}

TEST_P(AppsTest, CrpmRestartMatchesUninterruptedRun) {
  // Reference: 20 iterations straight through (no checkpointing so the
  // same code path computes the golden checksum).
  MiniAppConfig ref_cfg = base_cfg(CkptBackend::kNone, 20);
  ref_cfg.ckpt_every = 0;
  double golden = app().fn(ref_cfg).checksum;

  // Interrupted: run 11 of 20 iterations (last checkpoint at 10), then
  // "crash" (drop the store) and rerun to completion.
  MiniAppConfig c1 = base_cfg(CkptBackend::kCrpmBuffered, 11);
  MiniAppResult r1 = app().fn(c1);
  EXPECT_FALSE(r1.resumed);
  EXPECT_EQ(r1.iterations_done, 11u);

  MiniAppConfig c2 = base_cfg(CkptBackend::kCrpmBuffered, 20);
  MiniAppResult r2 = app().fn(c2);
  EXPECT_TRUE(r2.resumed);
  // Iteration 11 was not checkpointed; the rerun resumes at 10.
  EXPECT_EQ(r2.start_iteration, 10u);
  EXPECT_EQ(r2.iterations_done, 10u);
  EXPECT_DOUBLE_EQ(r2.checksum, golden);
  EXPECT_GT(r2.recovery_s, 0.0);
}

TEST_P(AppsTest, FtiRestartMatchesUninterruptedRun) {
  MiniAppConfig ref_cfg = base_cfg(CkptBackend::kNone, 20);
  ref_cfg.ckpt_every = 0;
  double golden = app().fn(ref_cfg).checksum;

  MiniAppConfig c1 = base_cfg(CkptBackend::kFti, 13);
  MiniAppResult r1 = app().fn(c1);
  EXPECT_FALSE(r1.resumed);

  MiniAppConfig c2 = base_cfg(CkptBackend::kFti, 20);
  MiniAppResult r2 = app().fn(c2);
  EXPECT_TRUE(r2.resumed);
  EXPECT_EQ(r2.start_iteration, 10u);
  EXPECT_DOUBLE_EQ(r2.checksum, golden);
}

TEST_P(AppsTest, CheckpointBytesCrpmBelowFti) {
  // Figure 8's mechanism: FTI writes the full state every checkpoint;
  // libcrpm-Buffered writes only dirty blocks (here arrays are fully
  // dirty, so the win is bounded — but serialization overhead plus full
  // rewrite still costs at least as much data).
  MiniAppConfig cf = base_cfg(CkptBackend::kFti, 10);
  MiniAppResult rf = app().fn(cf);
  std::filesystem::remove_all(dir_.path());
  std::filesystem::create_directories(dir_.path());
  MiniAppConfig cc = base_cfg(CkptBackend::kCrpmBuffered, 10);
  MiniAppResult rc = app().fn(cc);
  EXPECT_GT(rf.checkpoint_bytes, 0u);
  EXPECT_GT(rc.checkpoint_bytes, 0u);
  EXPECT_EQ(rf.checksum, rc.checksum);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppsTest, ::testing::Range(0, 3),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return std::string(kApps[i.param].name);
                         });

TEST(AppsMultiRank, CoordinatedHpccgRestart) {
  CaseDir dir;
  constexpr int kRanks = 2;

  auto run_ranks = [&](CkptBackend backend, int iters,
                       std::vector<MiniAppResult>* out) {
    SimComm comm(kRanks);
    out->assign(kRanks, {});
    comm.run([&](int rank) {
      MiniAppConfig c;
      c.size = 10;
      c.iterations = iters;
      c.ckpt_every = 5;
      c.store.backend = backend;
      c.store.dir = dir.path().string();
      c.store.rank = rank;
      c.store.comm = &comm;
      c.store.capacity_bytes = 0;
      (*out)[size_t(rank)] = run_hpccg(c);
    });
  };

  std::vector<MiniAppResult> golden;
  run_ranks(CkptBackend::kNone, 20, &golden);

  std::vector<MiniAppResult> first, second;
  run_ranks(CkptBackend::kCrpmBuffered, 12, &first);
  run_ranks(CkptBackend::kCrpmBuffered, 20, &second);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(second[size_t(r)].resumed);
    EXPECT_EQ(second[size_t(r)].start_iteration, 10u);
    EXPECT_DOUBLE_EQ(second[size_t(r)].checksum, golden[size_t(r)].checksum)
        << "rank " << r;
  }
}

TEST(AppsMultiRank, LuleshCoordinatedTimestepAgrees) {
  CaseDir dir;
  constexpr int kRanks = 2;
  SimComm comm(kRanks);
  std::vector<MiniAppResult> res(kRanks);
  comm.run([&](int rank) {
    MiniAppConfig c;
    c.size = 8;
    c.iterations = 10;
    c.ckpt_every = 5;
    c.store.backend = CkptBackend::kCrpmBuffered;
    c.store.dir = dir.path().string();
    c.store.rank = rank;
    c.store.comm = &comm;
    c.store.capacity_bytes = 0;
    res[size_t(rank)] = run_lulesh_proxy(c);
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(res[size_t(r)].iterations_done, 10u);
    EXPECT_TRUE(std::isfinite(res[size_t(r)].checksum));
  }
}

// Recovery triage verdicts: only a header that was READ and is
// definitively wrong may be treated as damage.
TEST(StateStoreTriage, VerdictsPerFileShape) {
  CaseDir dir;
  const std::string ctr = StateStore::container_path(dir.path().string(), 0);

  EXPECT_EQ(StateStore::triage_container_file(ctr),
            StateStore::ContainerTriage::kMissing);

  {  // smaller than any container header: definitively invalid
    std::ofstream(ctr, std::ios::binary) << "tiny";
  }
  EXPECT_EQ(StateStore::triage_container_file(ctr),
            StateStore::ContainerTriage::kInvalid);

  {  // header-sized garbage with the wrong magic: definitively invalid
    std::ofstream f(ctr, std::ios::binary);
    std::vector<char> garbage(8192, '\xab');
    f.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  EXPECT_EQ(StateStore::triage_container_file(ctr),
            StateStore::ContainerTriage::kInvalid);
  EXPECT_FALSE(StateStore::container_file_usable(ctr));
}

// A definitively-invalid container file with no archive to rebuild from is
// set aside as <path>.damaged — bytes preserved for salvage — and the
// store formats fresh; it must never be silently deleted.
TEST(StateStoreTriage, InvalidContainerPreservedAsDamaged) {
  CaseDir dir;
  const std::string ctr = StateStore::container_path(dir.path().string(), 0);
  const std::vector<char> garbage(8192, '\xab');
  {
    std::ofstream f(ctr, std::ios::binary);
    f.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }

  StateStore::Config cfg;
  cfg.backend = CkptBackend::kCrpmDefault;
  cfg.dir = dir.path().string();
  cfg.capacity_bytes = 1 << 20;
  {
    StateStore store(cfg);
    EXPECT_EQ(store.last_recovery(), RecoverySource::kFresh);
    EXPECT_FALSE(store.recovered());
  }

  std::ifstream in(ctr + ".damaged", std::ios::binary);
  ASSERT_TRUE(in.good()) << "damaged container bytes were not preserved";
  std::vector<char> kept((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, garbage);
  // The fresh format produced a real container in the original slot.
  EXPECT_TRUE(StateStore::container_file_usable(ctr));
}

// archive_tier routes the StateStore archive through src/tier: every knob
// must reach the writer, and the archive it writes must be restorable.
TEST(StateStoreArchive, TierSettingsReachTheWriter) {
  for (uint32_t compact_every : {0u, 3u}) {
    SCOPED_TRACE("compact_every=" + std::to_string(compact_every));
    CaseDir dir;
    StateStore::Config cfg;
    cfg.backend = CkptBackend::kCrpmDefault;
    cfg.dir = dir.path().string();
    cfg.capacity_bytes = 1 << 20;
    cfg.archive = true;
    cfg.archive_tier = true;
    cfg.archive_compact_every = compact_every;
    constexpr uint64_t kWords = 16 * 1024;
    constexpr int kEpochs = 8;
    {
      StateStore store(cfg);
      auto* a = store.array<uint64_t>(0, kWords);
      for (int ep = 1; ep <= kEpochs; ++ep) {
        store.mark_dirty(a, kWords * sizeof(uint64_t));
        for (uint64_t i = 0; i < kWords; ++i) a[i] = i % 64 + uint64_t(ep);
        store.set_iteration(uint64_t(ep));
        store.checkpoint();
      }
      snapshot::ArchiveWriter* w = store.archive_writer();
      ASSERT_NE(w, nullptr);
      w->drain();
      const snapshot::SnapshotOptions& o = w->options();
      EXPECT_EQ(o.compact_every, compact_every);
      EXPECT_EQ(o.queue_depth, 32u);
      EXPECT_TRUE(o.fsync_each_epoch);
      EXPECT_EQ(o.tier.codec, tier::kCodecLzb);
      EXPECT_EQ(o.tier.group_epochs, 4u);
      EXPECT_EQ(o.tier.flush_deadline_us, 100'000u);
      EXPECT_EQ(o.tier.cold_enabled, compact_every != 0);
      EXPECT_STREQ(w->writeback_name(), "threads");
      const snapshot::ArchiveWriterStats st = w->writer_stats();
      EXPECT_GT(st.coded_frames, 0u);
      EXPECT_LT(st.batches, st.epochs_appended);  // group commit
      if (compact_every != 0) {
        EXPECT_GT(st.cold_bases, 0u);
      } else {
        EXPECT_EQ(st.cold_bases, 0u);
      }
    }
    // The archive is the second recovery level: with the container file
    // gone, the next open rebuilds the last epoch from it.
    std::filesystem::remove(StateStore::container_path(cfg.dir, 0));
    StateStore store(cfg);
    auto* a = store.array<uint64_t>(0, kWords);
    EXPECT_EQ(store.last_recovery(), RecoverySource::kArchive);
    ASSERT_TRUE(store.recovered());
    EXPECT_EQ(store.iteration(), uint64_t(kEpochs));
    EXPECT_EQ(a[kWords - 1], (kWords - 1) % 64 + kEpochs);
  }
}

}  // namespace
}  // namespace crpm
