#include <gtest/gtest.h>

#include <barrier>
#include <cstring>
#include <thread>
#include <vector>

#include "case_dir.h"
#include "nvm/crash_sim.h"
#include "nvm/device.h"

namespace crpm {
namespace {

TEST(Stats, MediaBytesForRange) {
  // One byte touches one 256B media line.
  EXPECT_EQ(media_bytes_for_range(0, 1), 256u);
  // A 64B line within one media line.
  EXPECT_EQ(media_bytes_for_range(64, 64), 256u);
  // Straddling a media-line boundary.
  EXPECT_EQ(media_bytes_for_range(200, 100), 512u);
  // Exactly one media line.
  EXPECT_EQ(media_bytes_for_range(256, 256), 256u);
  EXPECT_EQ(media_bytes_for_range(0, 0), 0u);
}

// Per-thread shards must sum to exact totals once the writers are joined:
// more threads run at once than there are shards (the overflow shard
// takes the rest), and a second wave reuses the slots the first freed.
TEST(Stats, ShardedCountsExactAcrossThreads) {
  constexpr int kThreads = 48;
  constexpr int kWaves = 2;
  constexpr int kIters = 200;
  static_assert(kThreads > int(PersistStats::kShards));
  HeapNvmDevice dev(size_t{kThreads} << 14);
  auto s0 = dev.stats().snapshot();
  for (int wave = 0; wave < kWaves; ++wave) {
    std::barrier all_claimed(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint8_t* mine = dev.base() + (size_t(t) << 14);
        uint8_t src[320];
        std::memset(src, t, sizeof(src));
        for (int i = 0; i < kIters; ++i) {
          dev.flush(mine, 100);  // 2 lines, 1 media line
          // A thread holds its slot from its first primitive until it
          // exits, so past this point all kThreads hold one at once.
          if (i == 0) all_claimed.arrive_and_wait();
          dev.nt_copy(mine + 256, src, 320);  // 5 lines, 2 media lines
          dev.fence();
          dev.stats().add_archive_write(10);
          if (i % 50 == 0) dev.stats().add_archive_fsync();
        }
        dev.wbinvd_flush();
      });
    }
    for (auto& th : threads) th.join();
  }
  auto d = dev.stats().snapshot() - s0;
  const uint64_t ops = uint64_t{kWaves} * kThreads * kIters;
  EXPECT_EQ(d.clwb, 2 * ops);
  EXPECT_EQ(d.flushed_bytes, 2 * ops * kCacheLineSize);
  EXPECT_EQ(d.sfence, ops);
  EXPECT_EQ(d.nt_stores, 5 * ops);
  EXPECT_EQ(d.media_write_bytes, 3 * ops * kMediaLineSize);
  EXPECT_EQ(d.wbinvd, uint64_t{kWaves} * kThreads);
  EXPECT_EQ(d.msync, 0u);
  EXPECT_EQ(d.archive_write_bytes, 10 * ops);
  EXPECT_EQ(d.archive_fsync, uint64_t{kWaves} * kThreads * (kIters / 50));
  EXPECT_EQ(dev.stats().sfence_count() - s0.sfence, ops);
  EXPECT_EQ(dev.stats().media_write_bytes() - s0.media_write_bytes,
            3 * ops * kMediaLineSize);
}

TEST(HeapDevice, FlushAndFenceAccounting) {
  HeapNvmDevice dev(1 << 20);
  auto s0 = dev.stats().snapshot();
  dev.flush(dev.base(), 64);
  dev.flush(dev.base() + 64, 256);  // 4 lines
  dev.fence();
  auto d = dev.stats().snapshot() - s0;
  EXPECT_EQ(d.clwb, 5u);
  EXPECT_EQ(d.sfence, 1u);
  EXPECT_EQ(d.flushed_bytes, 5 * 64u);
  // Media accounting at 256B: first flush 256, second flush covers
  // [64,320) = 2 media lines = 512.
  EXPECT_EQ(d.media_write_bytes, 256u + 512u);
}

TEST(HeapDevice, UnalignedFlushCoversWholeLines) {
  HeapNvmDevice dev(1 << 16);
  auto s0 = dev.stats().snapshot();
  dev.flush(dev.base() + 60, 8);  // straddles two cache lines
  auto d = dev.stats().snapshot() - s0;
  EXPECT_EQ(d.clwb, 2u);
}

TEST(HeapDevice, NtCopyWritesAndCounts) {
  HeapNvmDevice dev(1 << 16);
  std::vector<uint8_t> src(1024, 0xAB);
  auto s0 = dev.stats().snapshot();
  dev.nt_copy(dev.base() + 256, src.data(), src.size());
  dev.fence();
  auto d = dev.stats().snapshot() - s0;
  EXPECT_EQ(d.nt_stores, 16u);  // 1024 / 64
  EXPECT_EQ(std::memcmp(dev.base() + 256, src.data(), src.size()), 0);
}

TEST(FileDevice, PersistsAcrossReopen) {
  CaseDir dir;
  const std::string path = dir.file("filedev");
  {
    FileNvmDevice dev(path, 1 << 16);
    EXPECT_FALSE(dev.existed());
    std::memcpy(dev.base() + 100, "hello", 5);
    dev.persist(dev.base() + 100, 5);
  }
  {
    FileNvmDevice dev(path, 1 << 16);
    EXPECT_TRUE(dev.existed());
    EXPECT_EQ(std::memcmp(dev.base() + 100, "hello", 5), 0);
  }
}

class CrashSimTest : public ::testing::Test {
 protected:
  CrashSimDevice dev{1 << 16};
  Xoshiro256 rng{99};
};

TEST_F(CrashSimTest, UnflushedStoreLostOnCrash) {
  dev.base()[0] = 42;
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[0], 0);
}

TEST_F(CrashSimTest, FlushedButUnfencedDroppedUnderConservativePolicy) {
  dev.base()[0] = 42;
  dev.flush(dev.base(), 1);
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[0], 0);
}

TEST_F(CrashSimTest, FlushedButUnfencedSurvivesUnderCommitPolicy) {
  dev.base()[0] = 42;
  dev.flush(dev.base(), 1);
  dev.crash_and_restart(CrashPolicy::kCommitPending, rng);
  EXPECT_EQ(dev.base()[0], 42);
}

TEST_F(CrashSimTest, FlushPlusFenceAlwaysSurvives) {
  dev.base()[7] = 9;
  dev.persist(dev.base(), 8);
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[7], 9);
}

TEST_F(CrashSimTest, StaleFlushThenNewStoreKeepsFlushedValue) {
  // flush captures the value at flush time; later stores to the same line
  // without another flush are lost.
  dev.base()[0] = 1;
  dev.flush(dev.base(), 1);
  dev.base()[0] = 2;  // not flushed
  dev.fence();        // commits the staged value 1
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[0], 1);
}

TEST_F(CrashSimTest, NtCopyDurableAfterFence) {
  std::vector<uint8_t> src(512, 0x5C);
  dev.nt_copy(dev.base() + 1024, src.data(), src.size());
  dev.fence();
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(dev.base()[1024 + i], 0x5C);
}

TEST_F(CrashSimTest, WbinvdFlushesEverything) {
  dev.base()[5] = 1;
  dev.base()[5000] = 2;
  dev.wbinvd_flush();
  dev.fence();
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[5], 1);
  EXPECT_EQ(dev.base()[5000], 2);
}

TEST_F(CrashSimTest, RandomPolicyCommitsSubset) {
  // Stage many independent lines; under the random policy roughly half
  // should land. We only assert "some but not necessarily all".
  for (int i = 0; i < 64; ++i) {
    dev.base()[i * 64] = 7;
    dev.flush(dev.base() + i * 64, 1);
  }
  dev.crash_and_restart(CrashPolicy::kRandomPending, rng);
  int survived = 0;
  for (int i = 0; i < 64; ++i) survived += dev.base()[i * 64] == 7;
  EXPECT_GT(survived, 0);
  EXPECT_LT(survived, 64);
}

TEST_F(CrashSimTest, ArmedCrashFiresAtExactEvent) {
  dev.arm_crash_at_event(2);  // third per-line event
  dev.base()[0] = 1;
  dev.flush(dev.base(), 1);  // event 0
  dev.base()[64] = 2;
  dev.flush(dev.base() + 64, 1);  // event 1
  bool crashed = false;
  try {
    dev.fence();  // event 2 -> throws
  } catch (const SimulatedCrash& c) {
    crashed = true;
    EXPECT_EQ(c.event_index, 2u);
  }
  EXPECT_TRUE(crashed);
  // The fence did not take effect: staged lines remain pending.
  EXPECT_EQ(dev.staged_lines(), 2u);
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[0], 0);
  EXPECT_EQ(dev.base()[64], 0);
}

TEST_F(CrashSimTest, TornNtCopyUnderInjection) {
  // Crash mid nt_copy: a prefix of lines is staged, the rest is not.
  std::vector<uint8_t> src(256, 0xEE);
  dev.arm_crash_at_event(2);  // after 2 of 4 line-stores
  EXPECT_THROW(dev.nt_copy(dev.base(), src.data(), src.size()),
               SimulatedCrash);
  dev.disarm();
  dev.fence();  // commit whatever was staged
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[0], 0xEE);    // line 0 staged
  EXPECT_EQ(dev.base()[64], 0xEE);   // line 1 staged
  EXPECT_EQ(dev.base()[128], 0x00);  // line 2 aborted
  EXPECT_EQ(dev.base()[192], 0x00);
}

TEST(CostModel, SpinWaitsApproximately) {
  // Coarse check only: 1 ms spin should take at least 0.5 ms.
  auto t0 = std::chrono::steady_clock::now();
  spin_for_ns(1e6);
  auto dt = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_GE(dt, 0.5);
}

TEST(CostModel, DisabledCostsNothingMeasurable) {
  HeapNvmDevice dev(1 << 16);
  dev.set_cost_model(CostModel::disabled());
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) {
    dev.flush(dev.base(), 64);
    dev.fence();
  }
  auto dt = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_LT(dt, 50.0);
}

}  // namespace
}  // namespace crpm
