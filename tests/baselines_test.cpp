#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include "baselines/dali_map.h"
#include "baselines/fti.h"
#include "baselines/lmc.h"
#include "baselines/nvmnp.h"
#include "baselines/page_policy.h"
#include "baselines/undolog.h"
#include "containers/phashmap.h"
#include "nvm/crash_sim.h"
#include "util/rng.h"

namespace crpm {
namespace {

// Shared scenario for undo-log and LMC: commit an epoch, modify, crash,
// recover, and require exact rollback to the committed state.
template <typename Protocol>
void run_rollback_scenario(uint64_t data_size) {
  using Policy = HeapPolicy<Protocol>;
  CrashSimDevice dev(Protocol::required_device_size(data_size));
  Xoshiro256 rng(4);
  constexpr uint64_t kCells = 128;
  {
    Policy p(&dev, data_size);
    ASSERT_TRUE(p.fresh());
    auto* arr = static_cast<uint64_t*>(p.allocate(kCells * 8));
    p.set_root(0, p.to_offset(arr));
    for (uint64_t i = 0; i < kCells; ++i) {
      p.on_write(&arr[i], 8);
      arr[i] = i + 1000;
    }
    p.checkpoint();
    // Epoch 2: modify some cells, then "crash" without checkpoint.
    for (uint64_t i = 0; i < kCells; i += 3) {
      p.on_write(&arr[i], 8);
      arr[i] = 0xBAD;
    }
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    Policy p(&dev, data_size);
    ASSERT_FALSE(p.fresh());
    auto* arr = static_cast<uint64_t*>(p.from_offset(p.get_root(0)));
    for (uint64_t i = 0; i < kCells; ++i) {
      EXPECT_EQ(arr[i], i + 1000) << "cell " << i;
    }
  }
}

TEST(UndoLog, RollsBackUncommittedEpoch) {
  run_rollback_scenario<UndoLog>(1 << 20);
}

TEST(Lmc, RollsBackUncommittedEpoch) {
  run_rollback_scenario<Lmc>(1 << 20);
}

TEST(UndoLog, TwoFencesPerFirstTouchOfABlock) {
  auto dev = std::make_unique<HeapNvmDevice>(
      UndoLog::required_device_size(1 << 20));
  NvmDevice* raw = dev.get();
  UndoLogPolicy p(std::move(dev), 1 << 20);
  auto* arr = static_cast<uint64_t*>(p.allocate(4096));
  p.checkpoint();
  uint64_t f0 = raw->stats().sfence_count();
  uint64_t e0 = p.protocol().bstats().entries;
  // Two writes to the same 256B block: one undo entry, two fences.
  p.on_write(&arr[0], 8);
  arr[0] = 1;
  p.on_write(&arr[1], 8);
  arr[1] = 2;
  EXPECT_EQ(raw->stats().sfence_count() - f0, 2u);
  // A write to a different block: two more.
  p.on_write(&arr[64], 8);
  arr[64] = 3;
  EXPECT_EQ(raw->stats().sfence_count() - f0, 4u);
  EXPECT_EQ(p.protocol().bstats().entries - e0, 2u);
}

TEST(UndoLog, CommittedDataSurvivesManyEpochs) {
  CrashSimDevice dev(UndoLog::required_device_size(1 << 20));
  Xoshiro256 rng(9);
  {
    UndoLogPolicy p(&dev, 1 << 20);
    auto* arr = static_cast<uint64_t*>(p.allocate(256 * 8));
    p.set_root(0, p.to_offset(arr));
    for (uint64_t e = 1; e <= 5; ++e) {
      for (uint64_t i = 0; i < 256; ++i) {
        p.on_write(&arr[i], 8);
        arr[i] = e * 10000 + i;
      }
      p.checkpoint();
    }
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    UndoLogPolicy p(&dev, 1 << 20);
    auto* arr = static_cast<uint64_t*>(p.from_offset(p.get_root(0)));
    for (uint64_t i = 0; i < 256; ++i) EXPECT_EQ(arr[i], 50000 + i);
  }
}

TEST(PageCkpt, MprotectTracksAndRecovers) {
  CrashSimDevice dev(PageCkpt::required_device_size(1 << 20));
  Xoshiro256 rng(10);
  {
    PageCkptPolicy p(&dev, 1 << 20, PageTracerKind::kMprotect);
    auto* arr = static_cast<uint64_t*>(p.allocate(64 * 1024));
    p.set_root(0, p.to_offset(arr));
    for (uint64_t i = 0; i < 1024; ++i) arr[i] = i + 5;  // no hooks needed
    p.checkpoint();
    EXPECT_GT(p.protocol().tracer()->fault_count(), 0u);
    // checkpoint size is page-granular: at least 8KB for 8KB of data.
    EXPECT_GE(p.protocol().bstats().checkpoint_bytes, 8192u);
    // Post-checkpoint modifications crash away.
    for (uint64_t i = 0; i < 512; ++i) arr[i] = 0xDEAD;
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    PageCkptPolicy p(&dev, 1 << 20, PageTracerKind::kMprotect);
    auto* arr = static_cast<uint64_t*>(p.from_offset(p.get_root(0)));
    for (uint64_t i = 0; i < 1024; ++i) EXPECT_EQ(arr[i], i + 5);
  }
}

TEST(PageCkpt, WriteAmplificationIsPageGranular) {
  auto dev = std::make_unique<HeapNvmDevice>(
      PageCkpt::required_device_size(1 << 20));
  PageCkptPolicy p(std::move(dev), 1 << 20, PageTracerKind::kMprotect);
  auto* arr = static_cast<uint8_t*>(p.allocate(256 * 1024));
  p.checkpoint();
  uint64_t c0 = p.protocol().bstats().checkpoint_bytes;
  // Touch ONE byte in each of 10 widely-spaced pages.
  for (int i = 0; i < 10; ++i) arr[i * 8192] = 1;
  p.checkpoint();
  // 10 bytes modified => 10 full pages journaled (P1, Table 1a).
  EXPECT_EQ(p.protocol().bstats().checkpoint_bytes - c0, 10 * kPageSize);
}

TEST(PageCkpt, SoftDirtyTracksIfAvailable) {
  if (!SoftDirtyTracer::available()) {
    GTEST_SKIP() << "soft-dirty PTEs unavailable in this environment";
  }
  auto dev = std::make_unique<HeapNvmDevice>(
      PageCkpt::required_device_size(1 << 20));
  PageCkptPolicy p(std::move(dev), 1 << 20, PageTracerKind::kSoftDirty);
  auto* arr = static_cast<uint64_t*>(p.allocate(64 * 1024));
  p.checkpoint();
  uint64_t c0 = p.protocol().bstats().checkpoint_bytes;
  arr[0] = 42;
  arr[4096] = 43;  // second page (8*4096 bytes in)
  p.checkpoint();
  EXPECT_GE(p.protocol().bstats().checkpoint_bytes - c0, 2 * kPageSize);
}

TEST(PageCkpt, WorksUnderPHashMap) {
  auto dev = std::make_unique<HeapNvmDevice>(
      PageCkpt::required_device_size(4 << 20));
  PageCkptPolicy p(std::move(dev), 4 << 20, PageTracerKind::kMprotect);
  PHashMap<uint64_t, uint64_t, PageCkptPolicy> m(p, 1024);
  for (uint64_t k = 0; k < 2000; ++k) m.insert(k, k + 1);
  p.checkpoint();
  uint64_t v = 0;
  EXPECT_TRUE(m.find(1234, &v));
  EXPECT_EQ(v, 1235u);
  EXPECT_GT(p.protocol().tracer()->fault_count(), 0u);
}

TEST(Dali, PutGetEraseAndEpochVisibility) {
  auto dev = std::make_unique<HeapNvmDevice>(
      DaliMap::required_device_size(256, 1 << 20));
  DaliMap m(std::move(dev), 256, 1 << 20);
  m.put(1, 10);
  m.put(2, 20);
  m.put(1, 11);  // new version
  uint64_t v = 0;
  EXPECT_TRUE(m.get(1, &v));
  EXPECT_EQ(v, 11u);
  EXPECT_EQ(m.size(), 2u);
  m.erase(2);
  EXPECT_FALSE(m.get(2, &v));
  EXPECT_EQ(m.size(), 1u);
  m.checkpoint();
  EXPECT_TRUE(m.get(1, &v));
  EXPECT_EQ(v, 11u);
}

TEST(Dali, RecoveryPrunesUncommittedVersions) {
  CrashSimDevice dev(DaliMap::required_device_size(64, 1 << 20));
  Xoshiro256 rng(11);
  {
    DaliMap m(&dev, 64, 1 << 20);
    for (uint64_t k = 0; k < 100; ++k) m.put(k, k + 1);
    m.checkpoint();
    for (uint64_t k = 0; k < 100; ++k) m.put(k, 0xBAD);  // uncommitted
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    DaliMap m(&dev, 64, 1 << 20);
    uint64_t v = 0;
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(m.get(k, &v)) << k;
      EXPECT_EQ(v, k + 1) << k;
    }
  }
}

TEST(Dali, GcBoundsChainGrowth) {
  auto dev = std::make_unique<HeapNvmDevice>(
      DaliMap::required_device_size(4, 4 << 20));
  DaliMap m(std::move(dev), 4, 4 << 20);
  // Hammer the same keys across many epochs; GC at sync must reclaim old
  // versions, or the allocator would run out long before 200 epochs.
  for (int e = 0; e < 200; ++e) {
    for (uint64_t k = 0; k < 16; ++k) m.put(k, uint64_t(e));
    m.checkpoint();
  }
  uint64_t v = 0;
  EXPECT_TRUE(m.get(7, &v));
  EXPECT_EQ(v, 199u);
  EXPECT_EQ(m.size(), 16u);
}

class FtiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs the suite's cases as concurrent
    // processes, and a shared directory would let one case's remove_all
    // delete another's live checkpoint set.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("crpm_fti_test_" + std::string(info->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FtiTest, FullCheckpointRoundTrip) {
  std::vector<double> a(1000, 1.5), b(500, -2.0);
  {
    FtiLike fti(dir_.string(), 0);
    fti.protect(1, a.data(), a.size() * 8);
    fti.protect(2, b.data(), b.size() * 8);
    a[10] = 42.0;
    fti.checkpoint();
    a[10] = -1;  // post-checkpoint damage
    b[0] = -1;
  }
  {
    FtiLike fti(dir_.string(), 0);
    fti.protect(1, a.data(), a.size() * 8);
    fti.protect(2, b.data(), b.size() * 8);
    ASSERT_TRUE(fti.recover());
    EXPECT_DOUBLE_EQ(a[10], 42.0);
    EXPECT_DOUBLE_EQ(b[0], -2.0);
    EXPECT_EQ(fti.checkpoint_count(), 1u);
  }
}

TEST_F(FtiTest, RecoverWithoutCheckpointFails) {
  std::vector<double> a(10, 0);
  FtiLike fti(dir_.string(), 3);
  fti.protect(1, a.data(), a.size() * 8);
  EXPECT_FALSE(fti.recover());
}

TEST_F(FtiTest, FullCheckpointWritesEverythingEveryTime) {
  std::vector<uint8_t> a(1 << 20, 7);
  FtiLike fti(dir_.string(), 0);
  fti.protect(1, a.data(), a.size());
  fti.checkpoint();
  uint64_t w1 = fti.bytes_written();
  a[0] = 8;  // one byte changes...
  fti.checkpoint();
  // ...but a full checkpoint rewrites the entire megabyte (Figure 8's cost).
  EXPECT_GE(fti.bytes_written() - w1, a.size());
}

TEST_F(FtiTest, IncrementalWritesOnlyChangedChunks) {
  std::vector<uint8_t> a(1 << 20, 7);
  FtiLike fti(dir_.string(), 0);
  fti.set_incremental(true);
  fti.protect(1, a.data(), a.size());
  fti.checkpoint();  // base (full)
  uint64_t w1 = fti.bytes_written();
  a[0] = 8;
  a[100000] = 9;
  fti.checkpoint();
  uint64_t delta = fti.bytes_written() - w1;
  EXPECT_LE(delta, 2 * 256u);  // two dirty 256B chunks
  // Round trip still correct.
  std::vector<uint8_t> b(1 << 20, 0);
  FtiLike fti2(dir_.string(), 0);
  fti2.protect(1, b.data(), b.size());
  ASSERT_TRUE(fti2.recover());
  EXPECT_EQ(b[0], 8);
  EXPECT_EQ(b[100000], 9);
  EXPECT_EQ(b[5], 7);
}

TEST(NvmNp, NoFencesEver) {
  auto dev = std::make_unique<HeapNvmDevice>(8 << 20);
  NvmDevice* raw = dev.get();
  NvmNpPolicy p(std::move(dev));
  PHashMap<uint64_t, uint64_t, NvmNpPolicy> m(p, 512);
  for (uint64_t k = 0; k < 5000; ++k) m.insert(k, k);
  p.checkpoint();
  EXPECT_EQ(raw->stats().sfence_count(), 0u);
}

}  // namespace
}  // namespace crpm
