#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "case_dir.h"
#include "core/container.h"
#include "core/crpm.h"
#include "core/heap.h"
#include "core/pvar.h"
#include "core/registry.h"
#include "core/stl_alloc.h"
#include "nvm/crash_sim.h"

namespace crpm {
namespace {

CrpmOptions small_opts() {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 1 << 20;  // 256 segments
  o.eager_cow_segments = 4;
  return o;
}

TEST(Geometry, BasicMath) {
  CrpmOptions o = small_opts();
  Geometry g(o);
  EXPECT_EQ(g.nr_main_segs(), (1u << 20) / 4096);
  EXPECT_EQ(g.blocks_per_segment(), 16u);
  EXPECT_EQ(g.segment_of_offset(4095), 0u);
  EXPECT_EQ(g.segment_of_offset(4096), 1u);
  EXPECT_EQ(g.block_of_offset(255), 0u);
  EXPECT_EQ(g.block_of_offset(256), 1u);
  EXPECT_EQ(g.segment_of_block(15), 0u);
  EXPECT_EQ(g.segment_of_block(16), 1u);
  EXPECT_EQ(g.first_block_of_segment(2), 32u);
  // Regions are segment-aligned and disjoint.
  EXPECT_EQ(g.main_region_offset() % g.segment_size(), 0u);
  EXPECT_GE(g.backup_region_offset(),
            g.main_region_offset() + g.main_region_size());
  EXPECT_GE(g.device_size(),
            g.backup_region_offset() + g.backup_region_size());
}

TEST(Geometry, BackupRatioScalesBackupSegments) {
  CrpmOptions o = small_opts();
  o.backup_ratio = 0.25;
  Geometry g(o);
  EXPECT_EQ(g.nr_backup_segs(), g.nr_main_segs() / 4);
}

TEST(Geometry, MainRegionRoundedToSegments) {
  CrpmOptions o = small_opts();
  o.main_region_size = 4097;  // rounds up to 2 segments
  Geometry g(o);
  EXPECT_EQ(g.nr_main_segs(), 2u);
}

TEST(Options, BufferedForcesFullBackupRegion) {
  CrpmOptions o = small_opts();
  o.buffered = true;
  o.backup_ratio = 0.1;
  EXPECT_EQ(o.validated().backup_ratio, 1.0);
}

TEST(Options, RejectsBadGeometry) {
  CrpmOptions o = small_opts();
  o.block_size = 100;  // not a power of two
  EXPECT_DEATH((void)o.validated(), "block_size");
  o = small_opts();
  o.segment_size = 128;
  o.block_size = 256;  // larger than segment
  EXPECT_DEATH((void)o.validated(), "segment_size");
}

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opt_ = small_opts();
    dev_ = std::make_unique<HeapNvmDevice>(
        Container::required_device_size(opt_));
  }
  CrpmOptions opt_;
  std::unique_ptr<HeapNvmDevice> dev_;
};

TEST_F(ContainerTest, FreshOpenFormats) {
  auto c = Container::open(dev_.get(), opt_);
  EXPECT_TRUE(c->fresh());
  EXPECT_EQ(c->committed_epoch(), 0u);
  EXPECT_EQ(c->capacity(), opt_.main_region_size);
}

TEST_F(ContainerTest, WriteCheckpointReadBack) {
  auto c = Container::open(dev_.get(), opt_);
  uint8_t* d = c->data();
  c->annotate(d + 100, 8);
  std::memcpy(d + 100, "ABCDEFGH", 8);
  c->checkpoint();
  EXPECT_EQ(c->committed_epoch(), 1u);
  EXPECT_EQ(std::memcmp(d + 100, "ABCDEFGH", 8), 0);
}

TEST_F(ContainerTest, ReadOnlyEpochSkipsCommit) {
  auto c = Container::open(dev_.get(), opt_);
  c->annotate(c->data(), 8);
  c->data()[0] = 1;
  c->checkpoint();
  auto fences_before = dev_->stats().sfence_count();
  uint64_t e = c->committed_epoch();
  c->checkpoint();  // nothing dirty
  EXPECT_EQ(c->committed_epoch(), e);  // epoch not advanced
  EXPECT_EQ(dev_->stats().sfence_count(), fences_before);  // zero fences
}

TEST_F(ContainerTest, CowCopiesOnlyDirtyBlocks) {
  opt_.eager_cow_segments = 0;  // exercise the lazy CoW path alone
  dev_ = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt_));
  auto c = Container::open(dev_.get(), opt_);
  uint8_t* d = c->data();
  uint64_t seg_off = 3 * opt_.segment_size;
  // Epoch 1: first touch (SS_Initial) — no CoW at all.
  c->annotate(d + seg_off, 1);
  d[seg_off] = 1;
  c->annotate(d + seg_off + 512, 1);
  d[seg_off + 512] = 2;
  c->checkpoint();
  EXPECT_EQ(c->stats().snapshot().cow_count, 0u);
  // Epoch 2: segment is SS_Main with no pairing — full-segment CoW.
  c->annotate(d + seg_off + 1024, 1);
  d[seg_off + 1024] = 3;
  c->checkpoint();
  auto s2 = c->stats().snapshot();
  EXPECT_EQ(s2.cow_full_copies, 1u);
  // Epoch 3: paired now — differential CoW copies exactly the one block
  // dirtied in epoch 2.
  c->annotate(d + seg_off + 2048, 1);
  d[seg_off + 2048] = 4;
  auto s3 = c->stats().snapshot();
  EXPECT_EQ(s3.cow_full_copies, 1u);
  EXPECT_EQ(s3.cow_blocks_copied - s2.cow_blocks_copied, 1u);
}

TEST_F(ContainerTest, ExactlyTwoFencesPerSegmentCow) {
  // The paper's central mechanism (Section 3.4.1): a segment-level
  // copy-on-write issues exactly two sfences — one for the copied data
  // (plus any pairing update), one for the segment-state flip — no matter
  // how many blocks move.
  auto c = Container::open(dev_.get(), opt_);
  uint8_t* d = c->data();
  // Commit a baseline with many dirty blocks in segment 2.
  for (int b = 0; b < 10; ++b) {
    c->annotate(d + 2 * opt_.segment_size + uint64_t(b) * 256, 8);
    d[2 * opt_.segment_size + uint64_t(b) * 256] = 1;
  }
  c->checkpoint();
  uint64_t f0 = dev_->stats().sfence_count();
  // First write of the epoch triggers the CoW (differential, 10 blocks,
  // or none if eager CoW already ran — state flip was eager's).
  c->annotate(d + 2 * opt_.segment_size, 8);
  d[2 * opt_.segment_size] = 2;
  uint64_t cow_fences = dev_->stats().sfence_count() - f0;
  EXPECT_LE(cow_fences, 2u);
  // Subsequent writes to the same segment are fence-free.
  for (int b = 0; b < 16; ++b) {
    c->annotate(d + 2 * opt_.segment_size + uint64_t(b) * 256 + 8, 8);
    d[2 * opt_.segment_size + uint64_t(b) * 256 + 8] = 3;
  }
  EXPECT_EQ(dev_->stats().sfence_count() - f0, cow_fences);

  // With eager CoW disabled the lazy path must show exactly 2.
  opt_.eager_cow_segments = 0;
  auto dev2 = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt_));
  auto c2 = Container::open(dev2.get(), opt_);
  for (int b = 0; b < 10; ++b) {
    c2->annotate(c2->data() + uint64_t(b) * 256, 8);
    c2->data()[uint64_t(b) * 256] = 1;
  }
  c2->checkpoint();  // seg 0 now SS_Main, unpaired
  uint64_t g0 = dev2->stats().sfence_count();
  c2->annotate(c2->data(), 8);
  c2->data()[0] = 2;  // full-segment CoW (fresh pairing)
  EXPECT_EQ(dev2->stats().sfence_count() - g0, 2u);
  c2->checkpoint();
  uint64_t g1 = dev2->stats().sfence_count();
  c2->annotate(c2->data(), 8);
  c2->data()[0] = 3;  // differential CoW
  EXPECT_EQ(dev2->stats().sfence_count() - g1, 2u);
}

TEST_F(ContainerTest, FirstTouchNeedsNoCow) {
  auto c = Container::open(dev_.get(), opt_);
  c->annotate(c->data() + 8192, 16);
  std::memset(c->data() + 8192, 7, 16);
  auto s = c->stats().snapshot();
  EXPECT_EQ(s.cow_count, 0u);  // SS_Initial segment: no checkpoint to protect
}

TEST_F(ContainerTest, RootsSurviveReopen) {
  {
    auto c = Container::open(dev_.get(), opt_);
    c->set_root(0, 4242);
    c->set_root(15, 99);
    c->checkpoint();
  }
  auto c = Container::open(dev_.get(), opt_);
  EXPECT_FALSE(c->fresh());
  EXPECT_EQ(c->get_root(0), 4242u);
  EXPECT_EQ(c->get_root(15), 99u);
  EXPECT_EQ(c->get_root(7), 0u);
}

TEST_F(ContainerTest, UncheckpointedDataRevertsOnCrash) {
  CrashSimDevice crash_dev(Container::required_device_size(opt_));
  Xoshiro256 rng(1);
  {
    auto c = Container::open(&crash_dev, opt_);
    c->annotate(c->data(), 4);
    std::memcpy(c->data(), "GOOD", 4);
    c->checkpoint();
    // Modify after the checkpoint; never checkpointed again.
    c->annotate(c->data(), 4);
    std::memcpy(c->data(), "EVIL", 4);
  }
  crash_dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  auto c = Container::open(&crash_dev, opt_);
  EXPECT_EQ(std::memcmp(c->data(), "GOOD", 4), 0);
}

TEST_F(ContainerTest, MultiEpochOverwritesRecoverLatestCommit) {
  CrashSimDevice crash_dev(Container::required_device_size(opt_));
  Xoshiro256 rng(2);
  {
    auto c = Container::open(&crash_dev, opt_);
    for (uint64_t e = 1; e <= 5; ++e) {
      c->annotate(c->data(), 8);
      std::memcpy(c->data(), &e, 8);
      c->checkpoint();
      EXPECT_EQ(c->committed_epoch(), e);
    }
  }
  crash_dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  auto c = Container::open(&crash_dev, opt_);
  uint64_t v = 0;
  std::memcpy(&v, c->data(), 8);
  EXPECT_EQ(v, 5u);
  EXPECT_EQ(c->committed_epoch(), 5u);
}

TEST_F(ContainerTest, FileBackedRestartRecovers) {
  CaseDir dir;
  const std::string path = dir.file("ctr");
  {
    auto c = Container::open_file(path, opt_);
    EXPECT_TRUE(c->fresh());
    c->annotate(c->data() + 64, 5);
    std::memcpy(c->data() + 64, "state", 5);
    c->checkpoint();
  }
  {
    auto c = Container::open_file(path, opt_);
    EXPECT_FALSE(c->fresh());
    EXPECT_EQ(std::memcmp(c->data() + 64, "state", 5), 0);
  }
}

TEST_F(ContainerTest, CollectiveCheckpointWithThreads) {
  opt_.thread_count = 3;
  dev_ = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt_));
  auto c = Container::open(dev_.get(), opt_);
  constexpr int kEpochs = 10;
  auto worker = [&](int tid) {
    for (int e = 0; e < kEpochs; ++e) {
      uint64_t off = (static_cast<uint64_t>(tid) * 37 + e * 3) * 4096 % (1 << 20);
      c->annotate(c->data() + off, 8);
      uint64_t v = static_cast<uint64_t>(tid) * 1000 + e;
      std::memcpy(c->data() + off, &v, 8);
      c->checkpoint();
    }
  };
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; ++t) ts.emplace_back(worker, t);
  for (auto& t : ts) t.join();
  EXPECT_EQ(c->committed_epoch(), static_cast<uint64_t>(kEpochs));
}

TEST_F(ContainerTest, ConcurrentCowSameSegmentIsSerialized) {
  opt_.thread_count = 2;
  dev_ = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt_));
  auto c = Container::open(dev_.get(), opt_);
  // Commit a baseline so segment 0 is SS_Main and CoW is required.
  c->annotate(c->data(), 8);
  c->data()[0] = 1;
  auto worker = [&](int tid) {
    c->checkpoint();
    for (int i = 0; i < 2000; ++i) {
      uint64_t off = static_cast<uint64_t>(tid) * 8 + (i % 16) * 256;
      c->annotate(c->data() + off, 8);
      c->data()[off] = static_cast<uint8_t>(i);
    }
    c->checkpoint();
  };
  std::vector<std::thread> ts;
  ts.emplace_back(worker, 0);
  ts.emplace_back(worker, 1);
  for (auto& t : ts) t.join();
  auto s = c->stats().snapshot();
  // Exactly one full-segment CoW for segment 0 despite two racing writers.
  EXPECT_EQ(s.cow_full_copies, 1u);
}

TEST_F(ContainerTest, BackupRecyclingWhenRegionSmall) {
  opt_.backup_ratio = 0.05;  // ~13 backups for 256 main segments
  dev_ = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt_));
  auto c = Container::open(dev_.get(), opt_);
  Geometry g(opt_);
  ASSERT_LT(g.nr_backup_segs(), 20u);
  // Revisit 20 distinct segments (more than the 13 backups) across epochs
  // that each dirty 6 of them; re-modifying an SS_Main segment allocates a
  // pairing, so pairings must eventually be recycled.
  std::vector<uint64_t> expected(g.nr_main_segs(), 0);
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    for (uint64_t j = 0; j < 6; ++j) {
      uint64_t seg = (epoch * 4 + j) % 20;
      uint64_t off = seg * opt_.segment_size;
      uint64_t v = epoch * 100 + j + 1;
      c->annotate(c->data() + off, 8);
      std::memcpy(c->data() + off, &v, 8);
      expected[seg] = v;
    }
    c->checkpoint();
  }
  auto s = c->stats().snapshot();
  EXPECT_GT(s.backup_steals, 0u);
  for (uint64_t seg = 0; seg < 20; ++seg) {
    uint64_t v = 0;
    std::memcpy(&v, c->data() + seg * opt_.segment_size, 8);
    EXPECT_EQ(v, expected[seg]) << "segment " << seg;
  }
}

TEST(Heap, AllocateFreeReuse) {
  CrpmOptions opt = small_opts();
  HeapNvmDevice dev(Container::required_device_size(opt));
  auto c = Container::open(&dev, opt);
  Heap heap(*c);
  void* a = heap.allocate(100);
  void* b = heap.allocate(100);
  EXPECT_NE(a, b);
  EXPECT_TRUE(c->contains(a, 100));
  uint64_t used = heap.bytes_in_use();
  EXPECT_GE(used, 200u);
  heap.deallocate(a, 100);
  void* a2 = heap.allocate(100);
  EXPECT_EQ(a2, a);  // LIFO reuse from the size-class free list
  heap.deallocate(a2, 100);
  heap.deallocate(b, 100);
  EXPECT_LT(heap.bytes_in_use(), used);
}

TEST(Heap, LargeAllocationsRoundToPow2Classes) {
  CrpmOptions opt = small_opts();
  HeapNvmDevice dev(Container::required_device_size(opt));
  auto c = Container::open(&dev, opt);
  Heap heap(*c);
  void* a = heap.allocate(1000);  // class 1024
  heap.deallocate(a, 1000);
  void* b = heap.allocate(1024);
  EXPECT_EQ(a, b);
}

// The heap over a bare window: every bookkeeping store is announced
// through the hook, free lists reuse, and a reattach keeps the state —
// unless the window holds no valid header, which formats even when the
// protocol reports a non-fresh region (rolled back to before the format).
TEST(Heap, AllocateFreeReuseWithHook) {
  std::vector<uint8_t> mem(1 << 20, 0);
  uint64_t hooked_bytes = 0;
  auto hook = [](void* ctx, const void*, size_t len) {
    *static_cast<uint64_t*>(ctx) += len;
  };
  void* x = nullptr;
  {
    Heap heap(mem.data(), mem.size(), /*fresh=*/false, hook, &hooked_bytes);
    EXPECT_TRUE(heap.fresh());
    EXPECT_GT(hooked_bytes, 0u);
    uint64_t before = hooked_bytes;
    x = heap.allocate(40);
    EXPECT_EQ(hooked_bytes - before, 16u);  // bump + allocated
    void* y = heap.allocate(40);
    EXPECT_NE(x, y);
    heap.deallocate(x, 40);
    EXPECT_EQ(heap.allocate(40), x);
    EXPECT_EQ(heap.bytes_in_use(), 96u);  // two 48-byte class slots
  }
  uint64_t before = hooked_bytes;
  Heap again(mem.data(), mem.size(), /*fresh=*/false, hook, &hooked_bytes);
  EXPECT_FALSE(again.fresh());
  EXPECT_EQ(hooked_bytes, before);
  EXPECT_EQ(again.bytes_in_use(), 96u);
  EXPECT_EQ(again.offset_of(x), static_cast<uint64_t>(
                                    static_cast<uint8_t*>(x) - mem.data()));
}

TEST(Heap, StateSurvivesCrash) {
  CrpmOptions opt = small_opts();
  CrashSimDevice dev(Container::required_device_size(opt));
  Xoshiro256 rng(3);
  uint64_t root_off = 0;
  {
    auto c = Container::open(&dev, opt);
    Heap heap(*c);
    auto* obj = static_cast<uint64_t*>(heap.allocate(64));
    c->annotate(obj, 8);
    *obj = 0xDEADBEEF;
    root_off = c->to_offset(obj);
    c->set_root(0, root_off);
    c->checkpoint();
    // Allocate more after the checkpoint; must roll back.
    (void)heap.allocate(64);
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    auto c = Container::open(&dev, opt);
    Heap heap(*c);
    EXPECT_EQ(c->get_root(0), root_off);
    auto* obj = static_cast<uint64_t*>(c->from_offset(c->get_root(0)));
    EXPECT_EQ(*obj, 0xDEADBEEF);
    // The heap rolled back: a fresh allocation lands where the
    // post-checkpoint one did.
    auto* obj2 = static_cast<uint64_t*>(heap.allocate(64));
    EXPECT_EQ(c->to_offset(obj2), root_off + 64);
  }
}

TEST(StlAllocator, VectorStorageLivesInContainerAndRecovers) {
  CrpmOptions opt = small_opts();
  CrashSimDevice dev(Container::required_device_size(opt));
  Xoshiro256 rng(17);
  {
    auto c = Container::open(&dev, opt);
    Heap heap(*c);
    std::vector<uint64_t, CrpmAllocator<uint64_t>> v{
        CrpmAllocator<uint64_t>(heap)};
    v.reserve(64);  // fixed storage: no untraced reallocation afterwards
    EXPECT_TRUE(c->contains(v.data(), 64 * 8));
    // The application annotates its own element writes (no compiler pass).
    c->annotate(v.data(), 64 * 8);
    for (uint64_t i = 0; i < 64; ++i) v.push_back(i * 3);
    c->set_root(0, c->to_offset(v.data()));
    c->checkpoint();
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    auto c = Container::open(&dev, opt);
    auto* data = static_cast<uint64_t*>(c->from_offset(c->get_root(0)));
    for (uint64_t i = 0; i < 64; ++i) EXPECT_EQ(data[i], i * 3);
  }
}

TEST(Registry, RoutesAnnotationsByAddress) {
  CrpmOptions opt = small_opts();
  HeapNvmDevice dev(Container::required_device_size(opt));
  auto c = Container::open(&dev, opt);
  register_container(c.get());
  // p<T> routes through the registry.
  struct Rec {
    p<uint64_t> value;
  };
  auto* r = reinterpret_cast<Rec*>(c->data() + 512);
  r->value = 77;
  EXPECT_EQ(r->value.get(), 77u);
  c->checkpoint();
  EXPECT_GT(c->stats().snapshot().epochs, 0u);
  // Unregistered addresses are ignored silently.
  uint64_t local = 0;
  crpm_annotate(&local, 8);
  deregister_container(c.get());
  EXPECT_EQ(find_container(c->data()), nullptr);
}

TEST(CApi, EndToEnd) {
  CaseDir dir;
  const std::string path = dir.file("capi");
  CrpmOptions opt = small_opts();
  {
    crpm_t* c = crpm_open(path.c_str(), &opt);
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(crpm_is_fresh(c));
    auto* v = static_cast<uint64_t*>(crpm_malloc(c, 24));
    crpm_annotate_range(v, 8);
    *v = 123;
    crpm_set_root(c, 0, v);
    crpm_checkpoint(c);
    EXPECT_EQ(crpm_committed_epoch(c), 1u);
    crpm_close(c);
  }
  {
    crpm_t* c = crpm_open(path.c_str(), &opt);
    EXPECT_FALSE(crpm_is_fresh(c));
    auto* v = static_cast<uint64_t*>(crpm_get_root(c, 0));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 123u);
    crpm_close(c);
  }
}

class BufferedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opt_ = small_opts();
    opt_.buffered = true;
    dev_ = std::make_unique<CrashSimDevice>(
        Container::required_device_size(opt_));
  }
  CrpmOptions opt_;
  std::unique_ptr<CrashSimDevice> dev_;
  Xoshiro256 rng_{11};
};

TEST_F(BufferedTest, WorkingStateIsDram) {
  auto c = Container::open(dev_.get(), opt_);
  EXPECT_FALSE(dev_->contains(c->data(), 1));
  uint64_t media_after_open = dev_->stats().media_write_bytes();
  c->annotate(c->data(), 4);
  std::memcpy(c->data(), "dram", 4);
  // Without a checkpoint nothing (beyond the format) reaches NVM.
  EXPECT_EQ(dev_->stats().media_write_bytes(), media_after_open);
}

TEST_F(BufferedTest, AlternatesMainAndBackupTargets) {
  auto c = Container::open(dev_.get(), opt_);
  for (int e = 1; e <= 4; ++e) {
    c->annotate(c->data(), 8);
    uint64_t v = static_cast<uint64_t>(e);
    std::memcpy(c->data(), &v, 8);
    c->checkpoint();
  }
  EXPECT_EQ(c->committed_epoch(), 4u);
}

TEST_F(BufferedTest, CrashRecoversLastCommit) {
  {
    auto c = Container::open(dev_.get(), opt_);
    for (uint64_t e = 1; e <= 7; ++e) {
      for (uint64_t k = 0; k < 32; ++k) {
        uint64_t off = k * 4096 + (e % 4) * 512;
        c->annotate(c->data() + off, 8);
        uint64_t v = e * 1000 + k;
        std::memcpy(c->data() + off, &v, 8);
      }
      c->checkpoint();
    }
    // Post-checkpoint modification must be discarded.
    c->annotate(c->data(), 8);
    uint64_t junk = ~uint64_t{0};
    std::memcpy(c->data(), &junk, 8);
  }
  dev_->crash_and_restart(CrashPolicy::kDropPending, rng_);
  auto c = Container::open(dev_.get(), opt_);
  EXPECT_EQ(c->committed_epoch(), 7u);
  for (uint64_t k = 0; k < 32; ++k) {
    uint64_t off = k * 4096 + (7 % 4) * 512;
    uint64_t v = 0;
    std::memcpy(&v, c->data() + off, 8);
    EXPECT_EQ(v, 7000 + k);
  }
}

TEST_F(BufferedTest, DramBytesAccountsBufferAndBitmaps) {
  auto c = Container::open(dev_.get(), opt_);
  EXPECT_GE(c->dram_bytes(), opt_.main_region_size);
}

}  // namespace
}  // namespace crpm
