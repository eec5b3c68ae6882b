// Coverage for smaller surfaces: the eADR cost/instruction model, epoch
// peeking, coordinated open on fresh containers, p<T> arithmetic, and
// device edge cases.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "comm/coordinated.h"
#include "core/container.h"
#include "core/pvar.h"
#include "core/registry.h"
#include "nvm/crash_sim.h"

namespace crpm {
namespace {

TEST(EadrModel, ElidesClwbButKeepsFences) {
  HeapNvmDevice dev(1 << 16);
  dev.set_cost_model(CostModel::realistic_eadr());
  auto s0 = dev.stats().snapshot();
  dev.persist(dev.base(), 256);
  auto d = dev.stats().snapshot() - s0;
  EXPECT_EQ(d.clwb, 0u);    // no cache-line write-backs on eADR
  EXPECT_EQ(d.sfence, 1u);  // ordering fences remain
  // Media accounting still tracks the write volume.
  EXPECT_EQ(d.media_write_bytes, 256u);
}

TEST(EadrModel, CrashSimulationStaysConservative) {
  // eADR affects cost only; the crash simulator still requires the
  // flush+fence protocol, so protocol tests remain meaningful.
  CrashSimDevice dev(1 << 16);
  dev.set_cost_model(CostModel::realistic_eadr());
  Xoshiro256 rng(1);
  dev.base()[0] = 42;
  dev.flush(dev.base(), 1);
  dev.fence();
  dev.base()[64] = 43;  // never flushed
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  EXPECT_EQ(dev.base()[0], 42);
  EXPECT_EQ(dev.base()[64], 0);
}

TEST(PeekEpoch, UnformattedAndFormattedDevices) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 256 * 1024;
  HeapNvmDevice dev(Container::required_device_size(o));
  EXPECT_EQ(Container::peek_committed_epoch(&dev), Container::kLatestEpoch);
  {
    auto c = Container::open(&dev, o);
    c->annotate(c->data(), 8);
    c->data()[0] = 1;
    c->checkpoint();
    c->checkpoint();  // read-only epoch: not committed
    c->annotate(c->data(), 8);
    c->data()[0] = 2;
    c->checkpoint();
  }
  EXPECT_EQ(Container::peek_committed_epoch(&dev), 2u);
}

TEST(PeekEpoch, OpenAtExplicitLatestEpochValue) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  o.eager_cow_segments = 0;
  HeapNvmDevice dev(Container::required_device_size(o));
  {
    auto c = Container::open(&dev, o);
    for (int e = 0; e < 3; ++e) {
      c->annotate(c->data(), 8);
      c->data()[0] = uint8_t(e + 1);
      c->checkpoint();
    }
  }
  // Opening at the current committed epoch explicitly is a no-op rollback.
  auto c = Container::open(&dev, o, /*target_epoch=*/3);
  EXPECT_EQ(c->committed_epoch(), 3u);
  EXPECT_EQ(c->data()[0], 3);
}

TEST(Coordinated, AllFreshRanksAgreeOnEpochZero) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  o.buffered = true;
  constexpr int kRanks = 3;
  std::vector<std::unique_ptr<HeapNvmDevice>> devs;
  for (int r = 0; r < kRanks; ++r) {
    devs.push_back(std::make_unique<HeapNvmDevice>(
        Container::required_device_size(o)));
  }
  SimComm comm(kRanks);
  std::vector<uint64_t> epochs(kRanks, 99);
  comm.run([&](int rank) {
    auto opened = coordinated_open(comm, rank, devs[size_t(rank)].get(), o);
    epochs[size_t(rank)] = opened.epoch;
    EXPECT_TRUE(opened.container->fresh());
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(epochs[size_t(r)], 0u);
}

TEST(Roots, EpochConsistentWithReferencedData) {
  // A root set after the last checkpoint must roll back together with the
  // (uncommitted) object it references — otherwise recovery would hand out
  // a pointer to garbage.
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 256 * 1024;
  CrashSimDevice dev(Container::required_device_size(o));
  Xoshiro256 rng(3);
  {
    auto c = Container::open(&dev, o);
    c->set_root(0, 1111);
    c->annotate(c->data(), 8);
    c->data()[0] = 1;
    c->checkpoint();  // commits root[0] = 1111 at epoch 1
    c->set_root(0, 2222);  // uncommitted
    c->set_root(1, 3333);  // uncommitted
    EXPECT_EQ(c->get_root(0), 2222u);  // visible in this session
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    auto c = Container::open(&dev, o);
    EXPECT_EQ(c->committed_epoch(), 1u);
    EXPECT_EQ(c->get_root(0), 1111u);  // rolled back
    EXPECT_EQ(c->get_root(1), 0u);
  }
}

TEST(Roots, RootOnlyChangeCommitsAnEpoch) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  HeapNvmDevice dev(Container::required_device_size(o));
  auto c = Container::open(&dev, o);
  c->set_root(5, 42);
  c->checkpoint();
  EXPECT_EQ(c->committed_epoch(), 1u);  // roots alone are commit-worthy
  c->checkpoint();                      // nothing new: skipped
  EXPECT_EQ(c->committed_epoch(), 1u);
}

TEST(PVar, ArithmeticOperatorsRouteThroughHook) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  HeapNvmDevice dev(Container::required_device_size(o));
  auto c = Container::open(&dev, o);
  register_container(c.get());

  auto* counter = reinterpret_cast<p<int64_t>*>(c->data() + 1024);
  *counter = 10;
  *counter += 5;
  *counter -= 3;
  ++*counter;
  --*counter;
  EXPECT_EQ(counter->get(), 12);
  c->checkpoint();
  // The hooked writes made the segment dirty and the value durable.
  EXPECT_GT(c->stats().snapshot().epochs, 0u);
  deregister_container(c.get());
}

TEST(Device, FileDeviceResizesExistingFile) {
  auto path = std::filesystem::temp_directory_path() / "crpm_resize_test";
  std::filesystem::remove(path);
  {
    FileNvmDevice dev(path.string(), 8192);
    dev.base()[0] = 7;
    dev.persist(dev.base(), 1);
  }
  {
    FileNvmDevice dev(path.string(), 64 * 1024);  // grow
    EXPECT_TRUE(dev.existed());
    EXPECT_GE(dev.size(), 64u * 1024);
    EXPECT_EQ(dev.base()[0], 7);        // old content preserved
    EXPECT_EQ(dev.base()[32 * 1024], 0);  // new tail zeroed
  }
  std::filesystem::remove(path);
}

TEST(Device, GeometryMismatchOnReopenAborts) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  HeapNvmDevice dev(Container::required_device_size(o) + (1 << 20));
  { auto c = Container::open(&dev, o); c->set_root(0, 1); }
  CrpmOptions other = o;
  other.block_size = 512;
  EXPECT_DEATH((void)Container::open(&dev, other), "geometry mismatch");
}

TEST(Device, BufferedFlagMismatchAborts) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  o.backup_ratio = 1.0;
  HeapNvmDevice dev(Container::required_device_size(o));
  { auto c = Container::open(&dev, o); c->set_root(0, 1); }
  CrpmOptions buf = o;
  buf.buffered = true;
  EXPECT_DEATH((void)Container::open(&dev, buf), "buffered");
}

}  // namespace
}  // namespace crpm
