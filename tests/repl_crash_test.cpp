// Multi-level recovery: kill a rank, wipe its container, archive AND
// replica store, and coordinated_open_with_peers() still rebuilds the
// globally agreed epoch bit-identically from a partner's replica — over a
// transport injecting drops, duplicates, delays and reorders throughout.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/coordinated.h"
#include "comm/sim_comm.h"
#include "core/container.h"
#include "core/crpm_stats.h"
#include "core/layout.h"
#include "nvm/device.h"
#include "repl/recover.h"
#include "repl/replicator.h"
#include "snapshot/writer.h"

namespace crpm {
namespace {

constexpr int kRanks = 3;
constexpr int kReplicas = 2;

CrpmOptions small_opts() {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 128 * 1024;
  o.eager_cow_segments = 0;  // coordinated recovery needs retained history
  return o;
}

struct Paths {
  std::string ctr, snap, store;
};

Paths rank_paths(const std::string& dir, int rank) {
  const std::string tag = dir + "/r" + std::to_string(rank);
  return {tag + ".ctr", tag + ".snap", tag + ".store"};
}

repl::ReplConfig rank_cfg(const std::string& dir, int rank) {
  Paths p = rank_paths(dir, rank);
  repl::ReplConfig cfg;
  cfg.replicas = kReplicas;
  cfg.store_dir = p.store;
  cfg.local_archive = p.snap;  // serve recovery pulls of our own state
  cfg.ack_timeout_us = 1000;
  cfg.fsync_store = false;
  return cfg;
}

void mutate(Container& c, int rank, uint64_t round) {
  auto* data = c.data();
  for (uint64_t i = 0; i < 48; ++i) {
    const uint64_t off = (i * 709 + round * 389) % c.capacity();
    c.annotate(data + off, 1);
    data[off] = uint8_t(rank * 90 + round * 7 + i);
  }
}

// Runs `epochs` replicated coordinated checkpoints on all ranks, starting
// from whatever state the devices hold; returns each rank's final data
// image.
std::array<std::vector<uint8_t>, kRanks> run_epochs(
    const std::string& dir, std::vector<std::unique_ptr<NvmDevice>>& devs,
    uint64_t first_round, uint64_t epochs, uint64_t seed,
    uint64_t* final_epoch) {
  CrpmOptions o = small_opts();
  SimComm comm(kRanks);
  Channel channel(kRanks, FaultSpec::lossy(seed));
  std::array<std::vector<uint8_t>, kRanks> images;
  std::array<uint64_t, kRanks> epochs_out{};

  comm.run([&](int rank) {
    Paths p = rank_paths(dir, rank);
    auto c = Container::open(devs[size_t(rank)].get(), o);
    repl::ReplNode node(channel, rank, rank_cfg(dir, rank));
    snapshot::ArchiveWriter writer(p.snap);
    writer.attach(*c);
    node.attach(*c, writer);

    for (uint64_t r = 0; r < epochs; ++r) {
      mutate(*c, rank, first_round + r);
      coordinated_checkpoint(comm, *c);
    }
    writer.drain();
    node.flush();
    comm.barrier();  // peers must stay alive until everyone's acks landed
    images[size_t(rank)].assign(c->data(), c->data() + c->capacity());
    epochs_out[size_t(rank)] = c->committed_epoch();
    comm.barrier();
  });
  *final_epoch = epochs_out[0];
  for (int r = 1; r < kRanks; ++r) EXPECT_EQ(epochs_out[size_t(r)],
                                             *final_epoch);
  return images;
}

TEST(ReplCrash, WipedRankRecoversAgreedEpochFromPartner) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "crpm_repl_crash").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CrpmOptions o = small_opts();
  const uint64_t dev_size = Geometry(o.validated()).device_size();

  std::vector<std::unique_ptr<NvmDevice>> devs;
  for (int r = 0; r < kRanks; ++r) {
    devs.push_back(std::make_unique<FileNvmDevice>(rank_paths(dir, r).ctr,
                                                   dev_size));
  }

  // Phase 1: replicated checkpoints, then a hard stop. An even epoch
  // count so the recovery's parity-preserving renumbering (restore lands
  // on epoch 1, the cluster is on even parity) is exercised.
  uint64_t committed = 0;
  auto images = run_epochs(dir, devs, 0, 4, 21, &committed);
  ASSERT_EQ(committed, 4u);

  // The crash: rank 1 loses *everything* — container device, local
  // archive, replica store.
  constexpr int kVictim = 1;
  devs[kVictim].reset();
  Paths vp = rank_paths(dir, kVictim);
  std::filesystem::remove(vp.ctr);
  std::filesystem::remove(vp.snap);
  std::filesystem::remove_all(vp.store);
  devs[kVictim] = std::make_unique<FileNvmDevice>(vp.ctr, dev_size);

  // Phase 2: coordinated recovery over a lossy transport.
  {
    SimComm comm(kRanks);
    Channel channel(kRanks, FaultSpec::lossy(22));
    std::array<uint64_t, kRanks> sources{};
    comm.run([&](int rank) {
      repl::ReplNode node(channel, rank, rank_cfg(dir, rank));
      repl::PeerOpenResult r = repl::coordinated_open_with_peers(
          comm, node, rank, devs[size_t(rank)].get(), o);
      ASSERT_NE(r.container, nullptr) << "rank " << rank << ": " << r.error;
      EXPECT_EQ(r.epoch, committed) << "rank " << rank;
      EXPECT_EQ(r.container->committed_epoch(), committed);
      sources[size_t(rank)] = r.source;
      // Bit-identical to the pre-crash state — including the wiped rank.
      std::vector<uint8_t> got(r.container->data(),
                               r.container->data() + r.container->capacity());
      EXPECT_EQ(got, images[size_t(rank)]) << "rank " << rank;
      comm.barrier();  // serve peers until every rank finished recovering
    });
    EXPECT_EQ(sources[0], CrpmStatsSnapshot::kRecoveryLocal);
    EXPECT_EQ(sources[kVictim], CrpmStatsSnapshot::kRecoveryPeer);
    EXPECT_EQ(sources[2], CrpmStatsSnapshot::kRecoveryLocal);
  }

  // Phase 3: life goes on — the recovered rank commits further epochs and
  // replication (including into its refilled store) keeps working.
  uint64_t committed2 = 0;
  auto images2 = run_epochs(dir, devs, 4, 2, 23, &committed2);
  EXPECT_EQ(committed2, committed + 2);
  for (int r = 0; r < kRanks; ++r) {
    repl::ReplicaStore store(rank_paths(dir, r).store);
    for (int o2 : repl::clients_of(r, kRanks, kReplicas)) {
      EXPECT_EQ(store.newest_epoch(o2), committed2)
          << "store " << r << " origin " << o2;
    }
  }
  (void)images2;
  std::filesystem::remove_all(dir);
}

// Odd agreed epoch: the restored container already has matching parity and
// no filler checkpoint is needed before renumbering.
TEST(ReplCrash, OddEpochRecoveryNeedsNoParityFix) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "crpm_repl_odd").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CrpmOptions o = small_opts();
  const uint64_t dev_size = Geometry(o.validated()).device_size();
  constexpr int kTwo = 2;

  std::vector<std::unique_ptr<NvmDevice>> devs;
  for (int r = 0; r < kTwo; ++r) {
    devs.push_back(std::make_unique<FileNvmDevice>(rank_paths(dir, r).ctr,
                                                   dev_size));
  }
  std::array<std::vector<uint8_t>, kTwo> images;
  {
    SimComm comm(kTwo);
    Channel channel(kTwo, FaultSpec::lossy(31));
    comm.run([&](int rank) {
      auto c = Container::open(devs[size_t(rank)].get(), o);
      repl::ReplConfig cfg = rank_cfg(dir, rank);
      cfg.replicas = 1;
      repl::ReplNode node(channel, rank, cfg);
      snapshot::ArchiveWriter writer(rank_paths(dir, rank).snap);
      writer.attach(*c);
      node.attach(*c, writer);
      for (uint64_t r = 0; r < 3; ++r) {
        mutate(*c, rank, r);
        coordinated_checkpoint(comm, *c);
      }
      writer.drain();
      node.flush();
      comm.barrier();
      images[size_t(rank)].assign(c->data(), c->data() + c->capacity());
      comm.barrier();
    });
  }
  devs[0].reset();
  Paths vp = rank_paths(dir, 0);
  std::filesystem::remove(vp.ctr);
  std::filesystem::remove(vp.snap);
  std::filesystem::remove_all(vp.store);
  devs[0] = std::make_unique<FileNvmDevice>(vp.ctr, dev_size);

  SimComm comm(kTwo);
  Channel channel(kTwo, FaultSpec::lossy(32));
  comm.run([&](int rank) {
    repl::ReplConfig cfg = rank_cfg(dir, rank);
    cfg.replicas = 1;
    repl::ReplNode node(channel, rank, cfg);
    repl::PeerOpenResult r = repl::coordinated_open_with_peers(
        comm, node, rank, devs[size_t(rank)].get(), o);
    ASSERT_NE(r.container, nullptr) << r.error;
    EXPECT_EQ(r.epoch, 3u);
    EXPECT_EQ(r.container->committed_epoch(), 3u);
    std::vector<uint8_t> got(r.container->data(),
                             r.container->data() + r.container->capacity());
    EXPECT_EQ(got, images[size_t(rank)]);
    comm.barrier();
  });
  std::filesystem::remove_all(dir);
}

TEST(ReplCrash, AllRanksLostStartsFresh) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "crpm_repl_fresh").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CrpmOptions o = small_opts();
  const uint64_t dev_size = Geometry(o.validated()).device_size();

  std::vector<std::unique_ptr<NvmDevice>> devs;
  for (int r = 0; r < kRanks; ++r) {
    devs.push_back(std::make_unique<FileNvmDevice>(rank_paths(dir, r).ctr,
                                                   dev_size));
  }
  SimComm comm(kRanks);
  Channel channel(kRanks);
  comm.run([&](int rank) {
    repl::ReplNode node(channel, rank, rank_cfg(dir, rank));
    repl::PeerOpenResult r = repl::coordinated_open_with_peers(
        comm, node, rank, devs[size_t(rank)].get(), o);
    ASSERT_NE(r.container, nullptr);
    EXPECT_EQ(r.epoch, 0u);
    EXPECT_EQ(r.source, CrpmStatsSnapshot::kRecoveryNone);
    EXPECT_TRUE(r.container->fresh());
    comm.barrier();
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace crpm
