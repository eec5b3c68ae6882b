// Integration test for tools/crpm_inspect: build a container file, run the
// inspector binary on it, and check both the consistent and the corrupted
// verdicts. The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "case_dir.h"
#include "core/container.h"
#include "core/heap.h"
#include "net/kv_service.h"
#include "snapshot/format.h"
#include "snapshot/writer.h"
#include "tier/codec.h"
#include "tier/cold.h"

#ifndef CRPM_INSPECT_BINARY
#define CRPM_INSPECT_BINARY "crpm_inspect"
#endif

namespace crpm {
namespace {

// Every case works in its own CaseDir, so concurrent runs never share a
// file; the tool's captured output lands there too.
class InspectTool : public ::testing::Test {
 protected:
  // Runs crpm_inspect with `args`; returns its stdout+stderr.
  std::string run_tool(const std::string& args, int* exit_code) const {
    const std::string out_file = case_dir_.file("tool_out");
    std::string cmd = std::string(CRPM_INSPECT_BINARY) + " " + args + " > " +
                      out_file + " 2>&1";
    int rc = std::system(cmd.c_str());
    *exit_code = rc == -1 ? -1 : WEXITSTATUS(rc);
    std::ifstream in(out_file);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::filesystem::remove(out_file);
    return content;
  }

  CaseDir case_dir_;
};

TEST_F(InspectTool, ReportsConsistentContainer) {
  const std::string path = case_dir_.file("inspect_test.ctr");
  CrpmOptions o;
  o.segment_size = 64 * 1024;
  o.block_size = 256;
  o.main_region_size = 4 << 20;
  {
    auto c = Container::open_file(path, o);
    Heap heap(*c);
    auto* obj = static_cast<uint64_t*>(heap.allocate(1024));
    c->annotate(obj, 8);
    *obj = 7;
    c->set_root(0, c->to_offset(obj));
    c->checkpoint();
    // A second epoch so a pairing and an SS_Backup state exist.
    c->annotate(obj, 8);
    *obj = 8;
    c->checkpoint();
  }
  int rc = -1;
  std::string out = run_tool(path, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("structurally consistent"), std::string::npos) << out;
  EXPECT_NE(out.find("committed epoch:   2"), std::string::npos) << out;
  EXPECT_NE(out.find("root[0]"), std::string::npos) << out;
  EXPECT_NE(out.find("heap:"), std::string::npos) << out;
}

TEST_F(InspectTool, DetectsCorruptPairing) {
  const std::string path = case_dir_.file("inspect_bad.ctr");
  CrpmOptions o;
  o.segment_size = 64 * 1024;
  o.block_size = 256;
  o.main_region_size = 4 << 20;
  Geometry geo(o);
  {
    auto c = Container::open_file(path, o);
    c->annotate(c->data(), 8);
    c->data()[0] = 1;
    c->checkpoint();
  }
  // Scribble an out-of-range pairing directly into the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    uint32_t bogus = 0x7FFFFFFF;
    f.seekp(static_cast<std::streamoff>(geo.backup_to_main_offset()));
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  int rc = -1;
  std::string out = run_tool(path, &rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("CONTAINER IS CORRUPT"), std::string::npos) << out;
}

TEST_F(InspectTool, RejectsNonContainerFile) {
  const std::string path = case_dir_.file("not_a_ctr");
  {
    std::ofstream f(path);
    f << std::string(8192, 'x');
  }
  int rc = -1;
  run_tool(path, &rc);
  EXPECT_NE(rc, 0);
}

// --- archive and replication subcommands ---------------------------------

// Builds a small archive with two committed epochs at `snap`.
void build_archive(const std::string& ctr, const std::string& snap) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 256 * 1024;
  auto c = Container::open_file(ctr, o);
  snapshot::ArchiveWriter writer(snap);
  writer.attach(*c);
  for (int e = 0; e < 2; ++e) {
    c->annotate(c->data() + e * 512, 8);
    std::memset(c->data() + e * 512, 0x40 + e, 8);
    c->checkpoint();
  }
  writer.drain();
}

void flip_byte(const std::string& path, std::streamoff off) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(off);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x1);
  f.seekp(off);
  f.write(&b, 1);
}

TEST_F(InspectTool, ArchiveVerifyExitsNonZeroOnCorruption) {
  const auto& dir = case_dir_.path();
  const std::string snap = (dir / "a.snap").string();
  build_archive((dir / "a.ctr").string(), snap);

  int rc = -1;
  std::string out = run_tool("archive verify " + snap, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("fully intact"), std::string::npos) << out;

  // One flipped bit inside the first frame's record payload: the record
  // CRC fails, verify must report damage and exit non-zero.
  flip_byte(snap, std::streamoff(sizeof(snapshot::ArchiveHeader) +
                                 sizeof(snapshot::FrameHeader) + 16));
  out = run_tool("archive verify " + snap, &rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("ARCHIVE HAS DAMAGE"), std::string::npos) << out;
}

TEST_F(InspectTool, ReplStatusExitsNonZeroOnCorruption) {
  const auto& dir = case_dir_.path();
  const auto store = dir / "store";
  std::filesystem::create_directories(store);
  const std::string snap = (dir / "a.snap").string();
  build_archive((dir / "a.ctr").string(), snap);
  // A replica store is one snapshot archive per peer rank.
  std::filesystem::copy_file(snap, store / "peer_0.crpmsnap");
  std::filesystem::copy_file(snap, store / "peer_3.crpmsnap");

  int rc = -1;
  std::string out = run_tool("repl status " + store.string(), &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("replica store is intact"), std::string::npos) << out;
  EXPECT_NE(out.find("2 peer files"), std::string::npos) << out;

  flip_byte((store / "peer_3.crpmsnap").string(),
            std::streamoff(sizeof(snapshot::ArchiveHeader) +
                           sizeof(snapshot::FrameHeader) + 16));
  out = run_tool("repl status " + store.string(), &rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("REPLICA STORE HAS DAMAGE"), std::string::npos) << out;

  out = run_tool("repl status " + (dir / "missing").string(), &rc);
  EXPECT_EQ(rc, 1) << out;
}

// Builds an archive through the tier layer: lzb codec, cold-tier fold
// every second delta. The payload is run-structured so codec negotiation
// accepts the coded frame.
void build_tiered_archive(const std::string& ctr, const std::string& snap) {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 256 * 1024;
  auto c = Container::open_file(ctr, o);
  snapshot::SnapshotOptions so;
  so.compact_every = 2;
  so.tier.codec = tier::kCodecLzb;
  so.tier.cold_enabled = true;
  snapshot::ArchiveWriter writer(snap, so);
  writer.attach(*c);
  for (int e = 0; e < 5; ++e) {
    c->annotate(c->data() + e * 512, 64);
    std::memset(c->data() + e * 512, 0x40 + e, 64);
    c->checkpoint();
  }
  writer.drain();
}

TEST_F(InspectTool, ArchiveListShowsCodecAndColdTier) {
  const auto& dir = case_dir_.path();
  const std::string snap = (dir / "a.snap").string();
  build_tiered_archive((dir / "a.ctr").string(), snap);

  int rc = -1;
  std::string out = run_tool("archive list " + snap, &rc);
  EXPECT_EQ(rc, 0) << out;
  // Coded frames name their codec and carry a compression ratio cell.
  EXPECT_NE(out.find("lzb"), std::string::npos) << out;
  EXPECT_NE(out.find("codec"), std::string::npos) << out;
  EXPECT_NE(out.find("ratio"), std::string::npos) << out;
  // The fold retired epochs into at least one cold base, listed alongside
  // the hot frames and summarized under the archive's .cold/ directory.
  EXPECT_NE(out.find("cold"), std::string::npos) << out;
  EXPECT_NE(out.find("cold tier:"), std::string::npos) << out;
  EXPECT_NE(out.find(tier::ColdTier::dir_for(snap)), std::string::npos)
      << out;
  EXPECT_NE(out.find("archive is fully intact"), std::string::npos) << out;
}

TEST_F(InspectTool, ArchiveVerifyFlagsColdTierDamage) {
  const auto& dir = case_dir_.path();
  const std::string snap = (dir / "a.snap").string();
  build_tiered_archive((dir / "a.ctr").string(), snap);

  // Corrupt a cold base: the hot archive is untouched, but a retired
  // epoch is no longer restorable, so verify must report damage.
  std::string cold_file;
  for (const auto& ent :
       std::filesystem::directory_iterator(tier::ColdTier::dir_for(snap))) {
    if (ent.path().extension() != ".tmp") cold_file = ent.path().string();
  }
  ASSERT_FALSE(cold_file.empty());
  flip_byte(cold_file, std::streamoff(sizeof(snapshot::ArchiveHeader) +
                                      sizeof(snapshot::FrameHeader) + 16));

  int rc = -1;
  std::string out = run_tool("archive verify " + snap, &rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("ARCHIVE HAS DAMAGE"), std::string::npos) << out;
  EXPECT_NE(out.find("cold epoch"), std::string::npos) << out;
}

// --- scrub subcommand ------------------------------------------------------

TEST_F(InspectTool, ScrubSweepExitCodesTrackDamage) {
  const auto& dir = case_dir_.path();
  const std::string snap = (dir / "a.snap").string();
  build_archive((dir / "a.ctr").string(), snap);

  // Healthy directory: exit 0, no findings, no quarantine markers.
  int rc = -1;
  std::string out = run_tool("scrub " + dir.string(), &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("0 findings"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(snap + ".quarantine"));

  // One flipped payload byte: exit 2, damage named, marker written.
  flip_byte(snap, std::streamoff(sizeof(snapshot::ArchiveHeader) +
                                 sizeof(snapshot::FrameHeader) + 16));
  out = run_tool("scrub " + dir.string(), &rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("DAMAGE"), std::string::npos) << out;
  EXPECT_TRUE(std::filesystem::exists(snap + ".quarantine"));

  // The marker keeps the verdict at exit 2 on re-runs.
  out = run_tool("scrub " + dir.string(), &rc);
  EXPECT_EQ(rc, 2) << out;

  // --no-quarantine still reports damage but leaves no new marker.
  std::filesystem::remove(snap + ".quarantine");
  out = run_tool("scrub " + dir.string() + " --no-quarantine", &rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_FALSE(std::filesystem::exists(snap + ".quarantine"));

  // Not a directory: usage-shaped failure, exit 1.
  out = run_tool("scrub " + (dir / "missing").string(), &rc);
  EXPECT_EQ(rc, 1) << out;
}

// --- kvd subcommand --------------------------------------------------------

// Builds a kvd-shaped data directory the way the daemon does: a KvService
// over <dir>, a few committed writes, then a crash-style drop.
void build_kvd_dir(const std::string& dir, uint64_t keys) {
  net::KvService::Config sc;
  sc.dir = dir;
  sc.capacity_bytes = 32 << 20;
  sc.buckets = 256;
  net::KvService svc(sc);
  for (uint64_t k = 0; k < keys; ++k) {
    svc.put(k, net::make_value(k, 1));
  }
  svc.flush();
}

TEST_F(InspectTool, KvdReportsEpochKeysAndRecoverySource) {
  const auto& dir = case_dir_.path();
  build_kvd_dir(dir.string(), 17);

  int rc = -1;
  std::string out = run_tool("kvd " + dir.string(), &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("committed epoch:   1"), std::string::npos) << out;
  EXPECT_NE(out.find("key count:         17"), std::string::npos) << out;
  EXPECT_NE(out.find("last recovery:     fresh"), std::string::npos) << out;
  EXPECT_NE(out.find("archive:           none"), std::string::npos) << out;
  EXPECT_NE(out.find("kvd data dir is consistent"), std::string::npos)
      << out;

  // Reopening is a local recovery; the marker must say so.
  build_kvd_dir(dir.string(), 0);
  out = run_tool("kvd " + dir.string(), &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("last recovery:     local"), std::string::npos) << out;
}

TEST_F(InspectTool, KvdRejectsNonKvdDirectories) {
  const auto dir = case_dir_.path() / "kvd";

  int rc = -1;
  std::string out = run_tool("kvd " + dir.string(), &rc);
  EXPECT_EQ(rc, 1) << out;  // not a directory at all

  std::filesystem::create_directories(dir);
  out = run_tool("kvd " + dir.string(), &rc);
  EXPECT_EQ(rc, 1) << out;  // directory without a container file
}

TEST_F(InspectTool, KvdFlagsDamagedContainer) {
  const auto& dir = case_dir_.path();
  build_kvd_dir(dir.string(), 5);

  // Scribble over the container magic: structural damage, exit 2.
  flip_byte((dir / "crpm-rank0.ctr").string(), 0);
  int rc = -1;
  std::string out = run_tool("kvd " + dir.string(), &rc);
  EXPECT_EQ(rc, 2) << out;
}

// --- stats subcommand ------------------------------------------------------

TEST_F(InspectTool, StatsSurfacesAsyncCounters) {
  int rc = -1;
  std::string out = run_tool("stats async", &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("committed epoch:   6"), std::string::npos) << out;
  // The fixed micro-workload exercises the whole async pipeline, so every
  // async counter must appear (and the countable ones must be nonzero).
  EXPECT_NE(out.find("async_captures=6"), std::string::npos) << out;
  EXPECT_NE(out.find("async_capture_ns="), std::string::npos) << out;
  EXPECT_NE(out.find("async_steal_copies="), std::string::npos) << out;
  EXPECT_EQ(out.find("async_steal_copies=0"), std::string::npos) << out;
  EXPECT_NE(out.find("async_inflight_hwm=1"), std::string::npos) << out;
  EXPECT_NE(out.find("async_flush_bytes="), std::string::npos) << out;
  EXPECT_EQ(out.find("async_flush_bytes=0 "), std::string::npos) << out;
  EXPECT_NE(out.find("async_backpressure_ns="), std::string::npos) << out;
}

TEST_F(InspectTool, StatsSyncModeHidesAsyncCounters) {
  int rc = -1;
  std::string out = run_tool("stats sync", &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("committed epoch:   6"), std::string::npos) << out;
  EXPECT_NE(out.find("epochs=6"), std::string::npos) << out;
  EXPECT_EQ(out.find("async_captures="), std::string::npos) << out;

  out = run_tool("stats bogus", &rc);
  EXPECT_EQ(rc, 64) << out;
}

TEST_F(InspectTool, StatsAdaptiveEngineShowsStrategyCounters) {
  int rc = -1;
  std::string out = run_tool("stats adaptive", &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("engine:            adaptive"), std::string::npos)
      << out;
  EXPECT_NE(out.find("committed epoch:   6"), std::string::npos) << out;
  // The fixed hot+scatter workload must leave both strategy populations
  // live and exercise every adaptive counter.
  EXPECT_NE(out.find("epochs=6"), std::string::npos) << out;
  EXPECT_NE(out.find("segments_log="), std::string::npos) << out;
  EXPECT_EQ(out.find("segments_log=0 "), std::string::npos) << out;
  EXPECT_NE(out.find("segments_cow="), std::string::npos) << out;
  EXPECT_EQ(out.find("segments_cow=0 "), std::string::npos) << out;
  EXPECT_NE(out.find("transitions_to_cow="), std::string::npos) << out;
  EXPECT_EQ(out.find("transitions_to_cow=0 "), std::string::npos) << out;
  EXPECT_NE(out.find("midepoch_promotions="), std::string::npos) << out;
  EXPECT_EQ(out.find("midepoch_promotions=0 "), std::string::npos) << out;
  EXPECT_NE(out.find("decisions="), std::string::npos) << out;
  EXPECT_NE(out.find("log_entries="), std::string::npos) << out;
  EXPECT_NE(out.find("segment_preimages="), std::string::npos) << out;
  EXPECT_NE(out.find("checkpoint_bytes="), std::string::npos) << out;
}

TEST_F(InspectTool, StatsFixedEnginesReportSingleStrategy) {
  int rc = -1;
  std::string out = run_tool("stats foca", &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("engine:            foca"), std::string::npos) << out;
  EXPECT_NE(out.find("segments_log=0 "), std::string::npos) << out;
  EXPECT_EQ(out.find("segments_cow=0 "), std::string::npos) << out;

  out = run_tool("stats undolog", &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("engine:            undolog"), std::string::npos)
      << out;
  EXPECT_NE(out.find("segments_cow=0 "), std::string::npos) << out;
  EXPECT_EQ(out.find("log_entries=0 "), std::string::npos) << out;

  // Extra operands fall through to usage, same as an unknown mode.
  run_tool("stats adaptive extra", &rc);
  EXPECT_EQ(rc, 64);
}

}  // namespace
}  // namespace crpm
