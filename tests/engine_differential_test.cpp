// Cross-engine differential test harness (DESIGN.md section 14).
//
// One seeded, deterministic workload is replayed through every checkpoint
// engine (foca, undolog, pagecow, adaptive) and through a DRAM golden
// model, and the recovered state must be bit-identical to the golden image
// in three legs:
//
//   * clean close + reopen           window == golden at the final epoch
//   * crash at a seed-chosen epoch   window == golden at the last commit,
//     (CrashSimDevice power cut        then the replay continues to the
//     mid-epoch), and again in         final epoch and must still match
//     epoch 0, before any commit
//   * archive restore                foca (a Container, the engine
//                                      that speaks the epoch-sink
//                                      protocol) round-trips through
//                                      ArchiveWriter + restore()
//
// On a mismatch the harness shrinks the failing configuration (halving
// epochs and ops per epoch while the failure reproduces) and prints a
// one-line reproducer. The planted adaptive-engine transition bug
// (kFaultAdaptiveSkipTransitionFlush, core/faults.h) doubles as the
// harness's sensitivity proof: with the fault armed, the crash leg MUST
// fail and MUST still fail after shrinking.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "case_dir.h"
#include "core/container.h"
#include "core/faults.h"
#include "engines/engine.h"
#include "nvm/crash_sim.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRPM_ENGINE_DIFF_SANITIZED 1
#endif
#if !defined(CRPM_ENGINE_DIFF_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRPM_ENGINE_DIFF_SANITIZED 1
#endif
#endif

namespace crpm::engines {
namespace {

constexpr uint64_t kSeg = 1024;
constexpr uint64_t kRegion = 16 * 1024;

struct DiffConfig {
  uint64_t seed = 1;
  uint32_t epochs = 8;
  uint32_t ops_per_epoch = 96;
  // Engine opened with the planted transition fault ("" = none).
  std::string fault_engine;
};

CrpmOptions small_opts(const std::string& engine) {
  CrpmOptions opt;
  opt.segment_size = kSeg;
  opt.block_size = 128;
  opt.main_region_size = kRegion;
  opt.eager_cow_segments = 4;
  opt.engine = engine;
  return opt;
}

std::vector<std::string> diff_engines() {
  std::vector<std::string> v = {"foca", "undolog", "adaptive"};
#if !defined(CRPM_ENGINE_DIFF_SANITIZED)
  // The pagecow engine resolves writes in a SIGSEGV handler (mprotect
  // tracer); ASan/TSan install their own SEGV interception, so the
  // OS-traced engine runs only in plain builds.
  v.push_back("pagecow");
#endif
  return v;
}

// One deterministic epoch of writes: most aimed at a rotating hot segment
// (drives the adaptive engine dense, including mid-epoch promotions), a
// light uniform scatter over the window (1 op in 8 — heavier scatter on a
// 16 KB region dirties half of every segment's blocks and drives ALL
// segments dense, leaving no sparse/LOG population at all). The epoch's
// stream depends only on (seed, epoch), so a replay after a rollback
// regenerates the exact same stores.
void run_epoch(Engine* e, std::vector<uint8_t>* golden, uint64_t seed,
               uint64_t epoch, uint32_t ops) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + epoch);
  uint8_t* w = e->data();
  const uint64_t cap = golden->size();
  const uint64_t hot = (epoch % (cap / kSeg)) * kSeg;
  for (uint32_t op = 0; op < ops; ++op) {
    uint64_t off = (op % 8 != 7) ? hot + rng.next_below(kSeg / 8) * 8
                                 : rng.next_below(cap / 8) * 8;
    uint64_t v = rng.next() | 1;
    e->annotate(w + off, sizeof(v));
    std::memcpy(w + off, &v, sizeof(v));
    std::memcpy(golden->data() + off, &v, sizeof(v));
  }
}

uint64_t root_for_epoch(uint64_t epoch) { return (epoch * 8) % kRegion; }

// The planted faults to arm while opening engine `name` under `cfg`.
uint32_t fault_for(const DiffConfig& cfg, const std::string& name) {
  return cfg.fault_engine == name ? kFaultAdaptiveSkipTransitionFlush : 0u;
}

std::string first_diff(const uint8_t* a, const uint8_t* b, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "first diff at offset %llu: %02x != %02x",
                    (unsigned long long)i, a[i], b[i]);
      return buf;
    }
  }
  return "identical";
}

struct Failure {
  std::string engine;
  std::string leg;
  std::string detail;
  std::string to_string() const { return engine + "/" + leg + ": " + detail; }
};

#define DIFF_EXPECT(cond, eng, leg, det)            \
  do {                                              \
    if (!(cond)) return Failure{(eng), (leg), (det)}; \
  } while (0)

// Clean-close leg. On success *final_image receives the window bytes at
// the last epoch for the cross-engine comparison.
std::optional<Failure> run_clean(const DiffConfig& cfg,
                                 const std::string& name,
                                 std::vector<uint8_t>* final_image) {
  const CrpmOptions opt = small_opts(name);
  FaultScope armed(fault_for(cfg, name));
  CrashSimDevice dev(engine_device_size(opt));
  std::vector<uint8_t> golden(kRegion, 0);
  uint64_t base = 0;
  {
    auto e = open_engine(&dev, opt);
    base = e->committed_epoch();
    for (uint32_t ep = 0; ep < cfg.epochs; ++ep) {
      run_epoch(e.get(), &golden, cfg.seed, ep, cfg.ops_per_epoch);
      e->set_root(1, root_for_epoch(ep));
      e->checkpoint();
    }
    DIFF_EXPECT(e->committed_epoch() == base + cfg.epochs, name, "clean",
                "committed epoch did not advance once per checkpoint");
    DIFF_EXPECT(std::memcmp(e->data(), golden.data(), kRegion) == 0, name,
                "clean", first_diff(e->data(), golden.data(), kRegion));
  }
  auto e2 = open_engine(&dev, opt);
  DIFF_EXPECT(e2->committed_epoch() == base + cfg.epochs, name, "reopen",
              "committed epoch changed across clean close");
  DIFF_EXPECT(std::memcmp(e2->data(), golden.data(), kRegion) == 0, name,
              "reopen", first_diff(e2->data(), golden.data(), kRegion));
  DIFF_EXPECT(e2->get_root(1) == root_for_epoch(cfg.epochs - 1), name,
              "reopen", "root slot lost across clean close");
  if (final_image != nullptr) {
    final_image->assign(e2->data(), e2->data() + kRegion);
  }
  return std::nullopt;
}

// Crash leg over `e`, freshly opened on `dev`: commit `crash_epoch`
// epochs (seed-chosen in [1, epochs) by default; 0 crashes before the
// first commit), run one more epoch's writes WITHOUT a checkpoint,
// power-cut the device, reopen, and demand exactly the last committed
// state — for epoch 0 the zero-filled window. Then replay the remaining
// epochs and demand the final golden image — a recovery that only looks
// right must still support the rest of the run.
std::optional<Failure> crash_leg(const DiffConfig& cfg,
                                 const std::string& name,
                                 CrashSimDevice& dev,
                                 std::unique_ptr<Engine> e,
                                 CrashPolicy policy,
                                 std::optional<uint32_t> at = std::nullopt) {
  const CrpmOptions opt = small_opts(name);
  Xoshiro256 meta_rng(cfg.seed ^ 0xc2b2ae3d27d4eb4full);
  uint32_t crash_epoch =
      1 + static_cast<uint32_t>(meta_rng.next_below(cfg.epochs - 1));
  if (at.has_value()) crash_epoch = *at;
  std::vector<uint8_t> golden(kRegion, 0);
  uint64_t base = 0;
  {
    base = e->committed_epoch();
    for (uint32_t ep = 0; ep < crash_epoch; ++ep) {
      run_epoch(e.get(), &golden, cfg.seed, ep, cfg.ops_per_epoch);
      e->set_root(1, root_for_epoch(ep));
      e->checkpoint();
    }
    std::vector<uint8_t> scratch = golden;  // partial epoch, never commits
    run_epoch(e.get(), &scratch, cfg.seed, crash_epoch, cfg.ops_per_epoch);
    e.reset();
  }
  dev.crash_and_restart(policy, meta_rng);
  e = open_engine(&dev, opt);
  DIFF_EXPECT(e->committed_epoch() == base + crash_epoch, name, "crash",
              "recovered to a different epoch than the last commit");
  DIFF_EXPECT(std::memcmp(e->data(), golden.data(), kRegion) == 0, name,
              "crash", first_diff(e->data(), golden.data(), kRegion));
  const uint64_t want_root =
      crash_epoch == 0 ? 0 : root_for_epoch(crash_epoch - 1);
  DIFF_EXPECT(e->get_root(1) == want_root, name, "crash",
              "root slot diverged from the recovered epoch");
  for (uint32_t ep = crash_epoch; ep < cfg.epochs; ++ep) {
    run_epoch(e.get(), &golden, cfg.seed, ep, cfg.ops_per_epoch);
    e->set_root(1, root_for_epoch(ep));
    e->checkpoint();
  }
  DIFF_EXPECT(std::memcmp(e->data(), golden.data(), kRegion) == 0, name,
              "crash-continue",
              first_diff(e->data(), golden.data(), kRegion));
  return std::nullopt;
}

std::optional<Failure> run_crash(const DiffConfig& cfg,
                                 const std::string& name, CrashPolicy policy,
                                 std::optional<uint32_t> at = std::nullopt) {
  const CrpmOptions opt = small_opts(name);
  FaultScope armed(fault_for(cfg, name));
  CrashSimDevice dev(engine_device_size(opt));
  return crash_leg(cfg, name, dev, open_engine(&dev, opt), policy, at);
}

// Full differential sweep: clean + crash legs (seeded epoch and epoch 0)
// per engine, then the cross-engine comparison of the final images.
std::optional<Failure> run_all(const DiffConfig& cfg) {
  std::vector<std::vector<uint8_t>> images;
  std::vector<std::string> names = diff_engines();
  for (const std::string& name : names) {
    std::vector<uint8_t> image;
    if (auto f = run_clean(cfg, name, &image)) return f;
    images.push_back(std::move(image));
    if (auto f = run_crash(cfg, name, CrashPolicy::kDropPending)) return f;
    if (auto f = run_crash(cfg, name, CrashPolicy::kDropPending, 0)) return f;
  }
  for (size_t i = 1; i < images.size(); ++i) {
    DIFF_EXPECT(images[i] == images[0], names[i], "cross-engine",
                "final image differs from " + names[0] + " (" +
                    first_diff(images[i].data(), images[0].data(), kRegion) +
                    ")");
  }
  return std::nullopt;
}

std::string reproducer(const DiffConfig& cfg) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "engine_differential seed=%llu epochs=%u ops=%u fault=%s",
                (unsigned long long)cfg.seed, cfg.epochs, cfg.ops_per_epoch,
                cfg.fault_engine.empty() ? "-" : cfg.fault_engine.c_str());
  return buf;
}

// Halve epochs and ops while the failure still reproduces.
DiffConfig shrink(DiffConfig cfg) {
  for (;;) {
    bool reduced = false;
    DiffConfig half = cfg;
    half.epochs = cfg.epochs / 2;
    if (half.epochs >= 2 && run_all(half).has_value()) {
      cfg = half;
      reduced = true;
    }
    half = cfg;
    half.ops_per_epoch = cfg.ops_per_epoch / 2;
    if (half.ops_per_epoch >= 4 && run_all(half).has_value()) {
      cfg = half;
      reduced = true;
    }
    if (!reduced) return cfg;
  }
}

TEST(EngineDifferential, AllEnginesMatchGoldenAcrossSeeds) {
  for (uint64_t seed : {1ull, 7ull, 1234ull}) {
    DiffConfig cfg;
    cfg.seed = seed;
    auto f = run_all(cfg);
    if (f.has_value()) {
      DiffConfig small = shrink(cfg);
      FAIL() << f->to_string() << "\nreproducer: " << reproducer(small);
    }
  }
}

TEST(EngineDifferential, SurvivesPartiallyDrainedWritePendingQueue) {
  // kRandomPending lets each staged-but-unfenced line independently reach
  // media, modelling an ADR drain cut short — the adversarial sibling of
  // the kDropPending leg in run_all.
  for (uint64_t seed : {3ull, 11ull}) {
    for (const std::string& name : diff_engines()) {
      DiffConfig cfg;
      cfg.seed = seed;
      auto f = run_crash(cfg, name, CrashPolicy::kRandomPending);
      ASSERT_FALSE(f.has_value()) << f->to_string();
    }
  }
}

TEST(EngineDifferential, ArchiveRestoreMatchesGolden) {
  CaseDir dir;
  DiffConfig cfg;
  for (const std::string& name : diff_engines()) {
    const CrpmOptions opt = small_opts(name);
    const std::string archive = dir.file("engine_diff_" + name + ".crpmarc");
    CrashSimDevice dev(engine_device_size(opt));
    auto e = open_engine(&dev, opt);
    auto* c = dynamic_cast<Container*>(e.get());
    if (c == nullptr) {
      // Only the Container speaks the epoch-sink protocol.
      EXPECT_NE(name, "foca");
      continue;
    }
    snapshot::ArchiveWriter writer(archive, {});
    writer.attach(*c);
    std::vector<uint8_t> golden(kRegion, 0);
    for (uint32_t ep = 0; ep < cfg.epochs; ++ep) {
      run_epoch(e.get(), &golden, cfg.seed, ep, cfg.ops_per_epoch);
      e->set_root(1, root_for_epoch(ep));
      e->checkpoint();
    }
    writer.drain();
    c->set_epoch_sink(nullptr);
    e.reset();

    auto rdev = std::make_unique<HeapNvmDevice>(
        Container::required_device_size(opt));
    auto r = snapshot::restore(archive, Container::kLatestEpoch,
                               std::move(rdev), opt);
    ASSERT_NE(r.container, nullptr) << name << ": " << r.error;
    EXPECT_EQ(0, std::memcmp(r.container->data(), golden.data(), kRegion))
        << name << ": "
        << first_diff(r.container->data(), golden.data(), kRegion);
    EXPECT_EQ(root_for_epoch(cfg.epochs - 1), r.container->get_root(1));
  }
}

TEST(EngineDifferential, FocaIsTheContainer) {
  // Async cooperative mode: checkpoint() only captures, and the epoch
  // commits inside wait_committed() — which must dispatch through Engine&.
  CrpmOptions opt = small_opts("foca");
  opt.async_checkpoint = true;
  opt.async_workers = 0;
  HeapNvmDevice dev(engine_device_size(opt));
  std::unique_ptr<Engine> owned = open_engine(&dev, opt);
  ASSERT_NE(dynamic_cast<Container*>(owned.get()), nullptr);
  Engine& e = *owned;
  EXPECT_STREQ("foca", e.name());
  std::vector<uint8_t> golden(kRegion, 0);
  run_epoch(&e, &golden, /*seed=*/1, /*epoch=*/0, /*ops=*/32);
  e.checkpoint();
  EXPECT_EQ(0u, e.committed_epoch());
  e.wait_committed();
  EXPECT_EQ(1u, e.committed_epoch());
  EXPECT_EQ(0, std::memcmp(e.data(), golden.data(), kRegion));
  EXPECT_EQ(1u, e.counters().epochs);
  EXPECT_EQ(kRegion / kSeg, e.counters().segments_cow);
}

TEST(EngineDifferential, PlantedFaultLatchesWhenTheEngineOpens) {
  // The adaptive engine opened inside the scope keeps the fault after the
  // scope closes and trips the crash oracle; the one opened after the
  // scope never sees it.
  DiffConfig cfg;
  cfg.seed = 7;
  const CrpmOptions opt = small_opts("adaptive");
  CrashSimDevice armed_dev(engine_device_size(opt));
  CrashSimDevice clean_dev(engine_device_size(opt));
  std::unique_ptr<Engine> armed;
  {
    FaultScope scope(kFaultAdaptiveSkipTransitionFlush);
    armed = open_engine(&armed_dev, opt);
  }
  auto clean = open_engine(&clean_dev, opt);
  EXPECT_TRUE(crash_leg(cfg, "adaptive", armed_dev, std::move(armed),
                        CrashPolicy::kDropPending)
                  .has_value());
  auto f = crash_leg(cfg, "adaptive", clean_dev, std::move(clean),
                     CrashPolicy::kDropPending);
  EXPECT_FALSE(f.has_value()) << f->to_string();
}

TEST(EngineDifferential, PlantedFaultLatchesWhenTheContainerOpens) {
  // With kFaultFlipBeforeCopy latched, a copy-on-write persists the
  // seg_state flip before its data copy; a container opened after the
  // scope keeps the Figure 6 order (data, then flip).
  CrpmOptions opt = small_opts("foca");
  opt.eager_cow_segments = 0;  // every CoW runs on the write path
  auto first_cow_site = [&](std::unique_ptr<Engine> e, CrashSimDevice& dev) {
    std::vector<uint8_t> golden(kRegion, 0);
    run_epoch(e.get(), &golden, /*seed=*/1, /*epoch=*/0, /*ops=*/8);
    e->checkpoint();
    std::vector<const char*> tags;
    dev.set_event_recorder(&tags);
    run_epoch(e.get(), &golden, /*seed=*/1, /*epoch=*/0, /*ops=*/8);
    dev.set_event_recorder(nullptr);
    for (const char* t : tags) {
      const std::string site = t != nullptr ? t : "";
      if (site == "cow.flip" || site == "cow.data") return site;
    }
    return std::string("none");
  };
  CrashSimDevice armed_dev(engine_device_size(opt));
  CrashSimDevice clean_dev(engine_device_size(opt));
  std::unique_ptr<Engine> armed;
  {
    FaultScope scope(kFaultFlipBeforeCopy);
    armed = open_engine(&armed_dev, opt);
  }
  auto clean = open_engine(&clean_dev, opt);
  EXPECT_EQ("cow.flip", first_cow_site(std::move(armed), armed_dev));
  EXPECT_EQ("cow.data", first_cow_site(std::move(clean), clean_dev));
}

TEST(EngineDifferential, PlantedTransitionFaultIsFoundAndShrinks) {
  // Sensitivity proof: with the adaptive engine's transition fault
  // planted, the harness MUST catch the torn promotion pre-image in its
  // crash leg — and the shrinker must hand back a smaller reproducer that
  // still fails.
  DiffConfig cfg;
  cfg.seed = 7;
  cfg.fault_engine = "adaptive";
  auto f = run_all(cfg);
  ASSERT_TRUE(f.has_value())
      << "planted fault escaped the differential harness";
  EXPECT_EQ("adaptive", f->engine) << f->to_string();
  DiffConfig small = shrink(cfg);
  EXPECT_LE(small.epochs * small.ops_per_epoch,
            cfg.epochs * cfg.ops_per_epoch);
  auto still = run_all(small);
  ASSERT_TRUE(still.has_value()) << "shrunk config no longer fails";
  SCOPED_TRACE(reproducer(small));
}

TEST(EngineDifferential, ConcurrentDisjointWriters) {
  // Two writers on disjoint halves of the window, instrumented engines
  // only (the pagecow tracer resolves faults per thread but the harness
  // keeps it out of the MT leg — its SEGV path is exercised enough
  // single-threaded). HeapNvmDevice: the MT leg is about annotate()
  // thread-safety, not crash states.
  for (const std::string& name : {std::string("foca"), std::string("undolog"),
                                  std::string("adaptive")}) {
    CrpmOptions opt = small_opts(name);
    HeapNvmDevice dev(engine_device_size(opt));
    auto e = open_engine(&dev, opt);
    std::vector<uint8_t> golden(kRegion, 0);
    for (uint32_t ep = 0; ep < 4; ++ep) {
      auto writer = [&](uint64_t half) {
        Xoshiro256 rng(0x5eedull * (half + 1) + ep);
        uint8_t* w = e->data() + half * (kRegion / 2);
        uint8_t* g = golden.data() + half * (kRegion / 2);
        for (uint32_t op = 0; op < 64; ++op) {
          uint64_t off = rng.next_below(kRegion / 2 / 8) * 8;
          uint64_t v = rng.next() | 1;
          e->annotate(w + off, sizeof(v));
          std::memcpy(w + off, &v, sizeof(v));
          std::memcpy(g + off, &v, sizeof(v));
        }
      };
      std::thread t0(writer, 0);
      std::thread t1(writer, 1);
      t0.join();
      t1.join();
      e->checkpoint();
    }
    EXPECT_EQ(0, std::memcmp(e->data(), golden.data(), kRegion)) << name;
  }
}

TEST(EngineDifferential, AdaptiveCountersTrackStrategyChanges) {
  CrpmOptions opt = small_opts("adaptive");
  HeapNvmDevice dev(engine_device_size(opt));
  auto e = open_engine(&dev, opt);
  std::vector<uint8_t> golden(kRegion, 0);
  for (uint32_t ep = 0; ep < 8; ++ep) {
    run_epoch(e.get(), &golden, /*seed=*/5, ep, /*ops=*/96);
    e->checkpoint();
  }
  EngineCounters c = e->counters();
  EXPECT_EQ(8u, c.epochs);
  EXPECT_GT(c.transitions_to_cow, 0u);
  EXPECT_GT(c.midepoch_promotions, 0u) << c.to_string();
  EXPECT_GT(c.transitions_to_log, 0u)
      << "rotating hot segment never demoted: " << c.to_string();
  EXPECT_GT(c.log_entries, 0u);
  EXPECT_GT(c.segment_preimages, 0u);
  EXPECT_GT(c.decisions, 0u);
  // Raw data area = window + one page of root reserve, all segment-tracked.
  EXPECT_EQ(c.segments_log + c.segments_cow, (kRegion + 4096) / kSeg);
}

}  // namespace
}  // namespace crpm::engines
