// Property test for async checkpointing: seeded random interleavings of
// ops / capture / commit (wait_committed at random epoch boundaries), each
// checked bit-identical against the DRAM golden model — once on a live
// container at every commit point, and once through the crash matrix's
// oracle at randomly drawn crash events, where the recovered epoch must be
// a legal bound ({last known, +1}) and its image must equal the golden
// model of exactly that epoch. Reuses the chaos harness's exported
// workload/golden helpers so "bit-identical" means the same thing here and
// in the crash matrix.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/container.h"
#include "nvm/crash_sim.h"
#include "nvm/device.h"
#include "util/rng.h"

namespace crpm {
namespace {

using chaos::GoldenModel;
using chaos::MatrixConfig;

MatrixConfig property_config(uint64_t seed) {
  MatrixConfig cfg;
  cfg.scenario = "core-async";
  cfg.seed = seed;
  cfg.epochs = 4;
  cfg.ops_per_epoch = 40;
  return cfg;
}

CrpmOptions property_opts() {
  CrpmOptions o = chaos::scenario_options(/*buffered=*/false);
  o.async_checkpoint = true;
  o.async_workers = 0;  // cooperative: deterministic event stream
  return o;
}

// The interleaving under test, drawn up-front so the census pass and every
// injected pass replay the identical schedule: wait_after[e] inserts a
// full commit barrier after epoch e's capture, otherwise the window drains
// through the next epoch's steals and backpressure.
std::vector<bool> draw_schedule(uint64_t seed, uint64_t epochs) {
  Xoshiro256 rng(seed ^ 0xa5a5a5a5ull);
  std::vector<bool> wait_after(epochs + 1, false);
  for (uint64_t e = 1; e <= epochs; ++e) wait_after[e] = rng.next() & 1;
  return wait_after;
}

// Live-container property: after every commit the working state IS the
// golden image of that epoch (no pending window hides or leaks stores).
TEST(AsyncProperty, EveryCommitPointMatchesGolden) {
  for (uint64_t seed : {3u, 17u, 29u, 41u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MatrixConfig cfg = property_config(seed);
    const CrpmOptions opt = property_opts();
    const GoldenModel g =
        chaos::golden_model(cfg, opt.main_region_size, cfg.epochs);
    const std::vector<bool> wait_after = draw_schedule(seed, cfg.epochs);

    HeapNvmDevice dev(Container::required_device_size(opt));
    auto c = Container::open(&dev, opt);
    std::string why;
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      chaos::apply_golden_epoch(cfg, *c, e);
      c->checkpoint();
      // Even before the commit, the *working* state is already epoch e's
      // image — capture does not mutate application data.
      ASSERT_TRUE(chaos::matches_golden(*c, g, e, &why)) << why;
      if (wait_after[e]) {
        c->wait_committed();
        ASSERT_EQ(c->committed_epoch(), e);
        ASSERT_TRUE(chaos::matches_golden(*c, g, e, &why)) << why;
      } else {
        ASSERT_LT(c->committed_epoch(), e);
      }
    }
    c->wait_committed();
    ASSERT_EQ(c->committed_epoch(), cfg.epochs);
    ASSERT_TRUE(chaos::matches_golden(*c, g, cfg.epochs, &why)) << why;
  }
}

// Crash property: at a random sample of persistence events of the same
// interleavings, the recovered epoch is within the legal bound and its
// main region is bit-identical to the golden model at that epoch; the run
// then continues to completion and must land on the final golden image.
TEST(AsyncProperty, RandomCrashPointsRecoverBitIdentical) {
  for (uint64_t seed : {5u, 23u, 37u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MatrixConfig cfg = property_config(seed);
    const CrpmOptions opt = property_opts();
    const GoldenModel g =
        chaos::golden_model(cfg, opt.main_region_size, cfg.epochs);
    const std::vector<bool> wait_after = draw_schedule(seed, cfg.epochs);

    auto run_epochs = [&](Container& c, uint64_t from, uint64_t* last) {
      for (uint64_t e = from; e <= cfg.epochs; ++e) {
        chaos::apply_golden_epoch(cfg, c, e);
        c.checkpoint();  // guarantees only epoch e-1 (via backpressure)
        if (*last < e - 1) *last = e - 1;
        if (wait_after[e]) {
          c.wait_committed();
          *last = e;
        }
      }
      c.wait_committed();
      *last = cfg.epochs;
    };

    // Census pass: how many events does this schedule emit?
    uint64_t total = 0;
    {
      CrashSimDevice dev(Container::required_device_size(opt));
      std::vector<const char*> tags;
      dev.set_event_recorder(&tags);
      auto c = Container::open(&dev, opt);
      uint64_t last = 0;
      run_epochs(*c, 1, &last);
      c.reset();
      dev.set_event_recorder(nullptr);
      total = tags.size();
    }
    ASSERT_GT(total, 0u);

    Xoshiro256 pick(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (int trial = 0; trial < 24; ++trial) {
      const uint64_t event = pick.next_below(total);
      const CrashPolicy policy =
          std::array<CrashPolicy, 3>{CrashPolicy::kDropPending,
                                     CrashPolicy::kCommitPending,
                                     CrashPolicy::kRandomPending}[pick.next() %
                                                                  3];
      SCOPED_TRACE("event " + std::to_string(event));

      CrashSimDevice dev(Container::required_device_size(opt));
      dev.arm_crash_at_event(event);
      std::unique_ptr<Container> c;
      uint64_t last = 0;
      bool crashed = false;
      try {
        c = Container::open(&dev, opt);
        run_epochs(*c, 1, &last);
      } catch (const SimulatedCrash&) {
        crashed = true;
      }
      if (!crashed) {
        dev.disarm();
        ASSERT_EQ(c->committed_epoch(), cfg.epochs);
        continue;
      }

      // Process death discards the captured-but-uncommitted window.
      c.reset();
      Xoshiro256 rng(seed ^ (event * 0x2545f4914f6cdd1dULL));
      dev.crash_and_restart(policy, rng);
      c = Container::open(&dev, opt);
      const uint64_t recovered = c->committed_epoch();
      ASSERT_TRUE(recovered == last || recovered == last + 1)
          << "recovered epoch " << recovered << " but last known commit was "
          << last;
      std::string why;
      ASSERT_TRUE(chaos::matches_golden(*c, g, recovered, &why)) << why;

      // Recovery composes with forward progress.
      uint64_t last2 = recovered;
      run_epochs(*c, recovered + 1, &last2);
      ASSERT_EQ(c->committed_epoch(), cfg.epochs);
      ASSERT_TRUE(chaos::matches_golden(*c, g, cfg.epochs, &why)) << why;
    }
  }
}

}  // namespace
}  // namespace crpm
