// Crash-matrix scenarios: deterministic workloads + invariant oracles.
//
// Every scenario follows the same shape: a seeded multi-epoch write
// workload whose committed images are precomputed into a golden model
// (epoch e's ops are a pure function of (seed, e), so re-running epoch e
// on a container holding golden[e-1] reproduces golden[e] — which is what
// lets an injected run continue past recovery and re-verify the final
// state). The crash axis is the flattened persistence-event enumeration:
// device events (clwb / sfence / NT line / wbinvd, recorded by
// CrashSimDevice with PersistSiteScope tags) first, then — for scenarios
// with an archive — the writer's file operations (ArchiveWriter
// FileOpHook sites), domain-major so an index maps to one deterministic
// injection no matter how the writer thread interleaves in real time.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include <fstream>

#include "apps/state_store.h"
#include "chaos/chaos.h"
#include "comm/channel.h"
#include "core/container.h"
#include "core/faults.h"
#include "engines/engine.h"
#include "repl/replica_store.h"
#include "repl/replicator.h"
#include "scrub/scrubber.h"
#include "snapshot/archive.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "tier/cold.h"
#include "tier/codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace crpm::chaos {

namespace {

namespace fs = std::filesystem;

// Small geometry: every persistence event of a multi-epoch run stays
// enumerable in seconds, while CoW, eager CoW, wbinvd, parity detach and
// backup pairing all still trigger (mirrors crash_injection_test).
CrpmOptions scenario_opts(bool buffered) {
  CrpmOptions o;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 16 * 1024;
  o.eager_cow_segments = 4;
  o.wbinvd_threshold = 8 * 1024;
  o.buffered = buffered;
  return o;
}

// Epoch e's write ops, replayable against any target through `write`.
template <typename W>
void apply_epoch(const MatrixConfig& cfg, uint64_t region_size,
                 uint64_t epoch, W&& write) {
  Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + epoch);
  const uint64_t cells = region_size / 8;
  for (uint64_t op = 0; op < cfg.ops_per_epoch; ++op) {
    uint64_t cell = rng.next_below(cells);
    uint64_t v = rng.next() | 1;  // never store 0: distinguishable from init
    write(cell * 8, v);
  }
}

struct Golden {
  std::vector<std::vector<uint8_t>> at;  // at[e] = committed image of e
};

Golden make_golden(const MatrixConfig& cfg, uint64_t region_size,
                   uint64_t max_epoch) {
  Golden g;
  g.at.resize(max_epoch + 1);
  g.at[0].assign(region_size, 0);
  for (uint64_t e = 1; e <= max_epoch; ++e) {
    g.at[e] = g.at[e - 1];
    apply_epoch(cfg, region_size, e, [&](uint64_t off, uint64_t v) {
      std::memcpy(g.at[e].data() + off, &v, 8);
    });
  }
  return g;
}

void apply_epoch_to_container(const MatrixConfig& cfg, Container& c,
                              uint64_t epoch) {
  apply_epoch(cfg, c.capacity(), epoch, [&](uint64_t off, uint64_t v) {
    c.annotate(c.data() + off, 8);
    std::memcpy(c.data() + off, &v, 8);
  });
  c.set_root(0, epoch);
}

bool image_matches(const uint8_t* have, const std::vector<uint8_t>& want,
                   const char* what, uint64_t epoch, std::string* why) {
  if (std::memcmp(have, want.data(), want.size()) == 0) return true;
  uint64_t off = 0;
  while (off < want.size() && have[off] == want[off]) ++off;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s diverges from golden epoch %llu at byte %llu "
                "(have 0x%02x want 0x%02x)",
                what, (unsigned long long)epoch, (unsigned long long)off,
                have[off], want[off]);
  *why = buf;
  return false;
}

// Epoch + image + root oracle after a reopen. `last_committed` is the
// newest epoch whose commit the pre-crash run observed; a crash inside
// the next checkpoint may legally land up to `max_ahead` past it (1 for
// the single-window protocol; the in-flight window count for the
// multi-window pipeline, where a crash mid-drain can have joined any
// prefix of the open windows).
bool check_recovered(Container& c, const Golden& g, uint64_t last_committed,
                     std::string* why, uint64_t max_ahead = 1) {
  uint64_t e = c.committed_epoch();
  if (e < last_committed || e > last_committed + max_ahead) {
    *why = "recovered epoch " + std::to_string(e) +
           " but last observed commit was " + std::to_string(last_committed) +
           " (max ahead " + std::to_string(max_ahead) + ")";
    return false;
  }
  if (e >= g.at.size()) {
    *why = "recovered epoch " + std::to_string(e) + " beyond the run's " +
           std::to_string(g.at.size() - 1) + " epochs";
    return false;
  }
  if (!image_matches(c.data(), g.at[e], "main region", e, why)) return false;
  if (c.get_root(0) != e) {
    *why = "root slot 0 is " + std::to_string(c.get_root(0)) +
           " after recovering epoch " + std::to_string(e);
    return false;
  }
  return true;
}

// Archive / replica-chain oracle: every restorable epoch must be
// bit-identical to its golden image (with its committed root), and no
// archived epoch may exceed `max_epoch` (deltas are staged pre-commit, so
// the newest may be one ahead of the container — callers pass
// last_committed + 1).
bool check_chain_prefix(const std::string& path, const Golden& g,
                        uint64_t max_epoch, const char* what,
                        std::string* why) {
  if (!fs::exists(path)) return true;  // never written: an empty prefix
  snapshot::ArchiveReader reader(path);
  if (!reader.ok()) {
    *why = std::string(what) + " " + path + ": header unreadable";
    return false;
  }
  for (const auto& info : reader.scan().epochs) {
    if (info.epoch > max_epoch) {
      *why = std::string(what) + " holds epoch " +
             std::to_string(info.epoch) + " beyond reachable epoch " +
             std::to_string(max_epoch);
      return false;
    }
  }
  for (uint64_t e = 1; e <= max_epoch && e < g.at.size(); ++e) {
    if (!reader.restorable(e)) continue;
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    std::string err;
    if (!reader.state_at(e, &image, &roots, &err)) {
      *why = std::string(what) + " epoch " + std::to_string(e) +
             " restorable but unreadable: " + err;
      return false;
    }
    if (!image_matches(image.data(), g.at[e], what, e, why)) return false;
    if (roots[0] != e) {
      *why = std::string(what) + " epoch " + std::to_string(e) +
             " carries root " + std::to_string(roots[0]);
      return false;
    }
  }
  return true;
}

// Cold-tier oracle: every cold base beside `path` must be a readable
// one-frame archive whose state is bit-identical to its golden epoch, and
// no cold base may hold an unreachable epoch. A mid-store kill leaves only
// the tmp file behind (never listed), so a listed entry has no excuse.
bool check_cold_tier(const std::string& path, const Golden& g,
                     uint64_t max_epoch, std::string* why) {
  for (const auto& e : tier::ColdTier::list_for_archive(path)) {
    if (e.epoch > max_epoch) {
      *why = "cold tier holds epoch " + std::to_string(e.epoch) +
             " beyond reachable epoch " + std::to_string(max_epoch);
      return false;
    }
    snapshot::ArchiveReader reader(e.path);
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    std::string err;
    if (!reader.ok() || !reader.state_at(e.epoch, &image, &roots, &err)) {
      *why = "cold base for epoch " + std::to_string(e.epoch) +
             " unreadable: " + err;
      return false;
    }
    if (e.epoch >= g.at.size()) continue;
    if (!image_matches(image.data(), g.at[e.epoch], "cold base", e.epoch,
                       why)) {
      return false;
    }
    if (roots[0] != e.epoch) {
      *why = "cold base epoch " + std::to_string(e.epoch) +
             " carries root " + std::to_string(roots[0]);
      return false;
    }
  }
  return true;
}

// Per-event RNG for the crash policy's pending-line coin flips.
Xoshiro256 crash_rng(const MatrixConfig& cfg, uint64_t event) {
  return Xoshiro256(cfg.seed ^ (event * 0x9e3779b97f4a7c15ULL) ^
                    0xc4a5b3c0ull);
}

// ---------------------------------------------------------------------------
// core / core-buffered: the bare commit protocol.
// ---------------------------------------------------------------------------

class CoreScenario final : public Scenario {
 public:
  explicit CoreScenario(bool buffered) : buffered_(buffered) {}

  EventCensus enumerate(const MatrixConfig& cfg) override {
    const CrpmOptions opt = scenario_opts(buffered_);
    CrashSimDevice dev(Container::required_device_size(opt));
    EventCensus census;
    dev.set_event_recorder(&census.tags);
    auto c = Container::open(&dev, opt);
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
    }
    c.reset();
    dev.set_event_recorder(nullptr);
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    const CrpmOptions opt = scenario_opts(buffered_);
    const Golden g = make_golden(cfg, opt.main_region_size, cfg.epochs);
    CrashSimDevice dev(Container::required_device_size(opt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    uint64_t last_committed = 0;
    std::unique_ptr<Container> c;
    try {
      c = Container::open(&dev, opt);
      for (uint64_t e = 1; e <= cfg.epochs; ++e) {
        apply_epoch_to_container(cfg, *c, e);
        c->checkpoint();
        last_committed = e;
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    if (!out.crash_fired) {
      dev.disarm();
      std::string why;
      if (!image_matches(c->data(), g.at[cfg.epochs], "main region",
                         cfg.epochs, &why)) {
        out.violation = true;
        out.detail = "clean run: " + why;
      }
      return out;
    }

    c.reset();
    Xoshiro256 rng = crash_rng(cfg, event);
    dev.crash_and_restart(cfg.policy, rng);
    c = Container::open(&dev, opt);
    std::string why;
    if (!check_recovered(*c, g, last_committed, &why)) {
      out.violation = true;
      out.detail = why;
      return out;
    }

    // Recovery must compose with forward progress: finish the run and
    // land bit-identically on the final golden image.
    for (uint64_t e = c->committed_epoch() + 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
    }
    if (c->committed_epoch() != cfg.epochs) {
      out.violation = true;
      out.detail = "post-recovery run ended at epoch " +
                   std::to_string(c->committed_epoch());
    } else if (!image_matches(c->data(), g.at[cfg.epochs],
                              "post-recovery main region", cfg.epochs,
                              &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

 private:
  bool buffered_;
};

// ---------------------------------------------------------------------------
// core-adaptive: the per-segment hybrid engine (src/engines/adaptive).
// The workload keeps a genuinely mixed strategy population alive — a
// rotating hot segment takes 7 of every 8 writes (fresh in LOG mode each
// epoch, it crosses the dense threshold mid-epoch and promotes: the
// "adaptive.promote" transition runs every epoch, including the partial
// one a crash lands in), while a light uniform scatter keeps the rest of
// the window sparse so per-block undo entries, boundary promotions and
// hysteresis demotions all stay in play. Crash points cover every
// protocol site: log/cow pre-image appends, the promote transition, the
// checkpoint flush phase, the commit bump and the log truncate.
// ---------------------------------------------------------------------------

class CoreAdaptiveScenario final : public Scenario {
 public:
  EventCensus enumerate(const MatrixConfig& cfg) override {
    const CrpmOptions opt = adaptive_opts();
    CrashSimDevice dev(engines::engine_device_size(opt));
    EventCensus census;
    dev.set_event_recorder(&census.tags);
    auto e = engines::open_engine(&dev, opt);
    for (uint64_t ep = 1; ep <= cfg.epochs; ++ep) {
      apply_epoch_to_engine(cfg, opt, *e, ep);
      e->checkpoint();
    }
    e.reset();
    dev.set_event_recorder(nullptr);
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    const CrpmOptions opt = adaptive_opts();
    const Golden g = adaptive_golden(cfg, opt, cfg.epochs);
    CrashSimDevice dev(engines::engine_device_size(opt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    uint64_t last_committed = 0;
    std::unique_ptr<Engine> e;
    try {
      e = engines::open_engine(&dev, opt);
      for (uint64_t ep = 1; ep <= cfg.epochs; ++ep) {
        apply_epoch_to_engine(cfg, opt, *e, ep);
        e->checkpoint();
        last_committed = ep;
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    std::string why;
    if (!out.crash_fired) {
      dev.disarm();
      // Even with the planted fault armed, a crash-free run is clean: the
      // torn pre-image only matters when recovery replays it.
      if (!image_matches(e->data(), g.at[cfg.epochs], "main region",
                         cfg.epochs, &why)) {
        out.violation = true;
        out.detail = "clean run: " + why;
      }
      return out;
    }

    e.reset();
    Xoshiro256 rng = crash_rng(cfg, event);
    dev.crash_and_restart(cfg.policy, rng);
    e = engines::open_engine(&dev, opt);
    if (!check_recovered_engine(*e, g, last_committed, &why)) {
      out.violation = true;
      out.detail = why;
      return out;
    }

    // Recovery must compose with forward progress: the engine rebuilds
    // its per-segment strategy state from scratch (all LOG), re-walks the
    // promote/demote transitions, and must still land bit-identically on
    // the final golden image.
    for (uint64_t ep = e->committed_epoch() + 1; ep <= cfg.epochs; ++ep) {
      apply_epoch_to_engine(cfg, opt, *e, ep);
      e->checkpoint();
    }
    if (e->committed_epoch() != cfg.epochs) {
      out.violation = true;
      out.detail = "post-recovery run ended at epoch " +
                   std::to_string(e->committed_epoch());
    } else if (!image_matches(e->data(), g.at[cfg.epochs],
                              "post-recovery main region", cfg.epochs,
                              &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

 private:
  static CrpmOptions adaptive_opts() {
    CrpmOptions o = scenario_opts(false);
    o.engine = "adaptive";
    // 8 tracked blocks per segment (promote threshold 4): wide enough for
    // the seed writes below to stay under the mid-epoch promote trigger.
    o.segment_size = 2048;
    return o;
  }

  // Epoch ep's writes, replayable against any target. 7 of 8 ops land in
  // the rotating hot segment; the rest scatter uniformly (a heavier
  // scatter on this 16 KB window would drive EVERY segment dense and
  // leave no LOG-mode population for the matrix to crash). Each epoch
  // also seeds 3 distinct blocks of the NEXT epoch's hot segment — few
  // enough to keep it in LOG mode, but enough that the committed image a
  // crash recovers to has content there: the mid-epoch promotion's
  // segment pre-image must faithfully restore those seeds, so an
  // ordering bug in the transition (the planted
  // adaptive-skip-transition-flush fault) shows up as a golden divergence
  // instead of tearing an all-zero segment into all zeros.
  template <typename W>
  static void apply_adaptive_epoch(const MatrixConfig& cfg,
                                   const CrpmOptions& opt, uint64_t ep,
                                   W&& write) {
    Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + ep);
    const uint64_t region = opt.main_region_size;
    const uint64_t seg = opt.segment_size;
    const uint64_t nseg = region / seg;
    const uint64_t hot = (ep % nseg) * seg;
    for (uint64_t op = 0; op < cfg.ops_per_epoch; ++op) {
      uint64_t off = (op % 8 != 7) ? hot + rng.next_below(seg / 8) * 8
                                   : rng.next_below(region / 8) * 8;
      uint64_t v = rng.next() | 1;
      write(off, v);
    }
    const uint64_t next_hot = ((ep + 1) % nseg) * seg;
    const uint64_t blocks = seg / 256;  // the engine's tracking granule
    for (uint64_t i = 0; i < 3; ++i) {
      uint64_t block = (ep + 3 * i) % blocks;
      uint64_t off = next_hot + block * 256 + rng.next_below(256 / 8) * 8;
      write(off, rng.next() | 1);
    }
  }

  static Golden adaptive_golden(const MatrixConfig& cfg,
                                const CrpmOptions& opt, uint64_t max_epoch) {
    Golden g;
    g.at.resize(max_epoch + 1);
    g.at[0].assign(opt.main_region_size, 0);
    for (uint64_t ep = 1; ep <= max_epoch; ++ep) {
      g.at[ep] = g.at[ep - 1];
      apply_adaptive_epoch(cfg, opt, ep, [&](uint64_t off, uint64_t v) {
        std::memcpy(g.at[ep].data() + off, &v, 8);
      });
    }
    return g;
  }

  static void apply_epoch_to_engine(const MatrixConfig& cfg,
                                    const CrpmOptions& opt,
                                    Engine& e, uint64_t ep) {
    apply_adaptive_epoch(cfg, opt, ep, [&](uint64_t off, uint64_t v) {
      e.annotate(e.data() + off, 8);
      std::memcpy(e.data() + off, &v, 8);
    });
    e.set_root(0, ep);
  }

  // Epoch + image + root oracle after a reopen; adaptive roots live in the
  // protected reserve area, so the recovered root must match the recovered
  // epoch exactly (epoch-consistent, like the container's).
  static bool check_recovered_engine(Engine& e, const Golden& g,
                                     uint64_t last_committed,
                                     std::string* why) {
    uint64_t ep = e.committed_epoch();
    if (ep < last_committed || ep > last_committed + 1) {
      *why = "recovered epoch " + std::to_string(ep) +
             " but last observed commit was " +
             std::to_string(last_committed);
      return false;
    }
    if (ep >= g.at.size()) {
      *why = "recovered epoch " + std::to_string(ep) + " beyond the run's " +
             std::to_string(g.at.size() - 1) + " epochs";
      return false;
    }
    if (!image_matches(e.data(), g.at[ep], "main region", ep, why)) {
      return false;
    }
    if (e.get_root(0) != ep) {
      *why = "root slot 0 is " + std::to_string(e.get_root(0)) +
             " after recovering epoch " + std::to_string(ep);
      return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// core-async: concurrent background checkpointing. Cooperative pipeline
// mode (async_workers = 0) keeps the event stream deterministic: each
// checkpoint(e) captures epoch e and — through backpressure — commits
// epoch e-1 inline; epoch e's window then drains during epoch e+1's ops
// (write-hook steals, "async.steal") and its capture (flush/stage/commit/
// finalize). A final wait_committed() commits the last epoch. Crash
// points therefore cover every async persist site, including steals
// interleaved with post-capture mutation.
// ---------------------------------------------------------------------------

class CoreAsyncScenario final : public Scenario {
 public:
  EventCensus enumerate(const MatrixConfig& cfg) override {
    const CrpmOptions opt = async_opts();
    CrashSimDevice dev(Container::required_device_size(opt));
    EventCensus census;
    dev.set_event_recorder(&census.tags);
    auto c = Container::open(&dev, opt);
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
    }
    c->wait_committed();
    c.reset();
    dev.set_event_recorder(nullptr);
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    const CrpmOptions opt = async_opts();
    const Golden g = make_golden(cfg, opt.main_region_size, cfg.epochs);
    CrashSimDevice dev(Container::required_device_size(opt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    // The newest commit the pre-crash run is known to have reached:
    // checkpoint(e) only guarantees epoch e-1 (committed by its capture's
    // backpressure); the final wait_committed() closes the last window.
    uint64_t last_committed = 0;
    std::unique_ptr<Container> c;
    try {
      c = Container::open(&dev, opt);
      for (uint64_t e = 1; e <= cfg.epochs; ++e) {
        apply_epoch_to_container(cfg, *c, e);
        c->checkpoint();
        last_committed = e - 1;
      }
      c->wait_committed();
      last_committed = cfg.epochs;
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    if (!out.crash_fired) {
      dev.disarm();
      std::string why;
      if (c->committed_epoch() != cfg.epochs) {
        out.violation = true;
        out.detail = "clean run: wait_committed left epoch " +
                     std::to_string(c->committed_epoch());
      } else if (!image_matches(c->data(), g.at[cfg.epochs], "main region",
                                cfg.epochs, &why)) {
        out.violation = true;
        out.detail = "clean run: " + why;
      }
      return out;
    }

    // Destroying the container discards the captured-but-uncommitted
    // window — exactly the crash semantics (the "process" died; nothing
    // may commit on its behalf).
    c.reset();
    Xoshiro256 rng = crash_rng(cfg, event);
    dev.crash_and_restart(cfg.policy, rng);
    c = Container::open(&dev, opt);
    std::string why;
    if (!check_recovered(*c, g, last_committed, &why)) {
      out.violation = true;
      out.detail = why;
      return out;
    }

    // Recovery must compose with forward progress — still asynchronously.
    for (uint64_t e = c->committed_epoch() + 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
    }
    c->wait_committed();
    if (c->committed_epoch() != cfg.epochs) {
      out.violation = true;
      out.detail = "post-recovery run ended at epoch " +
                   std::to_string(c->committed_epoch());
    } else if (!image_matches(c->data(), g.at[cfg.epochs],
                              "post-recovery main region", cfg.epochs,
                              &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

 private:
  static CrpmOptions async_opts() {
    CrpmOptions o = scenario_opts(false);
    o.async_checkpoint = true;
    o.async_workers = 0;  // cooperative: deterministic event stream
    return o;
  }
};

// ---------------------------------------------------------------------------
// core-multiwindow: the sharded multi-window commit pipeline. Cooperative
// mode again keeps the event stream deterministic, but now K =
// cfg.mw_windows capture windows accumulate before backpressure drains
// the oldest: checkpoint(e) only guarantees epoch e-K, and the segment
// state is spread over S = cfg.mw_shards per-shard epoch words that a
// coordinated commit min-reduces ("shard.commit" then "async.commit").
// Crash points therefore cover every partially-joined commit: kills
// between a shard-local commit and the joined committed_epoch persist,
// kills mid-flush with several windows open, and kills inside the
// deferred flush of segments held across windows. Recovery may land
// anywhere in [last observed commit, +K]; the oracle only requires it to
// be a committed golden image with matching root.
// ---------------------------------------------------------------------------

class CoreMultiWindowScenario final : public Scenario {
 public:
  EventCensus enumerate(const MatrixConfig& cfg) override {
    const CrpmOptions opt = mw_opts(cfg);
    CrashSimDevice dev(Container::required_device_size(opt));
    EventCensus census;
    dev.set_event_recorder(&census.tags);
    auto c = Container::open(&dev, opt);
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
    }
    c->wait_committed();
    c.reset();
    dev.set_event_recorder(nullptr);
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    const CrpmOptions opt = mw_opts(cfg);
    const uint64_t K = opt.max_inflight_epochs;
    const Golden g = make_golden(cfg, opt.main_region_size, cfg.epochs);
    CrashSimDevice dev(Container::required_device_size(opt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    // checkpoint(e) backpressures only when all K windows are open, so it
    // guarantees no more than epoch e-K; the final wait_committed() joins
    // every open window.
    uint64_t last_committed = 0;
    std::unique_ptr<Container> c;
    try {
      c = Container::open(&dev, opt);
      for (uint64_t e = 1; e <= cfg.epochs; ++e) {
        apply_epoch_to_container(cfg, *c, e);
        c->checkpoint();
        last_committed = e > K ? e - K : 0;
      }
      c->wait_committed();
      last_committed = cfg.epochs;
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    if (!out.crash_fired) {
      dev.disarm();
      std::string why;
      if (c->committed_epoch() != cfg.epochs) {
        out.violation = true;
        out.detail = "clean run: wait_committed left epoch " +
                     std::to_string(c->committed_epoch());
      } else if (!image_matches(c->data(), g.at[cfg.epochs], "main region",
                                cfg.epochs, &why)) {
        out.violation = true;
        out.detail = "clean run: " + why;
      }
      return out;
    }

    // Up to K captured-but-uncommitted windows die with the process; a
    // crash mid-drain may have joined any prefix of them, so recovery can
    // land anywhere in [last_committed, last_committed + K].
    c.reset();
    Xoshiro256 rng = crash_rng(cfg, event);
    dev.crash_and_restart(cfg.policy, rng);
    c = Container::open(&dev, opt);
    std::string why;
    if (!check_recovered(*c, g, last_committed, &why, K)) {
      out.violation = true;
      out.detail = why;
      return out;
    }

    // Recovery must compose with forward progress — through the same
    // multi-window pipeline.
    for (uint64_t e = c->committed_epoch() + 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
    }
    c->wait_committed();
    if (c->committed_epoch() != cfg.epochs) {
      out.violation = true;
      out.detail = "post-recovery run ended at epoch " +
                   std::to_string(c->committed_epoch());
    } else if (!image_matches(c->data(), g.at[cfg.epochs],
                              "post-recovery main region", cfg.epochs,
                              &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

 private:
  static CrpmOptions mw_opts(const MatrixConfig& cfg) {
    CrpmOptions o = scenario_opts(false);
    o.async_checkpoint = true;
    o.async_workers = 0;  // cooperative: deterministic event stream
    o.max_inflight_epochs = cfg.mw_windows == 0 ? 1 : cfg.mw_windows;
    o.commit_shards = cfg.mw_shards == 0 ? 1 : cfg.mw_shards;
    return o;
  }
};

// ---------------------------------------------------------------------------
// archive / archive-tier: commit loop + background archive append +
// compaction. The event axis is device events [0, D) then writer file ops
// [D, D+F). The tiered variant layers the full src/tier stack on top —
// lzb-coded frames, two-epoch group commit (drain every second epoch so
// batches actually span a sync boundary), threaded writeback and the cold
// tier — which adds the tier.encode / archive.frame / tier.cold /
// archive.compact sites to the file-op axis.
// ---------------------------------------------------------------------------

class ArchiveScenario final : public Scenario {
 public:
  explicit ArchiveScenario(bool tiered) : tiered_(tiered) {}

  EventCensus enumerate(const MatrixConfig& cfg) override {
    Paths p = make_paths();
    const CrpmOptions opt = scenario_opts(false);
    CrashSimDevice dev(Container::required_device_size(opt));
    EventCensus census;
    dev.set_event_recorder(&census.tags);
    auto c = Container::open(&dev, opt);
    auto w = make_writer(p);
    w->attach(*c);
    std::vector<const char*> file_tags;
    w->set_file_op_hook([&](const char* site, uint64_t) {
      file_tags.push_back(site);
      return true;
    });
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
      if (e % drain_every() == 0) w->drain();
    }
    w->drain();
    c->set_epoch_sink(nullptr);
    w->set_file_op_hook({});
    w.reset();
    c.reset();
    dev.set_event_recorder(nullptr);
    device_events_ = census.tags.size();
    census.tags.insert(census.tags.end(), file_tags.begin(),
                       file_tags.end());
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    if (device_events_ == ~uint64_t{0}) enumerate(cfg);
    return event < device_events_ ? device_crash(cfg, event)
                                  : file_crash(cfg, event - device_events_);
  }

 private:
  struct Paths {
    fs::path dir;
    std::string archive;
  };

  // Batches must span a sync boundary for the tiered variant's crash axis
  // to cover them, so it drains every second epoch (group_epochs = 2).
  uint64_t drain_every() const { return tiered_ ? 2 : 1; }

  Paths make_paths() const {
    Paths p;
    p.dir = fs::temp_directory_path() /
            (std::string("crpm_chaos_archive_") + (tiered_ ? "tier_" : "") +
             std::to_string(::getpid()));
    fs::remove_all(p.dir);
    fs::create_directories(p.dir);
    p.archive = (p.dir / "a.crpmsnap").string();
    return p;
  }

  std::unique_ptr<snapshot::ArchiveWriter> make_writer(
      const Paths& p) const {
    snapshot::SnapshotOptions s;
    s.compact_every = 3;
    s.queue_depth = 4;
    s.fsync_each_epoch = true;
    if (tiered_) {
      s.tier.codec = tier::kCodecLzb;
      s.tier.group_epochs = 2;
      // Batch-full or drain only: a timer-driven flush would make the
      // file-op census depend on wall-clock scheduling.
      s.tier.flush_deadline_us = 3'600'000'000ull;
      s.tier.writeback = "threads";
      s.tier.cold_enabled = true;
    }
    return std::make_unique<snapshot::ArchiveWriter>(p.archive, s);
  }

  // Crash the container at a device event; the archive daemon "dies with
  // the process" (write budget 0 from the moment of the crash). Recovery
  // reopens the container, requires the surviving archive prefix valid,
  // reattaches a writer (truncating staged-ahead frames) and finishes the
  // run plus one extra epoch, after which the archive must be caught up.
  RunOutcome device_crash(const MatrixConfig& cfg, uint64_t event) {
    Paths p = make_paths();
    const CrpmOptions opt = scenario_opts(false);
    const uint64_t final_epoch = cfg.epochs + 1;
    const Golden g = make_golden(cfg, opt.main_region_size, final_epoch);
    CrashSimDevice dev(Container::required_device_size(opt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    uint64_t last_committed = 0;
    std::unique_ptr<Container> c;
    auto w = make_writer(p);
    try {
      c = Container::open(&dev, opt);
      w->attach(*c);
      for (uint64_t e = 1; e <= cfg.epochs; ++e) {
        apply_epoch_to_container(cfg, *c, e);
        c->checkpoint();
        if (e % drain_every() == 0) w->drain();
        last_committed = e;
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    if (!out.crash_fired) {
      dev.disarm();
      finish(cfg, p, g, dev, opt, std::move(c), std::move(w), cfg.epochs,
             &out);
      return out;
    }

    // Process death: no further file bytes; wait out the stager (it may
    // still be reading the torn working state), then tear down.
    w->kill_after_bytes(0);
    if (c != nullptr) c->set_epoch_sink(nullptr);
    w->drain();
    w.reset();
    c.reset();
    Xoshiro256 rng = crash_rng(cfg, event);
    dev.crash_and_restart(cfg.policy, rng);

    c = Container::open(&dev, opt);
    std::string why;
    if (!check_recovered(*c, g, last_committed, &why) ||
        !check_chain_prefix(p.archive, g, last_committed + 1, "archive",
                            &why) ||
        !check_cold_tier(p.archive, g, last_committed + 1, &why)) {
      out.violation = true;
      out.detail = why;
      return out;
    }
    auto w2 = make_writer(p);
    w2->attach(*c);  // reconciles: drops frames beyond the recovered epoch
    finish(cfg, p, g, dev, opt, std::move(c), std::move(w2),
           c->committed_epoch(), &out);
    return out;
  }

  // Kill the archive daemon at its `op`-th file operation (mid-write for
  // writes — a torn frame — and just-before for fsyncs). The container is
  // untouched; the oracle is the archive file: valid prefix, then a
  // reattach must truncate the tear and catch back up.
  RunOutcome file_crash(const MatrixConfig& cfg, uint64_t op) {
    Paths p = make_paths();
    const CrpmOptions opt = scenario_opts(false);
    const uint64_t final_epoch = cfg.epochs + 1;
    const Golden g = make_golden(cfg, opt.main_region_size, final_epoch);
    CrashSimDevice dev(Container::required_device_size(opt));

    RunOutcome out;
    out.crash_fired = true;  // file-domain injection always lands
    auto c = Container::open(&dev, opt);
    auto w = make_writer(p);
    w->attach(*c);
    uint64_t seen = 0;
    snapshot::ArchiveWriter* wp = w.get();
    w->set_file_op_hook([&seen, op, wp](const char*, uint64_t bytes) {
      uint64_t idx = seen++;
      if (idx < op) return true;
      if (idx > op || bytes == 0) return false;  // dead / crash pre-fsync
      wp->kill_after_bytes(bytes / 2);  // tear this write mid-frame
      return true;
    });
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
      if (e % drain_every() == 0) w->drain();
    }
    w->drain();
    c->set_epoch_sink(nullptr);
    w->set_file_op_hook({});
    w.reset();

    std::string why;
    if (!image_matches(c->data(), g.at[cfg.epochs], "main region",
                       cfg.epochs, &why) ||
        !check_chain_prefix(p.archive, g, cfg.epochs, "archive", &why) ||
        !check_cold_tier(p.archive, g, cfg.epochs, &why)) {
      out.violation = true;
      out.detail = why;
      return out;
    }
    // Archive-daemon restart: scan + truncate the torn tail, then resume
    // (a gap restarts the chain with a base frame).
    auto w2 = make_writer(p);
    w2->attach(*c);
    finish(cfg, p, g, dev, opt, std::move(c), std::move(w2), cfg.epochs,
           &out);
    return out;
  }

  // Common tail: run epochs from+1 .. epochs+1, then require the
  // container and the newest restorable archive epoch to match the final
  // golden image.
  void finish(const MatrixConfig& cfg, const Paths& p, const Golden& g,
              CrashSimDevice& dev, const CrpmOptions& opt,
              std::unique_ptr<Container> c,
              std::unique_ptr<snapshot::ArchiveWriter> w, uint64_t from,
              RunOutcome* out) {
    (void)dev;
    (void)opt;
    const uint64_t final_epoch = cfg.epochs + 1;
    for (uint64_t e = from + 1; e <= final_epoch; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
      if (e % drain_every() == 0) w->drain();
    }
    w->drain();
    c->set_epoch_sink(nullptr);
    w.reset();
    std::string why;
    uint64_t latest = 0;
    snapshot::ArchiveReader reader(p.archive);
    if (c->committed_epoch() != final_epoch) {
      out->violation = true;
      out->detail = "post-recovery run ended at epoch " +
                    std::to_string(c->committed_epoch());
    } else if (!image_matches(c->data(), g.at[final_epoch],
                              "post-recovery main region", final_epoch,
                              &why)) {
      out->violation = true;
      out->detail = why;
    } else if (!reader.ok() || !reader.latest_restorable(&latest) ||
               latest != final_epoch) {
      out->violation = true;
      out->detail = "archive did not catch up: newest restorable epoch " +
                    std::to_string(latest) + " after committing " +
                    std::to_string(final_epoch);
    } else if (!check_chain_prefix(p.archive, g, final_epoch, "archive",
                                   &why) ||
               !check_cold_tier(p.archive, g, final_epoch, &why)) {
      out->violation = true;
      out->detail = why;
    }
  }

  bool tiered_;
  uint64_t device_events_ = ~uint64_t{0};
};

// ---------------------------------------------------------------------------
// repl: replicated commit, rank 0 crashes, partner's replica chain must
// stay a valid prefix of the golden history. The crash axis is rank 0's
// device events.
// ---------------------------------------------------------------------------

class ReplScenario final : public Scenario {
 public:
  EventCensus enumerate(const MatrixConfig& cfg) override {
    Paths p = make_paths();
    const CrpmOptions opt = scenario_opts(false);
    CrashSimDevice dev(Container::required_device_size(opt));
    EventCensus census;
    dev.set_event_recorder(&census.tags);
    Cluster cl = make_cluster(p);
    auto c = Container::open(&dev, opt);
    cl.writer->attach(*c);
    cl.node->attach(*c, *cl.writer);
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
      cl.writer->drain();
    }
    cl.node->flush();
    teardown(*c, cl);
    c.reset();
    dev.set_event_recorder(nullptr);
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    Paths p = make_paths();
    const CrpmOptions opt = scenario_opts(false);
    const uint64_t final_epoch = cfg.epochs + 1;
    const Golden g = make_golden(cfg, opt.main_region_size, final_epoch);
    const std::string peer0 =
        repl::ReplicaStore::peer_path(p.store1, /*origin=*/0);
    CrashSimDevice dev(Container::required_device_size(opt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    uint64_t last_committed = 0;
    std::unique_ptr<Container> c;
    Cluster cl = make_cluster(p);
    try {
      c = Container::open(&dev, opt);
      cl.writer->attach(*c);
      cl.node->attach(*c, *cl.writer);
      for (uint64_t e = 1; e <= cfg.epochs; ++e) {
        apply_epoch_to_container(cfg, *c, e);
        c->checkpoint();
        cl.writer->drain();
        last_committed = e;
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    if (out.crash_fired) {
      // Whole-node death: archive stops mid-air, both endpoints go down
      // (the replica's peer file persists on disk).
      cl.writer->kill_after_bytes(0);
      if (c != nullptr) c->set_epoch_sink(nullptr);
      cl.writer->drain();
    } else {
      dev.disarm();
      cl.node->flush();
      c->set_epoch_sink(nullptr);
      cl.writer->drain();
    }
    destroy(cl);
    std::string why;
    uint64_t reach = out.crash_fired ? last_committed + 1 : cfg.epochs;
    if (!check_chain_prefix(peer0, g, reach, "replica chain", &why)) {
      out.violation = true;
      out.detail = why;
      return out;
    }
    if (out.crash_fired) {
      c.reset();
      Xoshiro256 rng = crash_rng(cfg, event);
      dev.crash_and_restart(cfg.policy, rng);
      c = Container::open(&dev, opt);
      if (!check_recovered(*c, g, last_committed, &why)) {
        out.violation = true;
        out.detail = why;
        return out;
      }
    }

    // Cluster restart: fresh channel and nodes, the replica store adopts
    // its persisted peer files; finish the run plus one epoch. The chain
    // may legally stay behind (frames lost with the dead sender are only
    // re-served by a future base frame), but must remain prefix-valid.
    Cluster cl2 = make_cluster(p);
    cl2.writer->attach(*c);
    cl2.node->attach(*c, *cl2.writer);
    for (uint64_t e = c->committed_epoch() + 1; e <= final_epoch; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
      cl2.writer->drain();
    }
    cl2.node->flush();
    teardown(*c, cl2);
    if (c->committed_epoch() != final_epoch) {
      out.violation = true;
      out.detail = "post-recovery run ended at epoch " +
                   std::to_string(c->committed_epoch());
    } else if (!image_matches(c->data(), g.at[final_epoch],
                              "post-recovery main region", final_epoch,
                              &why)) {
      out.violation = true;
      out.detail = why;
    } else if (!check_chain_prefix(peer0, g, final_epoch, "replica chain",
                                   &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

 private:
  struct Paths {
    fs::path dir;
    std::string archive;
    std::string store0;
    std::string store1;
  };

  struct Cluster {
    std::unique_ptr<Channel> channel;
    std::unique_ptr<snapshot::ArchiveWriter> writer;
    std::unique_ptr<repl::ReplNode> node;      // rank 0, the origin
    std::unique_ptr<repl::ReplNode> receiver;  // rank 1, the replica
  };

  static Paths make_paths() {
    Paths p;
    p.dir = fs::temp_directory_path() /
            ("crpm_chaos_repl_" + std::to_string(::getpid()));
    fs::remove_all(p.dir);
    fs::create_directories(p.dir);
    p.archive = (p.dir / "a0.crpmsnap").string();
    p.store0 = (p.dir / "store0").string();
    p.store1 = (p.dir / "store1").string();
    return p;
  }

  static Cluster make_cluster(const Paths& p) {
    Cluster cl;
    cl.channel = std::make_unique<Channel>(2, FaultSpec());
    snapshot::SnapshotOptions s;
    s.compact_every = 3;
    s.queue_depth = 4;
    s.fsync_each_epoch = true;
    cl.writer = std::make_unique<snapshot::ArchiveWriter>(p.archive, s);
    repl::ReplConfig cfg0;
    cfg0.replicas = 1;
    cfg0.store_dir = p.store0;
    cfg0.local_archive = p.archive;
    cfg0.ack_timeout_us = 5000;
    cfg0.max_attempts = 2;  // bounded: a post-restart gap never resolves
    cl.node = std::make_unique<repl::ReplNode>(*cl.channel, 0, cfg0);
    repl::ReplConfig cfg1;
    cfg1.replicas = 1;
    cfg1.store_dir = p.store1;
    cfg1.ack_timeout_us = 5000;
    cfg1.max_attempts = 2;
    cl.receiver = std::make_unique<repl::ReplNode>(*cl.channel, 1, cfg1);
    return cl;
  }

  static void teardown(Container& c, Cluster& cl) {
    c.set_epoch_sink(nullptr);
    destroy(cl);
  }

  static void destroy(Cluster& cl) {
    cl.writer.reset();  // detaches the frame observer before the node dies
    cl.node.reset();
    cl.receiver.reset();
    cl.channel.reset();
  }
};

// ---------------------------------------------------------------------------
// recovery: the restorer itself under the crash matrix. Four injection
// domains, concatenated into one event axis:
//
//   [0, D)          device events of a parallel restore (restore_workers=2)
//                   onto a CrashSimDevice — the record apply runs in DRAM,
//                   so the device event stream stays deterministic and the
//                   crash points cover the restored container's format,
//                   image commit and checkpoint.
//   [D, D+F)        restore_file() durability steps (restore.image /
//                   .container / .tmp / .synced / .renamed), killed via
//                   the restore step hook.
//   [D+F, D+F+L)    lazy restore steps (lazy.plan, lazy.chunk per chunk,
//                   then finish_file's side-file steps), driven serially
//                   so the hook's throw unwinds the driving thread.
//   [D+F+L, ...)    online scrubber steps (scrub.archive / .cold /
//                   .container / .pass) over a healthy restored directory.
//
// The oracle is the restore contract itself: a crashed restore leaves
// either nothing a reattach would trust (container_file_usable false, or
// committed_epoch 0 on the device) or the complete bit-identical golden
// image; re-running the restore always converges to golden; the scrubber
// never mutates what it audits and a clean pass stays clean.
// ---------------------------------------------------------------------------

class RecoveryScenario final : public Scenario {
 public:
  EventCensus enumerate(const MatrixConfig& cfg) override {
    Setup s = make_setup(cfg);
    const CrpmOptions ropt = restore_opts();
    const CrpmOptions serial = serial_opts();
    EventCensus census;
    {
      CrashSimDevice dev(Container::required_device_size(ropt));
      dev.set_event_recorder(&census.tags);
      auto r = snapshot::restore(s.archive, Container::kLatestEpoch, &dev,
                                 ropt);
      CRPM_CHECK(r.container != nullptr, "recovery census: restore: %s",
                 r.error.c_str());
      r.container.reset();
      dev.set_event_recorder(nullptr);
    }
    device_events_ = census.tags.size();

    auto count_steps = [&census](auto&& body) {
      uint64_t n = 0;
      snapshot::set_restore_step_hook([&](const char* name) {
        census.tags.push_back(name);
        ++n;
      });
      body();
      snapshot::set_restore_step_hook(nullptr);
      return n;
    };
    file_events_ = count_steps([&] {
      auto r = snapshot::restore_file(s.archive, Container::kLatestEpoch,
                                      s.ctr, ropt);
      CRPM_CHECK(r.container != nullptr, "recovery census: restore_file: %s",
                 r.error.c_str());
      r.container.reset();
    });
    lazy_events_ = count_steps([&] {
      auto lz = snapshot::restore_lazy(s.archive, Container::kLatestEpoch,
                                       serial);
      CRPM_CHECK(lz->ok(), "recovery census: lazy: %s", lz->error().c_str());
      lz->ensure_range(0, 1);  // first chunk through the demand path
      auto r = lz->finish_file(s.lazy_ctr, serial);
      CRPM_CHECK(r.container != nullptr, "recovery census: finish: %s",
                 r.error.c_str());
      r.container.reset();
    });
    count_steps([&] {
      scrub::Scrubber sc(scrub_opts(s));
      sc.run_pass();
    });
    return census;
  }

  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    if (device_events_ == ~uint64_t{0}) enumerate(cfg);
    if (event < device_events_) return device_crash(cfg, event);
    event -= device_events_;
    if (event < file_events_) return file_crash(cfg, event);
    event -= file_events_;
    if (event < lazy_events_) return lazy_crash(cfg, event);
    return scrub_crash(cfg, event - lazy_events_);
  }

 private:
  struct Setup {
    fs::path dir;
    std::string archive;
    std::string ctr;       // restore_file / scrub target
    std::string lazy_ctr;  // lazy finish_file target
  };

  static CrpmOptions restore_opts() {
    CrpmOptions o = scenario_opts(false);
    o.restore_workers = 2;  // the parallel apply is the subject under test
    return o;
  }

  static CrpmOptions serial_opts() {
    // The lazy domain is driven inline so the step hook's throw unwinds
    // the driving thread (a worker-pool throw would terminate).
    return scenario_opts(false);
  }

  static scrub::ScrubOptions scrub_opts(const Setup& s) {
    scrub::ScrubOptions so;
    so.archive_path = s.archive;
    so.container_path = s.ctr;
    so.quarantine = true;
    return so;
  }

  // Deterministic archive: the golden workload committed through an
  // unarmed container + draining writer (no recorder, no cold tier).
  Setup make_setup(const MatrixConfig& cfg) const {
    Setup s;
    s.dir = fs::temp_directory_path() /
            ("crpm_chaos_recovery_" + std::to_string(::getpid()));
    fs::remove_all(s.dir);
    fs::create_directories(s.dir);
    s.archive = (s.dir / "a.crpmsnap").string();
    s.ctr = (s.dir / "restored.ctr").string();
    s.lazy_ctr = (s.dir / "lazy.ctr").string();
    const CrpmOptions opt = scenario_opts(false);
    CrashSimDevice dev(Container::required_device_size(opt));
    auto c = Container::open(&dev, opt);
    snapshot::SnapshotOptions so;
    so.queue_depth = 4;
    so.fsync_each_epoch = true;
    auto w = std::make_unique<snapshot::ArchiveWriter>(s.archive, so);
    w->attach(*c);
    for (uint64_t e = 1; e <= cfg.epochs; ++e) {
      apply_epoch_to_container(cfg, *c, e);
      c->checkpoint();
      w->drain();
    }
    c->set_epoch_sink(nullptr);
    w.reset();
    c.reset();
    return s;
  }

  static std::vector<uint8_t> slurp(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                                std::istreambuf_iterator<char>());
  }

  // Golden oracle for a restored container: bit-identical image + the
  // archived epoch's root.
  static bool restored_matches(Container& c, const Golden& g, uint64_t e,
                               const char* what, std::string* why) {
    if (!image_matches(c.data(), g.at[e], what, e, why)) return false;
    if (c.get_root(0) != e) {
      *why = std::string(what) + " root slot 0 is " +
             std::to_string(c.get_root(0)) + " after restoring epoch " +
             std::to_string(e);
      return false;
    }
    return true;
  }

  // Post-crash file oracle: the triage a reattach runs must either reject
  // the target (absent / unusable) or find the complete golden image —
  // and a re-run restore_file must converge to golden either way.
  bool file_recovery_ok(const MatrixConfig& cfg, const Setup& s,
                        const Golden& g, std::string* why) {
    const CrpmOptions plain = scenario_opts(false);
    if (StateStore::container_file_usable(s.ctr)) {
      auto c = Container::open_file(s.ctr, plain);
      if (c->fresh()) {
        *why = "usable restore target reopened as fresh";
        return false;
      }
      if (!restored_matches(*c, g, cfg.epochs,
                            "triage-trusted restore target", why)) {
        // The rename is the commit point: a file triage trusts must
        // never be half-restored.
        return false;
      }
    }
    auto r = snapshot::restore_file(s.archive, Container::kLatestEpoch,
                                    s.ctr, restore_opts());
    if (r.container == nullptr) {
      *why = "re-run restore_file failed: " + r.error;
      return false;
    }
    return restored_matches(*r.container, g, cfg.epochs,
                            "re-run restore target", why);
  }

  RunOutcome device_crash(const MatrixConfig& cfg, uint64_t event) {
    Setup s = make_setup(cfg);
    const CrpmOptions ropt = restore_opts();
    const Golden g = make_golden(cfg, ropt.main_region_size, cfg.epochs);
    CrashSimDevice dev(Container::required_device_size(ropt));
    dev.arm_crash_at_event(event);

    RunOutcome out;
    std::unique_ptr<Container> c;
    try {
      auto r = snapshot::restore(s.archive, Container::kLatestEpoch, &dev,
                                 ropt);
      if (r.container == nullptr) {
        out.violation = true;
        out.detail = "clean restore failed: " + r.error;
        return out;
      }
      c = std::move(r.container);
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    std::string why;
    if (!out.crash_fired) {
      dev.disarm();
      if (!restored_matches(*c, g, cfg.epochs, "restored container", &why)) {
        out.violation = true;
        out.detail = "clean run: " + why;
      }
      return out;
    }

    c.reset();
    Xoshiro256 rng = crash_rng(cfg, event);
    dev.crash_and_restart(cfg.policy, rng);
    // Reattach triage on the torn target: the restore's single
    // checkpoint is its commit point, so a nonzero committed epoch means
    // the whole image must be there; epoch 0 means the target is
    // recognizably not a restored container and gets discarded.
    {
      auto c2 = Container::open(&dev, scenario_opts(false));
      if (c2->committed_epoch() != 0 &&
          !restored_matches(*c2, g, cfg.epochs,
                            "triage-trusted restore device", &why)) {
        out.violation = true;
        out.detail = why;
        return out;
      }
    }
    // Re-run on a pristine device: the parallel restore must converge to
    // the same bit-identical golden image.
    CrashSimDevice dev2(Container::required_device_size(ropt));
    auto r2 = snapshot::restore(s.archive, Container::kLatestEpoch, &dev2,
                                ropt);
    if (r2.container == nullptr) {
      out.violation = true;
      out.detail = "re-run restore failed: " + r2.error;
    } else if (!restored_matches(*r2.container, g, cfg.epochs,
                                 "re-run restore", &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

  RunOutcome file_crash(const MatrixConfig& cfg, uint64_t step_index) {
    Setup s = make_setup(cfg);
    const Golden g =
        make_golden(cfg, scenario_opts(false).main_region_size,
                    cfg.epochs);
    RunOutcome out;
    uint64_t seen = 0;
    snapshot::set_restore_step_hook([&](const char*) {
      if (seen++ == step_index) throw SimulatedCrash{};
    });
    try {
      auto r = snapshot::restore_file(s.archive, Container::kLatestEpoch,
                                      s.ctr, restore_opts());
      if (r.container == nullptr) {
        out.violation = true;
        out.detail = "restore_file failed without crashing: " + r.error;
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    snapshot::set_restore_step_hook(nullptr);
    if (out.violation) return out;
    std::string why;
    if (!file_recovery_ok(cfg, s, g, &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

  RunOutcome lazy_crash(const MatrixConfig& cfg, uint64_t step_index) {
    Setup s = make_setup(cfg);
    const CrpmOptions serial = serial_opts();
    const Golden g = make_golden(cfg, serial.main_region_size, cfg.epochs);
    const std::vector<uint8_t> archive_before = slurp(s.archive);
    RunOutcome out;
    uint64_t seen = 0;
    snapshot::set_restore_step_hook([&](const char*) {
      if (seen++ == step_index) throw SimulatedCrash{};
    });
    try {
      auto lz = snapshot::restore_lazy(s.archive, Container::kLatestEpoch,
                                       serial);
      if (!lz->ok()) {
        out.violation = true;
        out.detail = "lazy restore failed without crashing: " + lz->error();
      } else {
        lz->ensure_range(0, 1);
        auto r = lz->finish_file(s.ctr, serial);
        if (r.container == nullptr) {
          out.violation = true;
          out.detail = "lazy finish failed without crashing: " + r.error;
        }
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    snapshot::set_restore_step_hook(nullptr);
    if (out.violation) return out;
    std::string why;
    if (slurp(s.archive) != archive_before) {
      out.violation = true;
      out.detail = "lazy restore mutated the archive it was reading";
    } else if (!file_recovery_ok(cfg, s, g, &why)) {
      out.violation = true;
      out.detail = why;
    }
    return out;
  }

  RunOutcome scrub_crash(const MatrixConfig& cfg, uint64_t step_index) {
    Setup s = make_setup(cfg);
    const Golden g =
        make_golden(cfg, scenario_opts(false).main_region_size,
                    cfg.epochs);
    RunOutcome out;
    {
      auto r = snapshot::restore_file(s.archive, Container::kLatestEpoch,
                                      s.ctr, restore_opts());
      if (r.container == nullptr) {
        out.violation = true;
        out.detail = "scrub setup restore failed: " + r.error;
        return out;
      }
    }
    const std::vector<uint8_t> archive_before = slurp(s.archive);
    const std::vector<uint8_t> ctr_before = slurp(s.ctr);
    uint64_t seen = 0;
    snapshot::set_restore_step_hook([&](const char*) {
      if (seen++ == step_index) throw SimulatedCrash{};
    });
    try {
      scrub::Scrubber sc(scrub_opts(s));
      scrub::ScrubReport rep = sc.run_pass();
      if (rep.damaged()) {
        out.violation = true;
        out.detail = "clean scrub reported damage: " +
                     rep.findings.front().detail;
      }
    } catch (const SimulatedCrash&) {
      out.crash_fired = true;
    }
    snapshot::set_restore_step_hook(nullptr);
    if (out.violation) return out;

    std::string why;
    if (slurp(s.archive) != archive_before) {
      out.violation = true;
      out.detail = "scrub mutated the archive it was auditing";
    } else if (slurp(s.ctr) != ctr_before) {
      out.violation = true;
      out.detail = "scrub mutated the container it was auditing";
    } else if (fs::exists(s.ctr + ".quarantine") ||
               fs::exists(s.archive + ".quarantine")) {
      out.violation = true;
      out.detail = "scrub quarantined healthy data";
    } else {
      // A killed pass must not poison the next one, and the audited
      // archive must still restore to golden.
      scrub::Scrubber sc(scrub_opts(s));
      scrub::ScrubReport rep = sc.run_pass();
      if (rep.damaged()) {
        out.violation = true;
        out.detail = "re-run scrub reported damage after a killed pass: " +
                     rep.findings.front().detail;
      } else if (!file_recovery_ok(cfg, s, g, &why)) {
        out.violation = true;
        out.detail = why;
      }
    }
    return out;
  }

  uint64_t device_events_ = ~uint64_t{0};
  uint64_t file_events_ = 0;
  uint64_t lazy_events_ = 0;
};

std::unique_ptr<Scenario> make_plain_scenario(const std::string& name) {
  if (name == "core") return std::make_unique<CoreScenario>(false);
  if (name == "core-buffered") return std::make_unique<CoreScenario>(true);
  if (name == "core-adaptive") {
    return std::make_unique<CoreAdaptiveScenario>();
  }
  if (name == "core-async") return std::make_unique<CoreAsyncScenario>();
  if (name == "core-multiwindow") {
    return std::make_unique<CoreMultiWindowScenario>();
  }
  if (name == "archive") return std::make_unique<ArchiveScenario>(false);
  if (name == "archive-tier") {
    return std::make_unique<ArchiveScenario>(true);
  }
  if (name == "repl") return std::make_unique<ReplScenario>();
  if (name == "recovery") return std::make_unique<RecoveryScenario>();
  return nullptr;
}

// Arms the planted faults a MatrixConfig names around every call into the
// scenario, so each container and engine the run opens latches them.
class FaultArmedScenario final : public Scenario {
 public:
  explicit FaultArmedScenario(std::unique_ptr<Scenario> inner)
      : inner_(std::move(inner)) {}

  EventCensus enumerate(const MatrixConfig& cfg) override {
    FaultScope armed(faults(cfg));
    return inner_->enumerate(cfg);
  }
  RunOutcome run_crash_at(const MatrixConfig& cfg, uint64_t event) override {
    FaultScope armed(faults(cfg));
    return inner_->run_crash_at(cfg, event);
  }

 private:
  static uint32_t faults(const MatrixConfig& cfg) {
    return (cfg.fault_flip_before_copy ? kFaultFlipBeforeCopy : 0u) |
           (cfg.fault_skip_steal_copy ? kFaultSkipStealCopy : 0u) |
           (cfg.fault_adaptive_skip_transition_flush
                ? kFaultAdaptiveSkipTransitionFlush
                : 0u);
  }

  std::unique_ptr<Scenario> inner_;
};

}  // namespace

std::unique_ptr<Scenario> make_scenario(const std::string& name) {
  auto s = make_plain_scenario(name);
  if (s == nullptr) return nullptr;
  return std::make_unique<FaultArmedScenario>(std::move(s));
}

std::vector<std::string> scenario_names() {
  return {"core",         "core-buffered", "core-adaptive",
          "core-async",   "core-multiwindow",
          "archive",      "archive-tier",  "repl",
          "recovery"};
}

CrpmOptions scenario_options(bool buffered) {
  return scenario_opts(buffered);
}

GoldenModel golden_model(const MatrixConfig& cfg, uint64_t region_size,
                         uint64_t max_epoch) {
  Golden g = make_golden(cfg, region_size, max_epoch);
  return GoldenModel{std::move(g.at)};
}

void apply_golden_epoch(const MatrixConfig& cfg, Container& c,
                        uint64_t epoch) {
  apply_epoch_to_container(cfg, c, epoch);
}

bool matches_golden(Container& c, const GoldenModel& g, uint64_t epoch,
                    std::string* why) {
  if (epoch >= g.at.size()) {
    *why = "epoch " + std::to_string(epoch) + " beyond the golden model";
    return false;
  }
  if (!image_matches(c.data(), g.at[epoch], "main region", epoch, why)) {
    return false;
  }
  if (epoch != 0 && c.get_root(0) != epoch) {
    *why = "root slot 0 is " + std::to_string(c.get_root(0)) +
           " at golden epoch " + std::to_string(epoch);
    return false;
  }
  return true;
}

}  // namespace crpm::chaos
