// Crash-surface exploration harness (the crash matrix).
//
// Two deterministic passes over a scenario (a fixed, seeded workload
// driving the checkpoint protocol on a CrashSimDevice):
//
//   pass 1 (count)   run the scenario once with the device's event
//                    recorder installed: every persistence event (clwb,
//                    sfence, NT-stored line, wbinvd — and, for scenarios
//                    with an archive, every file write/fsync) is
//                    enumerated with the protocol-site tag it was emitted
//                    under (PersistSiteScope / ArchiveWriter::FileOpHook).
//   pass 2 (inject)  re-run the scenario once per selected event index,
//                    crash at exactly that event, restart, and drive the
//                    invariant oracle: committed_epoch is monotone and at
//                    most one ahead of the last known commit, the main
//                    region is bit-identical to the golden model of the
//                    recovered epoch, every restorable archive epoch is
//                    bit-identical to its golden image (newest-intact
//                    semantics), and replica chains are prefix-valid.
//                    The run then continues to completion and the final
//                    state must match the golden model again — recovery
//                    must compose with forward progress.
//
// Both passes are pure functions of (scenario, seed, epochs, ops): the
// same MatrixConfig enumerates the same census twice and a violation at
// event N reproduces from the single command printed by
// reproducer_command(). select_events() adds sharding (`--shard i/n`
// keeps indices with k % n == i) and seeded per-site stratified sampling
// so CI can split the matrix across jobs without losing site coverage.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "nvm/crash_sim.h"

namespace crpm {
class Container;
}

namespace crpm::chaos {

struct MatrixConfig {
  std::string scenario = "core";
  uint64_t seed = 1;
  uint64_t epochs = 3;
  uint64_t ops_per_epoch = 48;
  CrashPolicy policy = CrashPolicy::kDropPending;
  // Planted faults (core/faults.h), armed around every call into a
  // scenario from make_scenario() so the containers and engines it opens
  // latch them. kFaultFlipBeforeCopy is the planted ordering bug the
  // harness self-tests against.
  bool fault_flip_before_copy = false;
  // kFaultSkipStealCopy, the async-mode planted bug (the write-hook steal
  // skips its flush + image snapshot); only the core-async scenario
  // exercises it.
  bool fault_skip_steal_copy = false;
  // kFaultAdaptiveSkipTransitionFlush, the adaptive engine's planted bug
  // (a mid-epoch LOG->COW promotion skips flushing the segment pre-image
  // payload); only the core-adaptive scenario exercises it.
  bool fault_adaptive_skip_transition_flush = false;
  // core-multiwindow geometry: in-flight capture windows and commit-shard
  // epoch domains (CrpmOptions::max_inflight_epochs / commit_shards).
  // Ignored by every other scenario.
  uint32_t mw_windows = 3;
  uint32_t mw_shards = 4;
  // Shard selection: keep event k iff k % shard_count == shard_index.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  // 0 = exhaustive. Otherwise a seeded sample of this many events, drawn
  // proportionally per site tag (every site keeps at least one event).
  uint64_t sample = 0;
  // Hard cap applied after sharding/sampling (0 = none); CI smoke budget.
  uint64_t max_events = 0;
};

// Pass-1 result: the ordered site tag of every persistence event.
struct EventCensus {
  std::vector<const char*> tags;
  uint64_t total() const { return tags.size(); }
  std::map<std::string, uint64_t> per_site() const;
};

// One injected run's verdict.
struct RunOutcome {
  bool crash_fired = false;  // the armed event was actually reached
  bool violation = false;
  std::string detail;
};

struct Violation {
  uint64_t event_index = 0;
  std::string site;
  std::string detail;
};

// A scenario owns its workload, golden model, and oracle. Implementations
// must be deterministic: enumerate() twice with the same config yields
// identical tag sequences, and run_crash_at() with the same (config,
// event) yields the same outcome.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual EventCensus enumerate(const MatrixConfig& cfg) = 0;
  virtual RunOutcome run_crash_at(const MatrixConfig& cfg,
                                  uint64_t event) = 0;
};

std::unique_ptr<Scenario> make_scenario(const std::string& name);
std::vector<std::string> scenario_names();

// Shard filter, then seeded stratified sample, then max_events cap.
// Returned indices ascend.
std::vector<uint64_t> select_events(const EventCensus& census,
                                    const MatrixConfig& cfg);

struct MatrixResult {
  EventCensus census;
  uint64_t events_selected = 0;
  uint64_t events_tested = 0;
  uint64_t crashes_fired = 0;
  std::vector<Violation> violations;
  std::map<std::string, uint64_t> tested_per_site;
};

using ProgressFn = std::function<void(uint64_t done, uint64_t total)>;

// Pass 1 + pass 2 over the selected events.
MatrixResult run_matrix(const MatrixConfig& cfg, ProgressFn progress = {});

// Greedy reproducer minimization: halve epochs, then ops_per_epoch, as
// long as a full re-sweep of the smaller scenario still violates; the
// returned config + event_index is the minimal failing single run.
struct ShrinkResult {
  MatrixConfig config;
  uint64_t event_index = 0;
  std::string site;
  std::string detail;
  uint64_t sweeps = 0;  // full matrices run while shrinking
};
bool shrink(const MatrixConfig& cfg, const Violation& v, ShrinkResult* out);

// The single command line that reproduces a violation.
std::string reproducer_command(const MatrixConfig& cfg, uint64_t event);

// JSON coverage report: config, per-site census vs tested counts, and any
// violations (with their reproducers).
bool write_json_report(const std::string& path, const MatrixConfig& cfg,
                       const MatrixResult& result, std::string* err);

const char* policy_name(CrashPolicy p);
bool parse_policy(const std::string& s, CrashPolicy* p);

// --- golden-model oracle, exported for property tests ---------------------
// The scenarios' seeded workload and DRAM golden model, usable outside the
// crash harness (tests/async_property_test drives random op/capture/commit
// interleavings against it). Epoch e's ops are a pure function of
// (cfg.seed, e), so golden_model(cfg, sz, N).at[e] is the committed image
// of epoch e for any container that replayed epochs 1..e.

// The scenarios' container geometry (small segments so every event stays
// enumerable); `buffered` selects the buffered-mode variant.
CrpmOptions scenario_options(bool buffered);

struct GoldenModel {
  std::vector<std::vector<uint8_t>> at;  // at[e] = committed image of epoch e
};
GoldenModel golden_model(const MatrixConfig& cfg, uint64_t region_size,
                         uint64_t max_epoch);

// Replays epoch `epoch`'s ops into the container (annotate + store + root).
void apply_golden_epoch(const MatrixConfig& cfg, Container& c,
                        uint64_t epoch);

// Image + root oracle: container state equals the golden image of `epoch`.
bool matches_golden(Container& c, const GoldenModel& g, uint64_t epoch,
                    std::string* why);

}  // namespace crpm::chaos
