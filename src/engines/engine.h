// Pluggable checkpoint engines (DESIGN.md section 14).
//
// Every checkpoint strategy in the tree — the paper's dual-replica FOCA
// protocol (Container, behind the FocaEngine adapter), the undo-log and
// page-COW baselines (src/baselines, which implement Engine directly), and
// the adaptive per-segment hybrid (adaptive.h) — is reachable through one
// interface so they can be swapped at runtime (CrpmOptions::engine) and
// compared apples-to-apples: the cross-engine differential harness
// (tests/engine_differential_test.cpp) replays one seeded workload through
// every engine plus a DRAM golden model and asserts bit-identical
// recovered state.
//
// The contract every engine implements:
//
//   * data()/capacity()      a flat working window of the validated
//                            main_region_size bytes (the baselines round
//                            it up to whole pages). foca and the baselines
//                            expose their whole data area; the adaptive
//                            engine keeps its root block at the start of
//                            its data area and places the window AFTER
//                            it. Window offset 0 is always application
//                            state.
//   * annotate(addr, len)    MUST precede every store into the window
//                            (the Container contract; a no-op for the
//                            OS-traced pagecow engine).
//   * checkpoint()           atomically promotes the working state to the
//                            new committed state; committed_epoch() rises
//                            by one.
//   * reopening the same device recovers the newest committed epoch:
//     window contents bit-identical to the state at that commit — before
//     the first commit, the zero-filled window of epoch 0.
//
// Root semantics differ by protocol and are surfaced as a capability:
// engines with epoch_consistent_roots() (foca, adaptive) commit root
// updates with the epoch and roll them back together with the data;
// the baselines persist roots immediately, so after a crash a root may
// run ahead of the recovered data. Callers that need uniform semantics
// set roots immediately before checkpoint().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "nvm/device.h"

namespace crpm {
class Container;
}

namespace crpm::engines {

// Per-engine observability (crpm_inspect stats <engine>). Fixed engines
// report every segment under their single strategy; the adaptive engine
// fills the transition/decision counters.
struct EngineCounters {
  uint64_t epochs = 0;             // checkpoints committed this session
  uint64_t segments_log = 0;       // segments currently in LOG strategy
  uint64_t segments_cow = 0;       // segments currently in COW strategy
  uint64_t transitions_to_cow = 0; // LOG->COW switches (incl. mid-epoch)
  uint64_t transitions_to_log = 0; // COW->LOG demotions (hysteresis)
  uint64_t midepoch_promotions = 0;  // LOG->COW inside an open epoch
  uint64_t decisions = 0;          // per-segment strategy evaluations
  uint64_t log_entries = 0;        // block pre-images appended
  uint64_t segment_preimages = 0;  // whole-segment pre-images appended
  uint64_t trace_bytes = 0;        // bytes persisted while tracing writes
  uint64_t checkpoint_bytes = 0;   // bytes flushed inside checkpoints

  // One-line "k=v k=v ..." rendering for tools and logs.
  std::string to_string() const;
};

class Engine {
 public:
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual const char* name() const = 0;

  // Base and size of the application-visible working window.
  virtual uint8_t* data() = 0;
  virtual uint64_t capacity() const = 0;

  // Write instrumentation; call before every store into the window.
  virtual void annotate(const void* addr, size_t len) = 0;

  // Commit the working state as the next checkpoint.
  virtual void checkpoint() = 0;

  // Root pointer slots (kNumRoots of them); see the header comment for
  // the per-engine durability semantics.
  virtual void set_root(uint32_t slot, uint64_t off) = 0;
  virtual uint64_t get_root(uint32_t slot) = 0;

  virtual uint64_t committed_epoch() const = 0;

  // True if opening formatted a fresh region (no prior state existed).
  virtual bool fresh() const = 0;

  virtual EngineCounters counters() const = 0;

  // Capability: root updates commit and roll back with the epoch.
  virtual bool epoch_consistent_roots() const { return false; }

  // Capability: the underlying Container, for engines built on one —
  // snapshot/archive attachment and the async pipeline work through it.
  // Null for the baselines and the adaptive engine.
  virtual Container* container() { return nullptr; }
  bool supports_archive() { return container() != nullptr; }

 protected:
  Engine() = default;
};

// Engine registry. open_engine() dispatches on opt.engine (validated());
// engine_device_size() is the per-engine analogue of
// Container::required_device_size() — size the device with it before
// opening.
std::vector<std::string> engine_names();
uint64_t engine_device_size(const CrpmOptions& opt);
std::unique_ptr<Engine> open_engine(NvmDevice* dev, const CrpmOptions& opt);

}  // namespace crpm::engines
