// The checkpoint abstraction (DESIGN.md section 14). Every checkpoint
// strategy implements Engine directly: the paper's FOCA protocol
// (Container), the undo-log and page-COW baselines (src/baselines) and
// the adaptive hybrid (src/engines/adaptive.h). engines::open_engine()
// picks one by CrpmOptions::engine, and the differential harness
// (tests/engine_differential_test.cpp) proves them equivalent.
//
// The contract:
//
//   * data()/capacity()      a flat working window of at least the
//                            validated main_region_size bytes; window
//                            offset 0 is always application state.
//   * annotate(addr, len)    MUST precede every store into the window
//                            (a no-op for the OS-traced pagecow engine).
//   * checkpoint()           ends the epoch: the working state becomes the
//                            next checkpoint, and committed_epoch() rises
//                            by one once it is durable.
//   * wait_committed()       returns once every ended epoch is durable.
//                            Sync is the degenerate async case: only an
//                            async_checkpoint Container commits after
//                            checkpoint() returns; for every other engine
//                            this is a no-op.
//   * reopening the same device recovers the newest committed epoch:
//     the window bit-identical to the state at that commit (before the
//     first commit, the zero-filled window of epoch 0).
//
// Roots: foca and adaptive commit root updates with the epoch and roll
// them back with the data; the baselines persist roots immediately, so
// after a crash a root may run ahead of the recovered data. Callers that
// need uniform semantics set roots immediately before checkpoint().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace crpm {

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

  // Ends the epoch; see the header comment for the durability contract.
  virtual void checkpoint() = 0;
  virtual void wait_committed() {}

  // Root pointer slots (kNumRoots of them); see the header comment for
  // the per-engine durability semantics.
  virtual void set_root(uint32_t slot, uint64_t off) = 0;
  virtual uint64_t get_root(uint32_t slot) const = 0;

  virtual uint64_t committed_epoch() const = 0;

  // True if opening formatted a fresh region (no prior state existed).
  virtual bool fresh() const = 0;

  virtual EngineCounters counters() const = 0;

 protected:
  Engine() = default;
};

}  // namespace crpm
