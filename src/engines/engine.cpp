#include "engines/engine.h"

#include <cstdio>

#include "baselines/page_policy.h"
#include "baselines/undolog.h"
#include "core/container.h"
#include "core/layout.h"
#include "engines/adaptive.h"
#include "util/logging.h"

namespace crpm::engines {

namespace {

uint64_t segments_of(const CrpmOptions& opt) {
  return (opt.main_region_size + opt.segment_size - 1) / opt.segment_size;
}

// FOCA dual-replica protocol (the paper's design), adapted from Container:
// the one adapter, because it turns the Container's async capture into the
// engine's synchronous checkpoint contract (checkpoint + wait_committed).
// Every segment is protected the same way — one backup copy per epoch —
// so the counters report all segments under the COW strategy; the copy
// traffic itself is accounted in checkpoint_bytes (Container charges CoW
// copies there, not to a separate trace stream).
class FocaEngine final : public Engine {
 public:
  FocaEngine(NvmDevice* dev, const CrpmOptions& opt)
      : opt_(opt), c_(Container::open(dev, opt)) {}

  const char* name() const override { return "foca"; }
  uint8_t* data() override { return c_->data(); }
  uint64_t capacity() const override { return c_->capacity(); }
  void annotate(const void* addr, size_t len) override {
    c_->annotate(addr, len);
  }
  void checkpoint() override {
    c_->checkpoint();
    c_->wait_committed();
  }
  void set_root(uint32_t slot, uint64_t off) override {
    c_->set_root(slot, off);
  }
  uint64_t get_root(uint32_t slot) override { return c_->get_root(slot); }
  uint64_t committed_epoch() const override { return c_->committed_epoch(); }
  bool fresh() const override { return c_->fresh(); }
  bool epoch_consistent_roots() const override { return true; }
  Container* container() override { return c_.get(); }

  EngineCounters counters() const override {
    const CrpmStatsSnapshot s = c_->stats().snapshot();
    EngineCounters c;
    c.epochs = s.epochs;
    c.segments_cow = segments_of(opt_);
    c.segment_preimages = s.cow_count;
    c.checkpoint_bytes = s.checkpoint_bytes;
    return c;
  }

 private:
  CrpmOptions opt_;
  std::unique_ptr<Container> c_;
};

}  // namespace

std::string EngineCounters::to_string() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "epochs=%llu segments_log=%llu segments_cow=%llu "
      "transitions_to_cow=%llu transitions_to_log=%llu "
      "midepoch_promotions=%llu decisions=%llu log_entries=%llu "
      "segment_preimages=%llu trace_bytes=%llu checkpoint_bytes=%llu",
      (unsigned long long)epochs, (unsigned long long)segments_log,
      (unsigned long long)segments_cow, (unsigned long long)transitions_to_cow,
      (unsigned long long)transitions_to_log,
      (unsigned long long)midepoch_promotions, (unsigned long long)decisions,
      (unsigned long long)log_entries, (unsigned long long)segment_preimages,
      (unsigned long long)trace_bytes, (unsigned long long)checkpoint_bytes);
  return buf;
}

std::vector<std::string> engine_names() {
  return {"foca", "undolog", "pagecow", "adaptive"};
}

uint64_t engine_device_size(const CrpmOptions& opt_in) {
  const CrpmOptions opt = opt_in.validated();
  if (opt.engine == "foca") {
    return Container::required_device_size(opt);
  }
  if (opt.engine == "undolog") {
    return UndoLog::required_device_size(opt.main_region_size);
  }
  if (opt.engine == "pagecow") {
    return PageCkpt::required_device_size(opt.main_region_size);
  }
  CRPM_CHECK(opt.engine == "adaptive", "unknown engine \"%s\"",
             opt.engine.c_str());
  return AdaptiveEngine::required_device_size(opt);
}

std::unique_ptr<Engine> open_engine(NvmDevice* dev,
                                    const CrpmOptions& opt_in) {
  const CrpmOptions opt = opt_in.validated();
  if (opt.engine == "foca") {
    return std::make_unique<FocaEngine>(dev, opt);
  }
  if (opt.engine == "undolog") {
    return std::make_unique<UndoLog>(dev, opt.main_region_size,
                                     opt.segment_size);
  }
  if (opt.engine == "pagecow") {
    return std::make_unique<PageCkpt>(dev, opt.main_region_size,
                                      PageTracerKind::kMprotect,
                                      opt.segment_size);
  }
  CRPM_CHECK(opt.engine == "adaptive", "unknown engine \"%s\"",
             opt.engine.c_str());
  return std::make_unique<AdaptiveEngine>(dev, opt);
}

}  // namespace crpm::engines
