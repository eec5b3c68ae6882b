#include "workload/kv.h"

#include <memory>

#include "baselines/crpm_policy.h"
#include "baselines/dali_map.h"
#include "baselines/lmc.h"
#include "baselines/nvmnp.h"
#include "baselines/page_policy.h"
#include "baselines/undolog.h"
#include "containers/phashmap.h"
#include "containers/pmap.h"
#include "util/logging.h"

namespace crpm {

const char* system_name(SystemKind k) {
  switch (k) {
    case SystemKind::kMprotect: return "mprotect";
    case SystemKind::kSoftDirty: return "soft-dirty";
    case SystemKind::kUndoLog: return "undo-log";
    case SystemKind::kLmc: return "LMC";
    case SystemKind::kDali: return "Dali";
    case SystemKind::kNvmNp: return "NVM-NP";
    case SystemKind::kCrpmDefault: return "libcrpm-Default";
    case SystemKind::kCrpmBuffered: return "libcrpm-Buffered";
  }
  return "?";
}

const char* structure_name(StructureKind k) {
  return k == StructureKind::kMap ? "map" : "unordered_map";
}

bool system_supported(SystemKind k, StructureKind s) {
  if (k == SystemKind::kDali) return s == StructureKind::kUnorderedMap;
  if (k == SystemKind::kSoftDirty) return SoftDirtyTracer::available();
  return true;
}

namespace {

// Bytes of program state the containers need for `keys` live keys.
uint64_t data_size_for(StructureKind s, uint64_t keys) {
  uint64_t per_key = s == StructureKind::kMap ? 64 : 48;  // node + slack
  uint64_t buckets = s == StructureKind::kUnorderedMap ? keys * 8 : 0;
  return ((keys * per_key + buckets) * 5 / 4 + (1 << 20) + 4095) &
         ~uint64_t{4095};
}

// Per-policy metric extraction (fences/media are added by the caller).
void policy_metrics(CrpmPolicy& p, KvMetrics* m) {
  auto s = p.container().stats().snapshot();
  m->checkpoint_bytes = s.checkpoint_bytes;
  m->trace_ns = s.trace_ns;
  m->epochs = s.epochs;
  m->async_capture_ns = s.async_capture_ns;
  m->async_backpressure_ns = s.async_backpressure_ns;
  m->async_steal_copies = s.async_steal_copies;
}
template <typename P>
void policy_metrics(P& p, KvMetrics* m) {
  const BaselineStats& b = p.protocol().bstats();
  m->checkpoint_bytes = b.checkpoint_bytes;
  m->trace_ns = b.trace_ns;
  m->epochs = b.epochs;
}
void policy_metrics(NvmNpPolicy&, KvMetrics*) {}

template <typename P>
class PolicyKv final : public KvBench {
 public:
  PolicyKv(std::string name, std::unique_ptr<P> policy, StructureKind s,
           uint64_t buckets)
      : name_(std::move(name)), policy_(std::move(policy)) {
    if (s == StructureKind::kUnorderedMap) {
      hash_ = std::make_unique<PHashMap<uint64_t, uint64_t, P>>(*policy_,
                                                                buckets);
    } else {
      tree_ = std::make_unique<PMap<uint64_t, uint64_t, P>>(*policy_);
    }
  }

  bool insert(uint64_t key, uint64_t value) override {
    return hash_ ? hash_->insert(key, value) : tree_->insert(key, value);
  }
  bool get(uint64_t key, uint64_t* value) override {
    return hash_ ? hash_->find(key, value) : tree_->find(key, value);
  }
  void put(uint64_t key, uint64_t value) override {
    if (hash_) {
      hash_->put(key, value);
    } else {
      tree_->put(key, value);
    }
  }
  void checkpoint() override { policy_->checkpoint(); }

  KvMetrics metrics() const override {
    KvMetrics m;
    policy_metrics(*policy_, &m);
    auto snap = policy_->protocol().device()->stats().snapshot();
    m.sfence = snap.sfence;
    m.media_write_bytes = snap.media_write_bytes;
    return m;
  }
  const char* name() const override { return name_.c_str(); }

 private:
  std::string name_;
  std::unique_ptr<P> policy_;
  std::unique_ptr<PHashMap<uint64_t, uint64_t, P>> hash_;
  std::unique_ptr<PMap<uint64_t, uint64_t, P>> tree_;
};

class DaliKv final : public KvBench {
 public:
  explicit DaliKv(const KvConfig& cfg) {
    uint64_t data = cfg.max_keys * 64 * 2 + (1 << 20);  // version churn room
    auto dev = std::make_unique<HeapNvmDevice>(
        DaliMap::required_device_size(cfg.max_keys, data));
    dev->set_cost_model(cfg.cost_model);
    map_ = std::make_unique<DaliMap>(std::move(dev), cfg.max_keys, data);
  }

  bool insert(uint64_t key, uint64_t value) override {
    if (map_->get(key, nullptr)) return false;
    map_->put(key, value);
    return true;
  }
  bool get(uint64_t key, uint64_t* value) override {
    return map_->get(key, value);
  }
  void put(uint64_t key, uint64_t value) override { map_->put(key, value); }
  void checkpoint() override {
    map_->checkpoint();
    ++epochs_;
  }

  KvMetrics metrics() const override {
    KvMetrics m;
    auto snap = map_->device()->stats().snapshot();
    m.sfence = snap.sfence;
    m.media_write_bytes = snap.media_write_bytes;
    m.checkpoint_bytes = map_->checkpoint_bytes();
    m.epochs = epochs_;
    return m;
  }
  const char* name() const override { return "Dali"; }

 private:
  std::unique_ptr<DaliMap> map_;
  uint64_t epochs_ = 0;
};

template <typename P, typename... Args>
std::unique_ptr<KvBench> make_policy_kv(SystemKind k, StructureKind s,
                                        const KvConfig& cfg,
                                        uint64_t device_size, Args&&... args) {
  auto dev = std::make_unique<HeapNvmDevice>(device_size);
  dev->set_cost_model(cfg.cost_model);
  auto policy =
      std::make_unique<P>(std::move(dev), std::forward<Args>(args)...);
  return std::make_unique<PolicyKv<P>>(system_name(k), std::move(policy), s,
                                       cfg.max_keys);
}

}  // namespace

std::unique_ptr<KvBench> make_kv(SystemKind system, StructureKind structure,
                                 const KvConfig& cfg) {
  CRPM_CHECK(system_supported(system, structure),
             "unsupported system/structure combination: %s over %s",
             system_name(system), structure_name(structure));
  uint64_t data = data_size_for(structure, cfg.max_keys);
  switch (system) {
    case SystemKind::kMprotect:
      return make_policy_kv<PageCkptPolicy>(
          system, structure, cfg, PageCkpt::required_device_size(data),
          data, PageTracerKind::kMprotect);
    case SystemKind::kSoftDirty:
      return make_policy_kv<PageCkptPolicy>(
          system, structure, cfg, PageCkpt::required_device_size(data),
          data, PageTracerKind::kSoftDirty);
    case SystemKind::kUndoLog:
      return make_policy_kv<UndoLogPolicy>(
          system, structure, cfg, UndoLog::required_device_size(data),
          data);
    case SystemKind::kLmc:
      return make_policy_kv<LmcPolicy>(
          system, structure, cfg, Lmc::required_device_size(data),
          data);
    case SystemKind::kDali:
      return std::make_unique<DaliKv>(cfg);
    case SystemKind::kNvmNp:
      return make_policy_kv<NvmNpPolicy>(system, structure, cfg,
                                         data + (1 << 20));
    case SystemKind::kCrpmDefault:
    case SystemKind::kCrpmBuffered: {
      CrpmOptions opt;
      opt.segment_size = cfg.segment_size;
      opt.block_size = cfg.block_size;
      opt.main_region_size = data;
      opt.eager_cow_segments = cfg.eager_cow_segments;
      opt.wbinvd_threshold = cfg.wbinvd_threshold;
      opt.buffered = system == SystemKind::kCrpmBuffered;
      if (system == SystemKind::kCrpmDefault) {
        opt.async_checkpoint = cfg.async_checkpoint;
        opt.async_workers = cfg.async_workers;
      }
      return make_policy_kv<CrpmPolicy>(
          system, structure, cfg, Container::required_device_size(opt), opt);
    }
  }
  CRPM_CHECK(false, "unreachable");
  return nullptr;
}

}  // namespace crpm
