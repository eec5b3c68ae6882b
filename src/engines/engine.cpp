#include "engines/engine.h"

#include <algorithm>
#include <iterator>

#include "baselines/page_policy.h"
#include "baselines/undolog.h"
#include "core/container.h"
#include "engines/adaptive.h"
#include "util/logging.h"

namespace crpm::engines {

namespace {

// One row per engine; every function takes validated options.
struct EngineEntry {
  const char* name;
  uint64_t (*device_size)(const CrpmOptions& opt);
  std::unique_ptr<Engine> (*open)(NvmDevice* dev, const CrpmOptions& opt);
};

const EngineEntry kEngines[] = {
    {"foca", &Container::required_device_size,
     [](NvmDevice* dev, const CrpmOptions& opt) -> std::unique_ptr<Engine> {
       return Container::open(dev, opt);
     }},
    {"undolog",
     [](const CrpmOptions& opt) {
       return UndoLog::required_device_size(opt.main_region_size);
     },
     [](NvmDevice* dev, const CrpmOptions& opt) -> std::unique_ptr<Engine> {
       return std::make_unique<UndoLog>(dev, opt.main_region_size,
                                        opt.segment_size);
     }},
    {"pagecow",
     [](const CrpmOptions& opt) {
       return PageCkpt::required_device_size(opt.main_region_size);
     },
     [](NvmDevice* dev, const CrpmOptions& opt) -> std::unique_ptr<Engine> {
       return std::make_unique<PageCkpt>(dev, opt.main_region_size,
                                         PageTracerKind::kMprotect,
                                         opt.segment_size);
     }},
    {"adaptive", &AdaptiveEngine::required_device_size,
     [](NvmDevice* dev, const CrpmOptions& opt) -> std::unique_ptr<Engine> {
       return std::make_unique<AdaptiveEngine>(dev, opt);
     }},
};

const EngineEntry& entry_for(const CrpmOptions& opt) {
  const EngineEntry* e = std::find_if(
      std::begin(kEngines), std::end(kEngines),
      [&](const EngineEntry& row) { return opt.engine == row.name; });
  CRPM_CHECK(e != std::end(kEngines), "unknown engine \"%s\"",
             opt.engine.c_str());
  return *e;
}

}  // namespace

std::vector<std::string> engine_names() {
  std::vector<std::string> names;
  for (const EngineEntry& e : kEngines) names.push_back(e.name);
  return names;
}

uint64_t engine_device_size(const CrpmOptions& opt_in) {
  const CrpmOptions opt = opt_in.validated();
  return entry_for(opt).device_size(opt);
}

std::unique_ptr<Engine> open_engine(NvmDevice* dev,
                                    const CrpmOptions& opt_in) {
  const CrpmOptions opt = opt_in.validated();
  return entry_for(opt).open(dev, opt);
}

}  // namespace crpm::engines
