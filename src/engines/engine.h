// Engine registry (DESIGN.md section 14): opens the checkpoint engine that
// CrpmOptions::engine names. The Engine interface itself, and the contract
// every engine implements, live in core/engine.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "nvm/device.h"

namespace crpm::engines {

// open_engine() dispatches on opt.engine (validated()) and aborts on an
// unknown name; "foca" yields a Container. engine_device_size() is the
// per-engine analogue of Container::required_device_size() — size the
// device with it before opening.
std::vector<std::string> engine_names();
uint64_t engine_device_size(const CrpmOptions& opt);
std::unique_ptr<Engine> open_engine(NvmDevice* dev, const CrpmOptions& opt);

}  // namespace crpm::engines
