// Persistence policy backed by libcrpm (this paper's system): the Heap
// over a Container's working window. Selecting buffered mode in the
// options yields "libcrpm-Buffered"; otherwise "libcrpm-Default".
#pragma once

#include "baselines/policy.h"
#include "core/container.h"

namespace crpm {

using CrpmPolicy = HeapPolicy<Container>;

static_assert(PersistencePolicy<CrpmPolicy>);

}  // namespace crpm
