// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), seedable for running CRCs.
//
// Lives in util so both the archive format layer (src/snapshot) and the
// tiering layer below it (src/tier) can share one implementation without a
// dependency cycle between their libraries.
//
// On x86-64 hosts with PCLMULQDQ (detected once, at the first call), a
// buffer of 64 B or more is folded with carry-less multiplies up to its
// length rounded down to 16 B; that tail, shorter buffers and other hosts
// run a slice-by-8 table loop. Both compute the same polynomial with
// the same init, xorout and seeding, so every result is bit-identical, and
// a CRC seeded with the CRC of a prefix equals one call over the whole.
#pragma once

#include <cstddef>
#include <cstdint>

namespace crpm {

uint32_t crc32(const void* data, size_t len, uint32_t seed = 0);

namespace detail {

// The slice-by-8 table path alone, for any length; `crc32` must always
// agree with it.
uint32_t crc32_portable(const void* data, size_t len, uint32_t seed = 0);

}  // namespace detail

}  // namespace crpm
