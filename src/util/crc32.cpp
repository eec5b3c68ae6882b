#include "util/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crpm {

namespace {

// Slice-by-8: eight derived tables let the hot loop fold 8 input bytes
// per iteration instead of one. Table 0 is the classic bytewise table
// (also used for the sub-8-byte head/tail), table s maps a byte that is
// s positions deeper in the window. Same polynomial, same results as the
// bytewise loop — only the traversal order changes.
struct Crc32Table {
  uint32_t t[8][256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32Table& table() {
  static const Crc32Table tbl;
  return tbl;
}

// Advances the running (pre-inverted) CRC state `c` over `len` bytes.
uint32_t slice8(const uint8_t* p, size_t len, uint32_t c) {
  const auto& t = table().t;
  // The 8-byte fold loads two little-endian words; a big-endian target
  // would need byte swaps here.
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "slice-by-8 fold assumes little-endian loads");
  while (len >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for polynomial 0xEDB88320 that Linux's
// crc32-pclmul and zlib use. Compiled for PCLMUL per function, so the rest
// of the library needs no -m flag; only run it where have_pclmul() holds.
#define CRPM_PCLMUL __attribute__((target("pclmul,sse4.1")))

CRPM_PCLMUL inline __m128i load(const uint8_t* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// Moves lane x forward by the stride k encodes (its low half times k's low
// constant, its high half times k's high one) and adds the next block.
CRPM_PCLMUL inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Advances the running state `c` over `len` bytes; `len` is a multiple of
// 16 and at least 64.
CRPM_PCLMUL uint32_t fold_pclmul(const uint8_t* p, size_t len, uint32_t c) {
  // Four lanes fold 64 B per iteration: x^(4*128+32) and x^(4*128-32).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // One lane folds 16 B: x^(128+32) and x^(128-32).
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // 96 -> 64 bits: x^64.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett reduction: P'(x) and mu = floor(x^64 / P(x)).
  const __m128i poly = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  while (len >= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
    p += 64;
    len -= 64;
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  while (len >= 16) {
    x1 = fold(x1, k3k4, load(p));
    p += 16;
    len -= 16;
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef CRPM_PCLMUL

bool have_pclmul() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}

#endif  // __x86_64__

}  // namespace

uint32_t crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (len >= 64 && have_pclmul()) {
    const size_t body = len & ~size_t{15};
    c = fold_pclmul(p, body, c);
    p += body;
    len -= body;
  }
#endif
  return slice8(p, len, c) ^ 0xFFFFFFFFu;
}

namespace detail {

uint32_t crc32_portable(const void* data, size_t len, uint32_t seed) {
  return slice8(static_cast<const uint8_t*>(data), len, seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace detail

}  // namespace crpm
