// Pluggable per-frame codecs for the archive tiering layer.
//
// A codec transforms the serialized bytes of one archive frame; the
// negotiation is per frame (src/tier/coded.h): the writer tries the
// configured codec and keeps the plain frame whenever the encode does not
// shrink it enough, so a codec only ever has to win, never to round-trip
// incompressible input at a loss. Codec ids are part of the on-disk
// format (CodedExtent::codec) and must never be renumbered.
//
// kCodecLzb is a self-contained LZ77 block compressor in the LZ4 family
// (greedy hash-table matcher, token byte with 4-bit literal/match length
// nibbles, 2-byte little-endian match offsets). It is format-compatible
// with nothing but itself — the point is zero external dependencies with
// LZ4-class speed on checkpoint payloads, which are dominated by runs and
// repeated structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace crpm::tier {

inline constexpr uint32_t kCodecNone = 0;
inline constexpr uint32_t kCodecLzb = 1;

class Codec {
 public:
  virtual ~Codec() = default;
  virtual uint32_t id() const = 0;
  virtual const char* name() const = 0;
  // Upper bound on encode() output for `raw` input bytes.
  virtual size_t max_encoded_bytes(size_t raw) const = 0;
  // Encodes raw[0..len) into out[0..out_cap). Returns the encoded size,
  // or 0 when the input does not fit the budget (caller keeps the raw
  // bytes — returning 0 is negotiation, not an error).
  virtual size_t encode(const uint8_t* raw, size_t len, uint8_t* out,
                        size_t out_cap) const = 0;
  // Decodes enc[0..enc_len) into exactly raw_len bytes at out. False on
  // malformed input (never reads/writes out of bounds).
  virtual bool decode(const uint8_t* enc, size_t enc_len, uint8_t* out,
                      size_t raw_len) const = 0;
};

// Registry lookups; nullptr for unknown ids/names. codec_by_id(kCodecNone)
// is nullptr on purpose: "none" means "do not code the frame".
const Codec* codec_by_id(uint32_t id);
const Codec* codec_by_name(const std::string& name);
const char* codec_name(uint32_t id);  // "none" / "lzb" / "?"

}  // namespace crpm::tier
