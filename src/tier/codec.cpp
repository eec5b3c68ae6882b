#include "tier/codec.h"

#include <cstring>

namespace crpm::tier {

namespace {

// --- lzb: greedy LZ77 with an 8K-entry hash table ------------------------
//
// Stream grammar (all lengths unsigned, offsets little-endian):
//
//   sequence := token [lit_ext*] literal* (offset16 [match_ext*])?
//   token    := (lit_len:4 << 4) | match_len:4
//
// lit_len 15 extends with 255-run bytes plus a final byte < 255 (LZ4
// style); match lengths are stored minus the 4-byte minimum and extend the
// same way. The final sequence of a block carries only literals: the
// decoder knows it is last because the output is full after copying them.

constexpr size_t kHashBits = 13;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// Decoder fast path: sequences copy in fixed 32-byte (literals) or 16-byte
// (matches) pieces while at least this much output room remains.
constexpr size_t kWide = 32;

inline uint32_t read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t hash32(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Emits a length in LZ4 style: the part above `base` as 255-run bytes plus
// a final byte. Returns false when the output budget is exhausted.
inline bool put_ext_len(size_t len, uint8_t* out, size_t cap, size_t* pos) {
  while (len >= 255) {
    if (*pos >= cap) return false;
    out[(*pos)++] = 255;
    len -= 255;
  }
  if (*pos >= cap) return false;
  out[(*pos)++] = static_cast<uint8_t>(len);
  return true;
}

inline bool get_ext_len(const uint8_t* enc, size_t enc_len, size_t* pos,
                        size_t* len) {
  for (;;) {
    if (*pos >= enc_len) return false;
    uint8_t b = enc[(*pos)++];
    *len += b;
    if (b < 255) return true;
    // 255-run bytes keep extending; a malformed stream runs out of input
    // and fails the bounds check above.
  }
}

class LzbCodec final : public Codec {
 public:
  uint32_t id() const override { return kCodecLzb; }
  const char* name() const override { return "lzb"; }

  size_t max_encoded_bytes(size_t raw) const override {
    return raw + raw / 255 + 16;
  }

  size_t encode(const uint8_t* raw, size_t len, uint8_t* out,
                size_t out_cap) const override {
    size_t pos = 0;      // write cursor in out
    size_t anchor = 0;   // first unemitted literal
    size_t ip = 0;       // parse cursor
    uint32_t tab[kHashSize];
    // Positions are stored +1 so 0 means empty.
    std::memset(tab, 0, sizeof(tab));

    while (len >= kMinMatch && ip + kMinMatch <= len) {
      const uint32_t v = read32(raw + ip);
      const uint32_t h = hash32(v);
      const uint32_t cand = tab[h];
      tab[h] = static_cast<uint32_t>(ip + 1);
      if (cand != 0) {
        const size_t mpos = cand - 1;
        if (ip - mpos <= kMaxOffset && read32(raw + mpos) == v) {
          // Extend the match as far as the input allows.
          size_t mlen = kMinMatch;
          while (ip + mlen < len && raw[mpos + mlen] == raw[ip + mlen]) {
            ++mlen;
          }
          if (!emit(raw, anchor, ip - anchor, ip - mpos, mlen, out, out_cap,
                    &pos)) {
            return 0;
          }
          // Seed the table inside the match so long runs keep matching.
          for (size_t k = ip + 1; k + kMinMatch <= ip + mlen && k < len - 3;
               k += 7) {
            tab[hash32(read32(raw + k))] = static_cast<uint32_t>(k + 1);
          }
          ip += mlen;
          anchor = ip;
          continue;
        }
      }
      ++ip;
    }
    // Final literals-only sequence.
    if (!emit(raw, anchor, len - anchor, 0, 0, out, out_cap, &pos)) return 0;
    return pos;
  }

  // Every length is bounds-checked against the exact sequence first. The
  // wide copies may then write up to kWide bytes past the sequence's end,
  // but only inside the output room left: those bytes lie in the
  // not-yet-decoded tail, which later sequences overwrite (a failed decode
  // discards the output anyway). Matches only read already-decoded bytes.
  bool decode(const uint8_t* enc, size_t enc_len, uint8_t* out,
              size_t raw_len) const override {
    size_t ip = 0;
    size_t op = 0;
    while (op < raw_len || ip < enc_len) {
      if (ip >= enc_len) return false;
      const uint8_t token = enc[ip++];
      size_t lit = token >> 4;
      if (lit == 15 && !get_ext_len(enc, enc_len, &ip, &lit)) return false;
      if (ip + lit > enc_len || op + lit > raw_len) return false;
      if (lit <= kWide && enc_len - ip >= kWide && raw_len - op >= kWide) {
        std::memcpy(out + op, enc + ip, kWide);
      } else {
        std::memcpy(out + op, enc + ip, lit);
      }
      ip += lit;
      op += lit;
      if (op == raw_len) {
        // Last sequence: literals only, token match nibble must be clear
        // and the stream must end here.
        return (token & 0x0F) == 0 && ip == enc_len;
      }
      if (ip + 2 > enc_len) return false;
      const size_t offset = enc[ip] | (size_t{enc[ip + 1]} << 8);
      ip += 2;
      size_t mlen = token & 0x0F;
      if (mlen == 15 && !get_ext_len(enc, enc_len, &ip, &mlen)) return false;
      mlen += kMinMatch;
      if (offset == 0 || offset > op || op + mlen > raw_len) return false;
      copy_match(out + op, offset, mlen, raw_len - op);
      op += mlen;
    }
    return op == raw_len;
  }

 private:
  // Copies an mlen-byte match from `offset` bytes back to dst; `room` is
  // the output space left at dst (>= mlen, checked by the caller).
  static void copy_match(uint8_t* dst, size_t offset, size_t mlen,
                         size_t room) {
    const uint8_t* src = dst - offset;
    if (offset >= 16 && room - mlen >= kWide) {
      // No 16-byte piece overlaps its own source, and the last one ends at
      // most 15 bytes past the match, inside the room.
      for (size_t i = 0; i < mlen; i += 16) std::memcpy(dst + i, src + i, 16);
    } else if (offset >= mlen) {
      std::memcpy(dst, src, mlen);
    } else {
      // Overlapping match: a run with period `offset`. Copy whole periods
      // from the run's start; each copy doubles the run, so the piece
      // doubles too and never overlaps its source.
      size_t piece = offset;
      while (mlen > 0) {
        const size_t n = piece < mlen ? piece : mlen;
        std::memcpy(dst, src, n);
        dst += n;
        mlen -= n;
        piece += n;
      }
    }
  }

  static bool emit(const uint8_t* raw, size_t lit_start, size_t lit,
                   size_t offset, size_t mlen, uint8_t* out, size_t cap,
                   size_t* pos) {
    const size_t lit_nib = lit < 15 ? lit : 15;
    size_t match_nib = 0;
    if (mlen != 0) {
      const size_t stored = mlen - kMinMatch;
      match_nib = stored < 15 ? stored : 15;
    }
    if (*pos >= cap) return false;
    out[(*pos)++] = static_cast<uint8_t>((lit_nib << 4) | match_nib);
    if (lit_nib == 15 && !put_ext_len(lit - 15, out, cap, pos)) return false;
    if (*pos + lit > cap) return false;
    std::memcpy(out + *pos, raw + lit_start, lit);
    *pos += lit;
    if (mlen == 0) return true;  // final literals-only sequence
    if (*pos + 2 > cap) return false;
    out[(*pos)++] = static_cast<uint8_t>(offset & 0xFF);
    out[(*pos)++] = static_cast<uint8_t>(offset >> 8);
    if (match_nib == 15 &&
        !put_ext_len(mlen - kMinMatch - 15, out, cap, pos)) {
      return false;
    }
    return true;
  }
};

const LzbCodec g_lzb;

}  // namespace

const Codec* codec_by_id(uint32_t id) {
  switch (id) {
    case kCodecLzb:
      return &g_lzb;
    default:
      return nullptr;
  }
}

const char* codec_name(uint32_t id) {
  switch (id) {
    case kCodecNone:
      return "none";
    case kCodecLzb:
      return "lzb";
    default:
      return "?";
  }
}

}  // namespace crpm::tier
