#include "serialize/compress.h"

#include <cstring>
#include <vector>

#include "serialize/coding.h"

namespace flor {

namespace {

// --------------------------------------------------------------- RLE ----
// Format: sequence of (control byte, payload). control < 0x80: literal run
// of control+1 bytes follows. control >= 0x80: repeated run; one byte
// follows, repeated (control - 0x80 + 2) times (min useful run is 2).

std::string RleCompress(const std::string& in) {
  std::string out;
  size_t i = 0;
  const size_t n = in.size();
  while (i < n) {
    // Measure the run starting at i.
    size_t run = 1;
    while (i + run < n && in[i + run] == in[i] && run < 129) ++run;
    if (run >= 2) {
      out.push_back(static_cast<char>(0x80 + (run - 2)));
      out.push_back(in[i]);
      i += run;
      continue;
    }
    // Collect a literal stretch until the next run of >= 3 (a run of 2 is
    // not worth breaking a literal for).
    size_t lit_start = i;
    size_t lit_len = 0;
    while (i < n && lit_len < 128) {
      size_t r = 1;
      while (i + r < n && in[i + r] == in[i] && r < 3) ++r;
      if (r >= 3) break;
      i += 1;
      lit_len += 1;
    }
    out.push_back(static_cast<char>(lit_len - 1));
    out.append(in, lit_start, lit_len);
  }
  return out;
}

// A 2-byte run token emits at most kMaxRun bytes; literals expand nothing.
constexpr size_t kMaxRun = 129;

Status RleDecompress(const std::string& in, size_t expected, std::string* out) {
  // The size varint is untrusted: reject what the body cannot decode to
  // before reserving for it.
  if (expected > in.size() * kMaxRun / 2)
    return Status::Corruption("RLE declared size exceeds its body");
  out->clear();
  out->reserve(expected);
  size_t i = 0;
  while (i < in.size()) {
    uint8_t control = static_cast<uint8_t>(in[i++]);
    if (control < 0x80) {
      size_t len = control + 1;
      if (i + len > in.size()) return Status::Corruption("RLE literal overrun");
      out->append(in, i, len);
      i += len;
    } else {
      if (i >= in.size()) return Status::Corruption("RLE run overrun");
      size_t len = (control - 0x80) + 2;
      out->append(len, in[i++]);
    }
  }
  if (out->size() != expected)
    return Status::Corruption("RLE size mismatch");
  return Status::OK();
}

// --------------------------------------------------------------- LZSS ---
// Tokens: flag byte governs the next 8 items (LSB first). Bit clear =
// literal byte. Bit set = match: 2-byte little-endian (offset-1) within a
// 64 KiB window, then 1 byte (length - kMinMatch), kMinMatch = 4.

constexpr size_t kWindow = 65536;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 4 + 255;
constexpr size_t kHashBits = 15;

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::string LzCompress(const std::string& in) {
  const auto* data = reinterpret_cast<const uint8_t*>(in.data());
  const size_t n = in.size();
  std::string out;
  out.reserve(n / 2 + 16);

  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  std::vector<int64_t> prev(n, -1);

  std::string group;          // pending bytes for the current flag group
  uint8_t flags = 0;
  int flag_count = 0;

  auto flush_group = [&]() {
    if (flag_count == 0) return;
    out.push_back(static_cast<char>(flags));
    out += group;
    group.clear();
    flags = 0;
    flag_count = 0;
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (i + kMinMatch <= n) {
      uint32_t h = HashAt(data + i);
      int64_t cand = head[h];
      int chain = 16;  // bounded chain walk keeps compression O(n)
      while (cand >= 0 && chain-- > 0 &&
             i - static_cast<size_t>(cand) <= kWindow) {
        const size_t c = static_cast<size_t>(cand);
        size_t len = 0;
        const size_t max_len = std::min(kMaxMatch, n - i);
        while (len < max_len && data[c + len] == data[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = i - c;
          if (len == max_len) break;
        }
        cand = prev[c];
      }
    }

    if (best_len >= kMinMatch) {
      flags |= static_cast<uint8_t>(1u << flag_count);
      uint16_t off = static_cast<uint16_t>(best_off - 1);
      group.push_back(static_cast<char>(off & 0xff));
      group.push_back(static_cast<char>(off >> 8));
      group.push_back(static_cast<char>(best_len - kMinMatch));
      // Insert hash entries for the covered positions.
      const size_t end = std::min(i + best_len, n >= 3 ? n - 3 : 0);
      for (size_t j = i; j < end; ++j) {
        uint32_t h = HashAt(data + j);
        prev[j] = head[h];
        head[h] = static_cast<int64_t>(j);
      }
      i += best_len;
    } else {
      if (i + 4 <= n) {
        uint32_t h = HashAt(data + i);
        prev[i] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      group.push_back(static_cast<char>(data[i]));
      i += 1;
    }
    if (++flag_count == 8) flush_group();
  }
  flush_group();
  return out;
}

Status LzDecompress(const std::string& in, size_t expected, std::string* out) {
  // Untrusted size varint, as in RleDecompress: a 3-byte match token
  // emits at most kMaxMatch bytes, a literal byte one.
  if (expected > in.size() * kMaxMatch / 3)
    return Status::Corruption("LZ declared size exceeds its body");
  out->clear();
  out->reserve(expected);
  size_t i = 0;
  const size_t n = in.size();
  while (i < n) {
    uint8_t flags = static_cast<uint8_t>(in[i++]);
    for (int b = 0; b < 8 && i < n; ++b) {
      if (flags & (1u << b)) {
        if (i + 3 > n) return Status::Corruption("LZ match token truncated");
        uint16_t off_m1 = static_cast<uint8_t>(in[i]) |
                          (static_cast<uint16_t>(static_cast<uint8_t>(in[i + 1]))
                           << 8);
        size_t len = static_cast<uint8_t>(in[i + 2]) + kMinMatch;
        i += 3;
        size_t off = static_cast<size_t>(off_m1) + 1;
        if (off > out->size())
          return Status::Corruption("LZ match offset beyond output");
        size_t src = out->size() - off;
        for (size_t k = 0; k < len; ++k) out->push_back((*out)[src + k]);
      } else {
        out->push_back(in[i++]);
      }
    }
  }
  if (out->size() != expected) return Status::Corruption("LZ size mismatch");
  return Status::OK();
}

}  // namespace

std::string Compress(const std::string& input, Codec codec) {
  std::string body;
  Codec used = codec;
  switch (codec) {
    case Codec::kNone:
      body = input;
      break;
    case Codec::kRle:
      body = RleCompress(input);
      break;
    case Codec::kLz:
      body = LzCompress(input);
      break;
  }
  if (used != Codec::kNone && body.size() >= input.size()) {
    used = Codec::kNone;  // compression did not help; store raw
    body = input;
  }
  std::string out;
  out.push_back(static_cast<char>(used));
  PutVarint64(&out, input.size());
  out += body;
  return out;
}

Result<std::string> Decompress(const std::string& input) {
  if (input.empty()) return Status::Corruption("empty compressed blob");
  Codec codec = static_cast<Codec>(input[0]);
  Decoder dec(input.data() + 1, input.size() - 1);
  uint64_t expected;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&expected));
  std::string body(input.data() + (input.size() - dec.remaining()),
                   dec.remaining());
  std::string out;
  switch (codec) {
    case Codec::kNone:
      if (body.size() != expected)
        return Status::Corruption("raw blob size mismatch");
      return body;
    case Codec::kRle:
      FLOR_RETURN_IF_ERROR(RleDecompress(body, expected, &out));
      return out;
    case Codec::kLz:
      FLOR_RETURN_IF_ERROR(LzDecompress(body, expected, &out));
      return out;
  }
  return Status::Corruption("unknown codec byte");
}

Result<Codec> PeekCodec(const std::string& input) {
  if (input.empty()) return Status::Corruption("empty compressed blob");
  uint8_t tag = static_cast<uint8_t>(input[0]);
  if (tag > static_cast<uint8_t>(Codec::kLz))
    return Status::Corruption("unknown codec byte");
  return static_cast<Codec>(tag);
}

}  // namespace flor
