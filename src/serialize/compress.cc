#include "serialize/compress.h"

#include <string_view>

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

Status RleDecompress(std::string_view in, size_t expected, std::string* out) {
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
  if (out->size() != expected) return Status::Corruption("RLE size mismatch");
  return Status::OK();
}

}  // namespace

std::string Compress(const std::string& input, Codec codec) {
  // kLz is retired: a request for it is encoded with RLE, the one codec.
  const std::string body =
      codec == Codec::kNone ? std::string() : RleCompress(input);
  const bool raw = codec == Codec::kNone || body.size() >= input.size();
  std::string out;
  out.push_back(static_cast<char>(raw ? Codec::kNone : Codec::kRle));
  PutVarint64(&out, input.size());
  out += raw ? input : body;
  return out;
}

Result<std::string_view> DecompressView(std::string_view input,
                                        std::string* rle_out) {
  if (input.empty()) return Status::Corruption("empty compressed blob");
  Decoder dec(input.data() + 1, input.size() - 1);
  uint64_t expected;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&expected));
  const std::string_view body(input.data() + (input.size() - dec.remaining()),
                              dec.remaining());
  switch (static_cast<Codec>(input[0])) {
    case Codec::kNone:
      if (body.size() != expected)
        return Status::Corruption("raw blob size mismatch");
      return body;
    case Codec::kRle:
      FLOR_RETURN_IF_ERROR(RleDecompress(body, expected, rle_out));
      return std::string_view(*rle_out);
    case Codec::kLz:
      return Status::Corruption("LZ blob: the LZ codec is retired");
  }
  return Status::Corruption("unknown codec byte");
}

Result<std::string> Decompress(const std::string& input) {
  std::string rle_out;
  FLOR_ASSIGN_OR_RETURN(std::string_view body,
                        DecompressView(input, &rle_out));
  if (static_cast<Codec>(input[0]) == Codec::kRle) return rle_out;
  return std::string(body);
}

Result<Codec> PeekCodec(const std::string& input) {
  if (input.empty()) return Status::Corruption("empty compressed blob");
  uint8_t tag = static_cast<uint8_t>(input[0]);
  if (tag > static_cast<uint8_t>(Codec::kLz))
    return Status::Corruption("unknown codec byte");
  return static_cast<Codec>(tag);
}

}  // namespace flor
