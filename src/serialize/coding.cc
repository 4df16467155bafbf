#include "serialize/coding.h"

namespace flor {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutSignedVarint64(std::string* dst, int64_t v) {
  // Zigzag: maps small-magnitude signed to small unsigned.
  uint64_t z = (static_cast<uint64_t>(v) << 1) ^
               static_cast<uint64_t>(v >> 63);
  PutVarint64(dst, z);
}

void PutFloat(std::string* dst, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed32(dst, bits);
}

void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

void PutLengthPrefixed(std::string* dst, const std::string& s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

Status Decoder::GetFixed32(uint32_t* v) {
  if (remaining() < 4) return Status::Corruption("fixed32 underflow");
  const auto* b = reinterpret_cast<const uint8_t*>(p_);
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  p_ += 4;
  return Status::OK();
}

Status Decoder::GetFixed64(uint64_t* v) {
  uint32_t lo, hi;
  const char* save = p_;
  Status s = GetFixed32(&lo);
  if (s.ok()) s = GetFixed32(&hi);
  if (!s.ok()) {
    p_ = save;
    return s;
  }
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return Status::OK();
}

Status Decoder::GetVarint64(uint64_t* v) {
  const char* save = p_;
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p_ < end_; shift += 7) {
    uint8_t byte = static_cast<uint8_t>(*p_++);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  p_ = save;
  return Status::Corruption("varint64 malformed or truncated");
}

Status Decoder::GetVarint32(uint32_t* v) {
  uint64_t wide;
  FLOR_RETURN_IF_ERROR(GetVarint64(&wide));
  if (wide > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *v = static_cast<uint32_t>(wide);
  return Status::OK();
}

Status Decoder::GetSignedVarint64(int64_t* v) {
  uint64_t z;
  FLOR_RETURN_IF_ERROR(GetVarint64(&z));
  *v = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  return Status::OK();
}

Status Decoder::GetFloat(float* v) {
  uint32_t bits;
  FLOR_RETURN_IF_ERROR(GetFixed32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Decoder::GetDouble(double* v) {
  uint64_t bits;
  FLOR_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string* s) {
  const char* save = p_;
  uint64_t n;
  FLOR_RETURN_IF_ERROR(GetVarint64(&n));
  if (remaining() < n) {
    p_ = save;
    return Status::Corruption("length-prefixed string truncated");
  }
  s->assign(p_, n);
  p_ += n;
  return Status::OK();
}

Status Decoder::GetRaw(void* out, size_t n) {
  if (remaining() < n) return Status::Corruption("raw read underflow");
  if (n > 0) std::memcpy(out, p_, n);  // an empty vector's data() is null
  p_ += n;
  return Status::OK();
}

}  // namespace flor
