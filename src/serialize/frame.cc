#include "serialize/frame.h"

#include "common/crc32.h"
#include "serialize/coding.h"

namespace flor {

void AppendFrame(std::string* dst, const std::string& payload) {
  PutFixed32(dst, Crc32c(payload.data(), payload.size()));
  PutVarint64(dst, payload.size());
  dst->append(payload);
}

Status FrameReader::Next(std::string_view* out) {
  if (done()) return Status::NotFound("end of frames");
  Decoder dec(data_.data() + pos_, data_.size() - pos_);
  uint32_t crc;
  FLOR_RETURN_IF_ERROR(dec.GetFixed32(&crc));
  uint64_t len;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&len));
  if (dec.remaining() < len)
    return Status::Corruption("frame payload truncated");
  const size_t header = (data_.size() - pos_) - dec.remaining();
  const char* payload = data_.data() + pos_ + header;
  if (Crc32c(payload, len) != crc)
    return Status::Corruption("frame checksum mismatch");
  *out = std::string_view(payload, len);
  pos_ += header + len;
  return Status::OK();
}

Status FrameReader::Next(std::string* out) {
  std::string_view payload;
  FLOR_RETURN_IF_ERROR(Next(&payload));
  out->assign(payload);
  return Status::OK();
}

Result<std::vector<std::string>> ReadFrames(const std::string& data) {
  std::vector<std::string> out;
  FrameReader reader(data);
  while (!reader.done()) {
    std::string payload;
    FLOR_RETURN_IF_ERROR(reader.Next(&payload));
    out.push_back(std::move(payload));
  }
  return out;
}

}  // namespace flor
