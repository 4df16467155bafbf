#include "serialize/sections.h"

#include <cstring>

#include "common/strings.h"
#include "serialize/frame.h"

namespace flor {

std::string EncodeSections(const std::string& tag,
                           const std::vector<std::string>& sections) {
  std::string out;
  AppendFrame(&out, StrCat(tag, "\t", sections.size()));
  for (const std::string& section : sections) AppendFrame(&out, section);
  return out;
}

Result<std::vector<std::string>> DecodeSections(const std::string& tag,
                                                const std::string& data) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> frames, ReadFrames(data));
  uint64_t declared = 0;
  if (frames.empty() || frames[0].compare(0, tag.size() + 1, tag + "\t") ||
      !ParseU64(frames[0].substr(tag.size() + 1), &declared)) {
    return Status::Corruption(StrCat("expected a '", tag, "' header"));
  }
  if (declared != frames.size() - 1) {
    return Status::Corruption(
        StrCat(tag, ": header declares ", declared, " sections but ",
               frames.size() - 1,
               " are present (truncated at a frame boundary?)"));
  }
  frames.erase(frames.begin());
  return frames;
}

Status ExpectSections(const std::vector<std::string>& sections, size_t n,
                      const char* what) {
  if (sections.size() == n) return Status::OK();
  return Status::Corruption(StrCat(what, ": expected ", n,
                                   " sections, got ", sections.size()));
}

MetaWriter& MetaWriter::Double(const char* key, double value) {
  return Str(key, StrFormat("%a", value));
}

void MetaReader::Fail(const char* key, const std::string& why) {
  if (status_.ok())
    status_ = Status::Corruption(StrCat("meta '", key, "': ", why));
}

bool MetaReader::Next(const char* key, std::string* value) {
  if (!status_.ok()) return false;
  const size_t end = block_.find('\n', pos_);
  const size_t key_len = std::strlen(key);
  if (end == std::string::npos || end - pos_ <= key_len ||
      block_.compare(pos_, key_len, key) != 0 ||
      block_[pos_ + key_len] != '\t') {
    Fail(key, "missing or out of order");
    return false;
  }
  value->assign(block_, pos_ + key_len + 1, end - pos_ - key_len - 1);
  pos_ = end + 1;
  return true;
}

bool MetaReader::ReadInt(const char* key, int64_t min, int64_t max,
                         int64_t* out) {
  std::string value;
  if (!Next(key, &value)) return false;
  if (ParseI64(value, out) && *out >= min && *out <= max) return true;
  Fail(key, StrCat("bad integer '", value, "'"));
  return false;
}

MetaReader& MetaReader::Double(const char* key, double* out) {
  std::string value;
  if (Next(key, &value) && !ParseF64(value, out))
    Fail(key, StrCat("bad double '", value, "'"));
  return *this;
}

Status MetaReader::Finish() const {
  if (status_.ok() && pos_ != block_.size())
    return Status::Corruption("meta: unexpected trailing lines");
  return status_;
}

std::vector<std::string> EncodeStatus(int64_t code,
                                      const std::string& message) {
  return {MetaWriter().Int("code", code).Finish(), message};
}

std::vector<std::string> EncodeStatus(const Status& status) {
  return EncodeStatus(static_cast<int64_t>(status.code()), status.message());
}

Status DecodeStatus(const std::vector<std::string>& sections, Status* out) {
  if (sections.size() < 2)
    return Status::Corruption("status: expected a code and a message");
  int64_t code = 0;
  FLOR_RETURN_IF_ERROR(MetaReader(sections[0]).Int("code", &code).Finish());
  if (!IsValidStatusCode(code))
    return Status::Corruption(StrCat("invalid status code ", code));
  *out = Status(static_cast<StatusCode>(code), sections[1]);
  return Status::OK();
}

}  // namespace flor
