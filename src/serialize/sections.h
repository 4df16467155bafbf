// Sectioned messages: the one codec for everything that crosses a process
// or socket boundary — the process replay engine's worker result and error
// files (exec/process_executor.h) and the service wire protocol
// (service/wire.h). Layout, every frame CRC-framed via serialize/frame.h:
//   frame 0  header  "<tag>\t<n>"   (n = number of payload sections)
//   frame 1..n       one payload section each
// The header count catches a cut at an exact frame boundary, the frame
// CRCs catch every other cut or mutation, so a torn, mutated or mistagged
// message always decodes as Corruption, never as a garbage message.
//
// Scalars travel in meta sections, one "key\tvalue\n" line per field
// (values must not contain '\n'), integers in decimal and doubles as
// hexfloat (bit-exact). A Status travels as a meta section holding its
// code, then its raw message.

#ifndef FLOR_SERIALIZE_SECTIONS_H_
#define FLOR_SERIALIZE_SECTIONS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace flor {

/// Header tags; changing one is a format break.
inline constexpr char kResultTag[] = "florres1";
inline constexpr char kWireRequestTag[] = "florwir1\treq";
inline constexpr char kWireResponseTag[] = "florwir1\tres";

std::string EncodeSections(const std::string& tag,
                           const std::vector<std::string>& sections);

/// Corruption on any truncation (an empty message or a cut at a frame
/// boundary included), another tag, or a byte mutation.
Result<std::vector<std::string>> DecodeSections(const std::string& tag,
                                                const std::string& data);

/// Corruption unless `sections` holds exactly `n` entries; `what` names
/// the message in the error.
Status ExpectSections(const std::vector<std::string>& sections, size_t n,
                      const char* what);

/// Builds one meta section, a line per field in call order.
class MetaWriter {
 public:
  MetaWriter& Str(const char* key, const std::string& value) {
    out_.append(key).append(1, '\t').append(value).append(1, '\n');
    return *this;
  }
  MetaWriter& Int(const char* key, int64_t value) {
    return Str(key, std::to_string(value));
  }
  MetaWriter& Bool(const char* key, bool value) {
    return Int(key, value ? 1 : 0);
  }
  MetaWriter& Double(const char* key, double value);
  std::string Finish() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads a meta section back in the order it was written. The first
/// failure sticks (later reads are no-ops) and Finish() reports it. A
/// missing, extra, reordered or duplicated key, or an unparsable or
/// out-of-range value, is Corruption. `block` must outlive the reader.
class MetaReader {
 public:
  explicit MetaReader(const std::string& block) : block_(block) {}

  MetaReader& Str(const char* key, std::string* out) {
    Next(key, out);
    return *this;
  }
  MetaReader& Bool(const char* key, bool* out) {
    int64_t v = 0;
    if (ReadInt(key, 0, 1, &v)) *out = v == 1;
    return *this;
  }
  MetaReader& Double(const char* key, double* out);
  /// Any signed integer type; values outside T's range are Corruption.
  template <typename T>
  MetaReader& Int(const char* key, T* out) {
    int64_t v = 0;
    if (ReadInt(key, std::numeric_limits<T>::min(),
                std::numeric_limits<T>::max(), &v)) {
      *out = static_cast<T>(v);
    }
    return *this;
  }
  Status Finish() const;

 private:
  bool Next(const char* key, std::string* value);
  bool ReadInt(const char* key, int64_t min, int64_t max, int64_t* out);
  void Fail(const char* key, const std::string& why);

  const std::string& block_;
  size_t pos_ = 0;
  Status status_;
};

/// A status as two sections: meta "code\t<n>\n", then the message. The
/// raw-code form writes `code` unchanged, so an out-of-range code reaches
/// DecodeStatus's check instead of wrapping into a valid one.
std::vector<std::string> EncodeStatus(int64_t code, const std::string& message);
std::vector<std::string> EncodeStatus(const Status& status);

/// Reads EncodeStatus's sections from `sections[0..1]` into `*out`.
/// Corruption when they are missing or malformed or the code is not a
/// StatusCode.
Status DecodeStatus(const std::vector<std::string>& sections, Status* out);

}  // namespace flor

#endif  // FLOR_SERIALIZE_SECTIONS_H_
