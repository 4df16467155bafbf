// Checksummed frames — the unit of checkpoint storage.
//
// A frame is [fixed32 crc][varint payload_len][payload]. The crc covers the
// payload only. Checkpoint files are a concatenation of frames; corruption
// of any byte is detected on read (property-tested via
// MemFileSystem::CorruptByte).
//
// Reading copies nothing: FrameReader checks a frame's length and CRC and
// hands back its payload as a view into the caller's bytes, so a restore
// decodes the object ReadFile returned where it lies.

#ifndef FLOR_SERIALIZE_FRAME_H_
#define FLOR_SERIALIZE_FRAME_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace flor {

/// Appends one frame wrapping `payload` to `dst`.
void AppendFrame(std::string* dst, const std::string& payload);

/// Reads all frames from `data`; fails with Corruption on any checksum or
/// structural error.
Result<std::vector<std::string>> ReadFrames(const std::string& data);

/// Cursor-style reader for streaming consumption. Does not copy or own
/// `data`, which must outlive the reader and every view it returns.
class FrameReader {
 public:
  explicit FrameReader(std::string_view data) : data_(data) {}

  /// Points `out` at the next frame's payload inside `data`, after its
  /// length and CRC check out. Returns NotFound at EOF, Corruption on a
  /// truncated frame or a checksum mismatch.
  Status Next(std::string_view* out);

  /// Copying form of Next.
  Status Next(std::string* out);

  bool done() const { return pos_ >= data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace flor

#endif  // FLOR_SERIALIZE_FRAME_H_
