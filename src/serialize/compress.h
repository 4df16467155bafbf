// Block compression for checkpoints.
//
// The paper gzip-compresses checkpoints before spooling them to S3 (Table 4).
// Offline there is one from-scratch codec plus raw storage:
//   * kRle  — byte-level run-length encoding; one cheap pass each way, and
//             it wins on the long zero/constant runs of frozen parameters
//             and their optimizer moments (the fine-tune workloads).
//   * kNone — the bytes as given, used whenever RLE would not shrink them
//             (float checkpoints trained from scratch).
// The codec byte is stored with the block, so readers self-describe.
// DecompressView is the restore path's reader: a raw body is decoded where
// it lies, and only an RLE body is expanded into a buffer of its own.
//
// kLz (tag 2) is the retired LZSS codec: Compress encodes a kLz request
// with RLE, and Decompress rejects a tag-2 blob as Corruption. The
// enumerator stays only so callers that still spell kLz compile; no product
// path asks for it.

#ifndef FLOR_SERIALIZE_COMPRESS_H_
#define FLOR_SERIALIZE_COMPRESS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace flor {

enum class Codec : uint8_t {
  kNone = 0,
  kRle = 1,
  kLz = 2,
};

/// Compresses `input`, prepending a 1-byte codec tag and a varint of the
/// uncompressed size. kRle and kLz both encode with RLE; if that does not
/// shrink the input, or `codec` is kNone, stores raw with kNone.
std::string Compress(const std::string& input, Codec codec);

/// Inverse of Compress without copying a raw body: returns a view of
/// `input`'s body for a kNone blob, or fills `*rle_out` and returns a view
/// of it for a kRle blob. The view is valid while both `input` and
/// `*rle_out` are. Fails with Corruption on malformed input, an unknown
/// codec byte, or a tag-2 (retired LZ) blob.
Result<std::string_view> DecompressView(std::string_view input,
                                        std::string* rle_out);

/// Copying form of DecompressView (same errors).
Result<std::string> Decompress(const std::string& input);

/// Codec tag of a compressed blob (after the fallback-to-raw heuristic).
/// A tag-2 blob from an older store reads as kLz here, though Decompress
/// rejects it.
Result<Codec> PeekCodec(const std::string& input);

}  // namespace flor

#endif  // FLOR_SERIALIZE_COMPRESS_H_
