// Checkpoint format.
//
// A Loop End Checkpoint (paper §4.1) is the memoized side-effect set of one
// loop execution: a list of (variable name, state snapshot) pairs. On disk
// it is one checksummed frame wrapping a payload stored RLE or raw,
// whichever is smaller (serialize/compress.h):
//
//   frame{ compress( varint n, n * [ name, ValueSnapshot ] ) }
//
// Keys identify a loop *execution*: the loop id plus the enclosing
// iteration context ("L2@e=17" = loop 2's execution during main-loop
// iteration e=17).

#ifndef FLOR_CHECKPOINT_CHECKPOINT_H_
#define FLOR_CHECKPOINT_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/value.h"
#include "serialize/coding.h"

namespace flor {

/// Identity of one loop execution.
struct CheckpointKey {
  int32_t loop_id = 0;
  std::string ctx;  ///< "e=17" or "" for top-level loops

  /// "L2@e=17" (filesystem-safe: '/' in ctx becomes '.'). This string is
  /// also the key's placement identity: the store's ShardRouter hashes it
  /// (CRC32C) to pick a shard, so it must stay stable across versions.
  std::string ToString() const;

  /// Parses the main-loop iteration index out of `ctx` ("e=17/i=3" -> 17);
  /// -1 when the context is empty.
  int64_t EpochIndex() const;

  bool operator==(const CheckpointKey& other) const {
    return loop_id == other.loop_id && ctx == other.ctx;
  }
};

/// In-memory checkpoint contents: deep state images keyed by variable name.
using NamedSnapshots =
    std::vector<std::pair<std::string, ir::ValueSnapshot>>;

/// Sum of ApproxBytes over all snapshots — the "raw" checkpoint size.
uint64_t SnapshotsRawBytes(const NamedSnapshots& snaps);

/// Serializes one ValueSnapshot.
void EncodeSnapshot(std::string* dst, const ir::ValueSnapshot& snap);

/// Decodes one ValueSnapshot.
Result<ir::ValueSnapshot> DecodeSnapshot(Decoder* dec);

/// Full checkpoint encode: serialize, compress (RLE or raw), frame.
std::string EncodeCheckpoint(const NamedSnapshots& snaps);

/// Inverse of EncodeCheckpoint (checksum + decompression verified).
Result<NamedSnapshots> DecodeCheckpoint(const std::string& bytes);

}  // namespace flor

#endif  // FLOR_CHECKPOINT_CHECKPOINT_H_
