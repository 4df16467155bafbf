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
//
// Restoring (RestoreCheckpoint) copies the object's bytes once after the
// read: the frame's CRC is checked where the bytes lie, a raw body is
// decoded in place (only an RLE body is expanded into a buffer of its
// own), module parameters and optimizer state are decoded straight into
// the live tensors once their dtype and shape match, and every other value
// is moved into the live frame.

#ifndef FLOR_CHECKPOINT_CHECKPOINT_H_
#define FLOR_CHECKPOINT_CHECKPOINT_H_

#include <functional>
#include <string>
#include <string_view>
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

/// Decodes one ValueSnapshot. With a `live` module of the snapshot's
/// parameter count, or a `live` optimizer of its kind and state count,
/// each tensor is decoded straight into the live tensor (DecodeTensor's
/// `into`) while names, dtypes and shapes match, and the snapshot shares
/// that storage; from the first mismatch on, tensors get storage of their
/// own. RestoreValue(ValueSnapshot&&, live) then checks the structure and
/// moves. A payload found malformed after a tensor was written leaves the
/// live object partly restored, as a failed torch load_state_dict does;
/// the caller fails the replay on it.
Result<ir::ValueSnapshot> DecodeSnapshot(Decoder* dec,
                                         ir::Value* live = nullptr);

/// Full checkpoint encode: serialize, compress (RLE or raw), frame.
std::string EncodeCheckpoint(const NamedSnapshots& snaps);

/// Inverse of EncodeCheckpoint (checksum + decompression verified). Each
/// snapshot owns its tensors. Under src/, only src/checkpoint/ calls it
/// (scripts/check.sh lints this): replay restores with RestoreCheckpoint.
Result<NamedSnapshots> DecodeCheckpoint(const std::string& bytes);

/// Resolves a checkpointed variable's name to the live value it restores
/// into; an error status (for example an unbound name) aborts the restore.
using LiveValueFn = std::function<Result<ir::Value*>(const std::string& name)>;

/// Restores the checkpoint in `bytes` into the live values `live` names,
/// in payload order: each snapshot is decoded against its live value
/// (DecodeSnapshot) and moved into it (RestoreValue). Fails with
/// Corruption on any checksum, codec, structure or shape error; the CRC,
/// the codec header and every tensor header are checked before that
/// tensor's bytes are copied. No view into `bytes` outlives the call.
Status RestoreCheckpoint(std::string_view bytes, const LiveValueFn& live);

}  // namespace flor

#endif  // FLOR_CHECKPOINT_CHECKPOINT_H_
