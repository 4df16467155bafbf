#include "checkpoint/checkpoint.h"

#include <cstdlib>

#include "common/strings.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "tensor/serialize.h"

namespace flor {

std::string CheckpointKey::ToString() const {
  std::string safe_ctx = ctx;
  for (char& c : safe_ctx)
    if (c == '/') c = '.';
  return StrCat("L", loop_id, "@", safe_ctx);
}

int64_t CheckpointKey::EpochIndex() const {
  if (ctx.empty()) return -1;
  const auto eq = ctx.find('=');
  if (eq == std::string::npos) return -1;
  return std::strtoll(ctx.c_str() + eq + 1, nullptr, 10);
}

uint64_t SnapshotsRawBytes(const NamedSnapshots& snaps) {
  uint64_t total = 0;
  for (const auto& [name, snap] : snaps)
    total += name.size() + snap.ApproxBytes();
  return total;
}

void EncodeSnapshot(std::string* dst, const ir::ValueSnapshot& snap) {
  dst->push_back(static_cast<char>(snap.kind));
  switch (snap.kind) {
    case ir::ValueKind::kNone:
      break;
    case ir::ValueKind::kInt:
      PutSignedVarint64(dst, snap.int_v);
      break;
    case ir::ValueKind::kFloat:
      PutDouble(dst, snap.float_v);
      break;
    case ir::ValueKind::kBool:
      dst->push_back(snap.bool_v ? 1 : 0);
      break;
    case ir::ValueKind::kStr:
      PutLengthPrefixed(dst, snap.str_v);
      break;
    case ir::ValueKind::kTensor:
      EncodeTensor(dst, snap.tensor_v);
      break;
    case ir::ValueKind::kModule:
      PutVarint64(dst, snap.params.size());
      for (const auto& [name, t] : snap.params) {
        PutLengthPrefixed(dst, name);
        EncodeTensor(dst, t);
      }
      break;
    case ir::ValueKind::kOptimizer:
      PutLengthPrefixed(dst, snap.opt_kind);
      PutFloat(dst, snap.opt_lr);
      PutSignedVarint64(dst, snap.opt_steps);
      PutVarint64(dst, snap.opt_state.size());
      for (const auto& t : snap.opt_state) EncodeTensor(dst, t);
      break;
    case ir::ValueKind::kScheduler:
      PutLengthPrefixed(dst, snap.sched_kind);
      PutSignedVarint64(dst, snap.sched_epoch);
      break;
    case ir::ValueKind::kLoader:
      break;
    case ir::ValueKind::kRng:
      for (uint64_t w : snap.rng_state) PutFixed64(dst, w);
      break;
  }
}

Result<ir::ValueSnapshot> DecodeSnapshot(Decoder* dec) {
  uint8_t kind_byte;
  FLOR_RETURN_IF_ERROR(dec->GetRaw(&kind_byte, 1));
  if (kind_byte > static_cast<uint8_t>(ir::ValueKind::kRng))
    return Status::Corruption("bad snapshot kind byte");
  ir::ValueSnapshot snap;
  snap.kind = static_cast<ir::ValueKind>(kind_byte);
  switch (snap.kind) {
    case ir::ValueKind::kNone:
      break;
    case ir::ValueKind::kInt:
      FLOR_RETURN_IF_ERROR(dec->GetSignedVarint64(&snap.int_v));
      break;
    case ir::ValueKind::kFloat:
      FLOR_RETURN_IF_ERROR(dec->GetDouble(&snap.float_v));
      break;
    case ir::ValueKind::kBool: {
      uint8_t b;
      FLOR_RETURN_IF_ERROR(dec->GetRaw(&b, 1));
      snap.bool_v = b != 0;
      break;
    }
    case ir::ValueKind::kStr:
      FLOR_RETURN_IF_ERROR(dec->GetLengthPrefixed(&snap.str_v));
      break;
    case ir::ValueKind::kTensor: {
      FLOR_ASSIGN_OR_RETURN(snap.tensor_v, DecodeTensor(dec));
      break;
    }
    case ir::ValueKind::kModule: {
      uint64_t n;
      FLOR_RETURN_IF_ERROR(dec->GetVarint64(&n));
      for (uint64_t i = 0; i < n; ++i) {
        std::string name;
        FLOR_RETURN_IF_ERROR(dec->GetLengthPrefixed(&name));
        FLOR_ASSIGN_OR_RETURN(Tensor t, DecodeTensor(dec));
        snap.params.emplace_back(std::move(name), std::move(t));
      }
      break;
    }
    case ir::ValueKind::kOptimizer: {
      FLOR_RETURN_IF_ERROR(dec->GetLengthPrefixed(&snap.opt_kind));
      FLOR_RETURN_IF_ERROR(dec->GetFloat(&snap.opt_lr));
      FLOR_RETURN_IF_ERROR(dec->GetSignedVarint64(&snap.opt_steps));
      uint64_t n;
      FLOR_RETURN_IF_ERROR(dec->GetVarint64(&n));
      for (uint64_t i = 0; i < n; ++i) {
        FLOR_ASSIGN_OR_RETURN(Tensor t, DecodeTensor(dec));
        snap.opt_state.push_back(std::move(t));
      }
      break;
    }
    case ir::ValueKind::kScheduler:
      FLOR_RETURN_IF_ERROR(dec->GetLengthPrefixed(&snap.sched_kind));
      FLOR_RETURN_IF_ERROR(dec->GetSignedVarint64(&snap.sched_epoch));
      break;
    case ir::ValueKind::kLoader:
      break;
    case ir::ValueKind::kRng:
      for (auto& w : snap.rng_state) FLOR_RETURN_IF_ERROR(dec->GetFixed64(&w));
      break;
  }
  return snap;
}

std::string EncodeCheckpoint(const NamedSnapshots& snaps) {
  std::string payload;
  PutVarint64(&payload, snaps.size());
  for (const auto& [name, snap] : snaps) {
    PutLengthPrefixed(&payload, name);
    EncodeSnapshot(&payload, snap);
  }
  std::string compressed = Compress(payload, Codec::kRle);
  std::string out;
  AppendFrame(&out, compressed);
  return out;
}

Result<NamedSnapshots> DecodeCheckpoint(const std::string& bytes) {
  FrameReader reader(bytes);
  std::string compressed;
  const Status first = reader.Next(&compressed);
  // An empty object is a torn write, not a missing key.
  if (first.IsNotFound()) return Status::Corruption("empty checkpoint object");
  FLOR_RETURN_IF_ERROR(first);
  if (!reader.done())
    return Status::Corruption("trailing data after checkpoint frame");
  FLOR_ASSIGN_OR_RETURN(std::string payload, Decompress(compressed));
  Decoder dec(payload);
  uint64_t n;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&n));
  NamedSnapshots out;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    FLOR_RETURN_IF_ERROR(dec.GetLengthPrefixed(&name));
    FLOR_ASSIGN_OR_RETURN(ir::ValueSnapshot snap, DecodeSnapshot(&dec));
    out.emplace_back(std::move(name), std::move(snap));
  }
  if (!dec.done())
    return Status::Corruption("trailing bytes in checkpoint payload");
  return out;
}

}  // namespace flor
