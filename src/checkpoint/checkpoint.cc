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

namespace {

/// Decodes the i-th tensor of a module or optimizer snapshot straight into
/// (*targets)[i] while the snapshot still matches its live object. From
/// the first tensor that does not (name, dtype or shape), `*targets` is
/// cleared and the rest decode into storage of their own, so RestoreValue
/// rejects the value with nothing after the mismatch written.
Result<Tensor> DecodeLiveTensor(Decoder* dec, std::vector<Tensor*>* targets,
                                uint64_t i) {
  Tensor* into = targets->empty() ? nullptr : (*targets)[i];
  FLOR_ASSIGN_OR_RETURN(Tensor t, DecodeTensor(dec, into));
  if (into == nullptr || !t.SharesStorageWith(*into)) targets->clear();
  return t;
}

}  // namespace

Result<ir::ValueSnapshot> DecodeSnapshot(Decoder* dec, ir::Value* live) {
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
      std::vector<nn::Parameter*> params;
      if (live != nullptr && live->kind() == ir::ValueKind::kModule)
        params = live->AsModule()->Parameters();
      std::vector<Tensor*> targets;
      if (params.size() == n)
        for (nn::Parameter* p : params) targets.push_back(&p->value);
      for (uint64_t i = 0; i < n; ++i) {
        std::string name;
        FLOR_RETURN_IF_ERROR(dec->GetLengthPrefixed(&name));
        if (!targets.empty() && params[i]->name != name) targets.clear();
        FLOR_ASSIGN_OR_RETURN(Tensor t, DecodeLiveTensor(dec, &targets, i));
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
      std::vector<Tensor*> targets;
      if (live != nullptr && live->kind() == ir::ValueKind::kOptimizer &&
          live->AsOptimizer()->Kind() == snap.opt_kind)
        targets = live->AsOptimizer()->StateTensors();
      if (targets.size() != n) targets.clear();
      for (uint64_t i = 0; i < n; ++i) {
        FLOR_ASSIGN_OR_RETURN(Tensor t, DecodeLiveTensor(dec, &targets, i));
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

namespace {

/// Checks the frame and opens the codec of a checkpoint object, returning
/// its payload: a view into `bytes` for a raw body, or into `*rle_out` for
/// an RLE body.
Result<std::string_view> CheckpointPayload(std::string_view bytes,
                                           std::string* rle_out) {
  FrameReader reader(bytes);
  std::string_view compressed;
  const Status first = reader.Next(&compressed);
  // An empty object is a torn write, not a missing key.
  if (first.IsNotFound()) return Status::Corruption("empty checkpoint object");
  FLOR_RETURN_IF_ERROR(first);
  if (!reader.done())
    return Status::Corruption("trailing data after checkpoint frame");
  return DecompressView(compressed, rle_out);
}

/// Walks the payload's (name, snapshot) entries: `visit` decodes each
/// entry's snapshot from `dec` after its name.
template <typename Visit>
Status ForEachEntry(std::string_view bytes, Visit&& visit) {
  std::string rle_out;
  FLOR_ASSIGN_OR_RETURN(std::string_view payload,
                        CheckpointPayload(bytes, &rle_out));
  Decoder dec(payload.data(), payload.size());
  uint64_t n;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    FLOR_RETURN_IF_ERROR(dec.GetLengthPrefixed(&name));
    FLOR_RETURN_IF_ERROR(visit(std::move(name), &dec));
  }
  if (!dec.done())
    return Status::Corruption("trailing bytes in checkpoint payload");
  return Status::OK();
}

}  // namespace

Result<NamedSnapshots> DecodeCheckpoint(const std::string& bytes) {
  NamedSnapshots out;
  FLOR_RETURN_IF_ERROR(
      ForEachEntry(bytes, [&out](std::string name, Decoder* dec) -> Status {
        FLOR_ASSIGN_OR_RETURN(ir::ValueSnapshot snap, DecodeSnapshot(dec));
        out.emplace_back(std::move(name), std::move(snap));
        return Status::OK();
      }));
  return out;
}

Status RestoreCheckpoint(std::string_view bytes, const LiveValueFn& live) {
  return ForEachEntry(bytes, [&live](std::string name, Decoder* dec) -> Status {
    FLOR_ASSIGN_OR_RETURN(ir::Value* target, live(name));
    FLOR_ASSIGN_OR_RETURN(ir::ValueSnapshot snap, DecodeSnapshot(dec, target));
    return ir::RestoreValue(std::move(snap), target);
  });
}

}  // namespace flor
