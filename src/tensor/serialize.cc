#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>

namespace flor {

void EncodeTensor(std::string* dst, const Tensor& t) {
  dst->push_back(static_cast<char>(t.dtype()));
  PutVarint64(dst, static_cast<uint64_t>(t.shape().rank()));
  for (int64_t d : t.shape().dims())
    PutVarint64(dst, static_cast<uint64_t>(d));
  const int64_t n = t.numel();
  if (t.dtype() == DType::kF32) {
    const size_t bytes = static_cast<size_t>(n) * sizeof(float);
    const size_t off = dst->size();
    dst->resize(off + bytes);
    std::memcpy(dst->data() + off, t.f32(), bytes);
  } else {
    const size_t bytes = static_cast<size_t>(n) * sizeof(int64_t);
    const size_t off = dst->size();
    dst->resize(off + bytes);
    std::memcpy(dst->data() + off, t.i64(), bytes);
  }
}

Result<Tensor> DecodeTensor(Decoder* dec, Tensor* into) {
  uint8_t dtype_byte;
  FLOR_RETURN_IF_ERROR(dec->GetRaw(&dtype_byte, 1));
  if (dtype_byte > static_cast<uint8_t>(DType::kI64))
    return Status::Corruption("bad tensor dtype byte");
  const DType dtype = static_cast<DType>(dtype_byte);
  uint64_t rank;
  FLOR_RETURN_IF_ERROR(dec->GetVarint64(&rank));
  if (rank > 8) return Status::Corruption("tensor rank too large");
  // Dims are untrusted: the product of the nonzero dims must fit int64_t
  // (so no numel or stride product can overflow), and the data must be
  // present before anything is allocated.
  std::vector<int64_t> dims(rank);
  uint64_t span = 1;
  bool empty = false;
  for (auto& d : dims) {
    uint64_t v;
    FLOR_RETURN_IF_ERROR(dec->GetVarint64(&v));
    if (v == 0) {
      empty = true;
    } else if (span > static_cast<uint64_t>(INT64_MAX) / v) {
      return Status::Corruption("tensor dims overflow int64");
    } else {
      span *= v;
    }
    d = static_cast<int64_t>(v);
  }
  const uint64_t numel = empty ? 0 : span;
  if (numel > dec->remaining() / DTypeSize(dtype))
    return Status::Corruption("tensor data truncated");
  const size_t bytes = numel * DTypeSize(dtype);
  if (into != nullptr && into->dtype() == dtype &&
      into->shape().dims() == dims) {
    void* dst = dtype == DType::kF32 ? static_cast<void*>(into->f32())
                                     : static_cast<void*>(into->i64());
    FLOR_RETURN_IF_ERROR(dec->GetRaw(dst, bytes));
    return *into;
  }
  Shape shape(std::move(dims));
  if (dtype == DType::kF32) {
    std::vector<float> data(numel);
    FLOR_RETURN_IF_ERROR(dec->GetRaw(data.data(), bytes));
    return Tensor(std::move(shape), std::move(data));
  }
  std::vector<int64_t> data(numel);
  FLOR_RETURN_IF_ERROR(dec->GetRaw(data.data(), bytes));
  return Tensor(std::move(shape), std::move(data));
}

std::string TensorToBytes(const Tensor& t) {
  std::string out;
  EncodeTensor(&out, t);
  return out;
}

Result<Tensor> TensorFromBytes(const std::string& bytes) {
  Decoder dec(bytes);
  FLOR_ASSIGN_OR_RETURN(Tensor t, DecodeTensor(&dec));
  if (!dec.done()) return Status::Corruption("trailing bytes after tensor");
  return t;
}

}  // namespace flor
