// Tensor (de)serialization into the checkpoint byte format.
// Layout: [u8 dtype][varint rank][varint dims...][raw data LE].
// Decoding can write straight into a live tensor of the same dtype and
// shape, so a restore copies a parameter's bytes once, from the object
// ReadFile returned into the parameter's own storage.

#ifndef FLOR_TENSOR_SERIALIZE_H_
#define FLOR_TENSOR_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "serialize/coding.h"
#include "tensor/tensor.h"

namespace flor {

/// Appends the encoded tensor to `dst`.
void EncodeTensor(std::string* dst, const Tensor& t);

/// Decodes one tensor from the cursor. When `into` is non-null and has the
/// decoded dtype and shape, the data is copied into `into`'s storage and
/// the result shares it; otherwise the result has storage of its own and
/// `into` is untouched. The header is checked against the bytes that
/// remain before anything is written or allocated.
Result<Tensor> DecodeTensor(Decoder* dec, Tensor* into = nullptr);

/// One-shot helpers.
std::string TensorToBytes(const Tensor& t);
Result<Tensor> TensorFromBytes(const std::string& bytes);

}  // namespace flor

#endif  // FLOR_TENSOR_SERIALIZE_H_
