#include "ir/value.h"

#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

namespace flor {
namespace ir {

const char* ValueKindName(ValueKind k) {
  switch (k) {
    case ValueKind::kNone:
      return "none";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kFloat:
      return "float";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kStr:
      return "str";
    case ValueKind::kTensor:
      return "tensor";
    case ValueKind::kModule:
      return "module";
    case ValueKind::kOptimizer:
      return "optimizer";
    case ValueKind::kScheduler:
      return "scheduler";
    case ValueKind::kLoader:
      return "loader";
    case ValueKind::kRng:
      return "rng";
  }
  return "?";
}

Value Value::Int(int64_t v) {
  Value out;
  out.kind_ = ValueKind::kInt;
  out.int_ = v;
  return out;
}

Value Value::Float(double v) {
  Value out;
  out.kind_ = ValueKind::kFloat;
  out.float_ = v;
  return out;
}

Value Value::Bool(bool v) {
  Value out;
  out.kind_ = ValueKind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::Str(std::string v) {
  Value out;
  out.kind_ = ValueKind::kStr;
  out.str_ = std::move(v);
  return out;
}

Value Value::FromTensor(Tensor t) {
  Value out;
  out.kind_ = ValueKind::kTensor;
  out.tensor_ = std::move(t);
  return out;
}

Value Value::ModuleRef(nn::Module* m) {
  Value out;
  out.kind_ = ValueKind::kModule;
  out.module_ = m;
  return out;
}

Value Value::OptimizerRef(nn::Optimizer* o) {
  Value out;
  out.kind_ = ValueKind::kOptimizer;
  out.optimizer_ = o;
  return out;
}

Value Value::SchedulerRef(nn::LrScheduler* s) {
  Value out;
  out.kind_ = ValueKind::kScheduler;
  out.scheduler_ = s;
  return out;
}

Value Value::LoaderRef(const data::DataLoader* l) {
  Value out;
  out.kind_ = ValueKind::kLoader;
  out.loader_ = l;
  return out;
}

Value Value::RngRef(Rng* r) {
  Value out;
  out.kind_ = ValueKind::kRng;
  out.rng_ = r;
  return out;
}

int64_t Value::AsInt() const {
  FLOR_CHECK(kind_ == ValueKind::kInt) << "kind=" << ValueKindName(kind_);
  return int_;
}
double Value::AsFloat() const {
  FLOR_CHECK(kind_ == ValueKind::kFloat) << "kind=" << ValueKindName(kind_);
  return float_;
}
bool Value::AsBool() const {
  FLOR_CHECK(kind_ == ValueKind::kBool);
  return bool_;
}
const std::string& Value::AsStr() const {
  FLOR_CHECK(kind_ == ValueKind::kStr);
  return str_;
}
const Tensor& Value::AsTensor() const {
  FLOR_CHECK(kind_ == ValueKind::kTensor);
  return tensor_;
}
Tensor& Value::MutableTensor() {
  FLOR_CHECK(kind_ == ValueKind::kTensor);
  return tensor_;
}
nn::Module* Value::AsModule() const {
  FLOR_CHECK(kind_ == ValueKind::kModule);
  return module_;
}
nn::Optimizer* Value::AsOptimizer() const {
  FLOR_CHECK(kind_ == ValueKind::kOptimizer);
  return optimizer_;
}
nn::LrScheduler* Value::AsScheduler() const {
  FLOR_CHECK(kind_ == ValueKind::kScheduler);
  return scheduler_;
}
const data::DataLoader* Value::AsLoader() const {
  FLOR_CHECK(kind_ == ValueKind::kLoader);
  return loader_;
}
Rng* Value::AsRng() const {
  FLOR_CHECK(kind_ == ValueKind::kRng);
  return rng_;
}

uint64_t Value::Fingerprint() const {
  const uint64_t tag = Mix64(static_cast<uint64_t>(kind_) + 0xf1);
  switch (kind_) {
    case ValueKind::kNone:
      return tag;
    case ValueKind::kInt:
      return Mix64(tag ^ static_cast<uint64_t>(int_));
    case ValueKind::kFloat: {
      uint64_t bits;
      std::memcpy(&bits, &float_, sizeof(bits));
      return Mix64(tag ^ bits);
    }
    case ValueKind::kBool:
      return Mix64(tag ^ (bool_ ? 1u : 0u));
    case ValueKind::kStr: {
      uint64_t h = tag;
      for (char c : str_) h = Mix64(h ^ static_cast<uint8_t>(c));
      return h;
    }
    case ValueKind::kTensor:
      return Mix64(tag ^ tensor_.Fingerprint());
    case ValueKind::kModule:
      return Mix64(tag ^ module_->StateFingerprint());
    case ValueKind::kOptimizer:
      return Mix64(tag ^ optimizer_->StateFingerprint());
    case ValueKind::kScheduler:
      return Mix64(tag ^ scheduler_->StateFingerprint());
    case ValueKind::kLoader:
      return tag;  // loaders are stateless (deterministic)
    case ValueKind::kRng: {
      uint64_t st[4];
      rng_->GetState(st);
      uint64_t h = tag;
      for (uint64_t w : st) h = Mix64(h ^ w);
      return h;
    }
  }
  return tag;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNone:
      return "None";
    case ValueKind::kInt:
      return StrCat(int_);
    case ValueKind::kFloat:
      return StrFormat("%.6g", float_);
    case ValueKind::kBool:
      return bool_ ? "True" : "False";
    case ValueKind::kStr:
      return str_;
    case ValueKind::kTensor:
      return tensor_.ToString();
    case ValueKind::kModule:
      return StrCat("<module ", module_->name(), ">");
    case ValueKind::kOptimizer:
      return StrCat("<optimizer ", optimizer_->Kind(), ">");
    case ValueKind::kScheduler:
      return StrCat("<scheduler ", scheduler_->Kind(), ">");
    case ValueKind::kLoader:
      return "<loader>";
    case ValueKind::kRng:
      return "<rng>";
  }
  return "?";
}

uint64_t ValueSnapshot::ApproxBytes() const {
  uint64_t bytes = 16;  // kind + bookkeeping
  bytes += str_v.size();
  bytes += tensor_v.byte_size();
  for (const auto& [name, t] : params) bytes += name.size() + t.byte_size();
  for (const auto& t : opt_state) bytes += t.byte_size();
  bytes += opt_kind.size() + sched_kind.size();
  return bytes;
}

ValueSnapshot SnapshotValue(const Value& v) {
  ValueSnapshot snap;
  snap.kind = v.kind();
  switch (v.kind()) {
    case ValueKind::kNone:
      break;
    case ValueKind::kInt:
      snap.int_v = v.AsInt();
      break;
    case ValueKind::kFloat:
      snap.float_v = v.AsFloat();
      break;
    case ValueKind::kBool:
      snap.bool_v = v.AsBool();
      break;
    case ValueKind::kStr:
      snap.str_v = v.AsStr();
      break;
    case ValueKind::kTensor:
      snap.tensor_v = v.AsTensor().Clone();
      break;
    case ValueKind::kModule:
      for (nn::Parameter* p : v.AsModule()->Parameters())
        snap.params.emplace_back(p->name, p->value.Clone());
      break;
    case ValueKind::kOptimizer: {
      nn::Optimizer* opt = v.AsOptimizer();
      snap.opt_kind = opt->Kind();
      snap.opt_lr = opt->lr();
      snap.opt_steps = opt->step_count();
      for (Tensor* t : opt->StateTensors())
        snap.opt_state.push_back(t->Clone());
      break;
    }
    case ValueKind::kScheduler: {
      nn::LrScheduler* sched = v.AsScheduler();
      snap.sched_kind = sched->Kind();
      snap.sched_epoch = sched->epoch();
      break;
    }
    case ValueKind::kLoader:
      break;  // stateless by construction
    case ValueKind::kRng:
      v.AsRng()->GetState(snap.rng_state);
      break;
  }
  return snap;
}

Status RestoreValue(ValueSnapshot&& snap, Value* live) {
  if (snap.kind != live->kind() &&
      !(live->is_none() &&
        (snap.kind == ValueKind::kInt || snap.kind == ValueKind::kFloat ||
         snap.kind == ValueKind::kBool || snap.kind == ValueKind::kStr ||
         snap.kind == ValueKind::kTensor))) {
    return Status::Corruption(
        StrCat("snapshot kind ", ValueKindName(snap.kind),
               " does not match live value kind ",
               ValueKindName(live->kind())));
  }
  switch (snap.kind) {
    case ValueKind::kNone:
      *live = Value();
      return Status::OK();
    case ValueKind::kInt:
      *live = Value::Int(snap.int_v);
      return Status::OK();
    case ValueKind::kFloat:
      *live = Value::Float(snap.float_v);
      return Status::OK();
    case ValueKind::kBool:
      *live = Value::Bool(snap.bool_v);
      return Status::OK();
    case ValueKind::kStr:
      *live = Value::Str(std::move(snap.str_v));
      return Status::OK();
    case ValueKind::kTensor:
      *live = Value::FromTensor(std::move(snap.tensor_v));
      return Status::OK();
    case ValueKind::kModule: {
      auto params = live->AsModule()->Parameters();
      if (params.size() != snap.params.size())
        return Status::Corruption("module parameter count mismatch");
      for (size_t i = 0; i < params.size(); ++i) {
        const Tensor& t = snap.params[i].second;
        if (params[i]->name != snap.params[i].first)
          return Status::Corruption("module parameter name mismatch: " +
                                    params[i]->name);
        if (params[i]->value.dtype() != t.dtype() ||
            params[i]->value.shape() != t.shape())
          return Status::Corruption(
              "module parameter dtype or shape mismatch: " + params[i]->name);
      }
      for (size_t i = 0; i < params.size(); ++i)
        params[i]->value = std::move(snap.params[i].second);
      return Status::OK();
    }
    case ValueKind::kOptimizer: {
      nn::Optimizer* opt = live->AsOptimizer();
      if (opt->Kind() != snap.opt_kind)
        return Status::Corruption("optimizer kind mismatch");
      auto tensors = opt->StateTensors();
      if (tensors.size() != snap.opt_state.size())
        return Status::Corruption("optimizer state count mismatch");
      for (size_t i = 0; i < tensors.size(); ++i) {
        if (tensors[i]->dtype() != snap.opt_state[i].dtype() ||
            tensors[i]->shape() != snap.opt_state[i].shape())
          return Status::Corruption("optimizer state dtype or shape mismatch");
      }
      for (size_t i = 0; i < tensors.size(); ++i)
        *tensors[i] = std::move(snap.opt_state[i]);
      opt->set_lr(snap.opt_lr);
      opt->set_step_count(snap.opt_steps);
      return Status::OK();
    }
    case ValueKind::kScheduler: {
      nn::LrScheduler* sched = live->AsScheduler();
      if (sched->Kind() != snap.sched_kind)
        return Status::Corruption("scheduler kind mismatch");
      sched->set_epoch(snap.sched_epoch);
      return Status::OK();
    }
    case ValueKind::kLoader:
      return Status::OK();
    case ValueKind::kRng:
      live->AsRng()->SetState(snap.rng_state);
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

}  // namespace ir
}  // namespace flor
