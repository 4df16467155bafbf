#include "workloads/programs.h"

#include <cmath>

#include "common/strings.h"
#include "ir/builder.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace flor {
namespace workloads {

namespace {

using exec::Frame;
using RuntimePtr = std::shared_ptr<WorkloadRuntime>;

/// L2 norm over all (unfrozen and frozen) parameter values.
float ModelWeightNorm(nn::Module* net) {
  double acc = 0;
  for (nn::Parameter* p : net->Parameters()) {
    const float n = ops::L2Norm(p->value);
    acc += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(acc));
}

/// L2 norm over all parameter gradients.
float ModelGradNorm(nn::Module* net) {
  double acc = 0;
  for (nn::Parameter* p : net->Parameters()) {
    const float n = ops::L2Norm(p->grad);
    acc += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(acc));
}

/// Deterministic eval-set accuracy.
Result<float> Evaluate(WorkloadRuntime* rt) {
  const int64_t n = std::min<int64_t>(rt->eval_dataset->size(), 32);
  FLOR_ASSIGN_OR_RETURN(Tensor feats, rt->eval_dataset->BatchFeatures(0, n));
  FLOR_ASSIGN_OR_RETURN(Tensor labels, rt->eval_dataset->BatchLabels(0, n));
  FLOR_ASSIGN_OR_RETURN(Tensor logits, rt->net->Forward(feats));
  return ops::Accuracy(logits, labels);
}

Result<ProgramInstance> BuildInstance(WorkloadProfile profile,
                                      uint32_t probes) {
  auto rt = std::make_shared<WorkloadRuntime>(profile);
  const WorkloadProfile& p = rt->profile;
  const double batch_cost =
      p.sim_epoch_seconds /
      static_cast<double>(p.real_batches_per_epoch());

  ir::ProgramBuilder b;

  // ----------------------------------------------------------- preamble --
  b.CallAssign({"trainloader"}, "make_loader", {}, [rt](Frame* f) {
     data::SyntheticDataset::Config cfg;
     cfg.task = rt->profile.task_kind;
     cfg.num_samples = rt->profile.real_samples;
     cfg.feature_dim = rt->profile.real_feature_dim;
     cfg.num_classes = rt->profile.real_classes;
     cfg.vocab_size = rt->profile.real_vocab;
     cfg.seed = rt->profile.seed;
     rt->dataset = std::make_unique<data::SyntheticDataset>(cfg);
     rt->loader = std::make_unique<data::DataLoader>(rt->dataset.get(),
                                                     rt->profile.real_batch);
     data::SyntheticDataset::Config eval_cfg = cfg;
     eval_cfg.seed = cfg.seed + 7;
     eval_cfg.num_samples = 32;
     rt->eval_dataset = std::make_unique<data::SyntheticDataset>(eval_cfg);
     f->Set("trainloader", ir::Value::LoaderRef(rt->loader.get()));
     return Status::OK();
   }).Cost(p.sim_preamble_seconds);

  b.CallAssign({"num_batches"}, "len", {"trainloader"}, [rt](Frame* f) {
    f->Set("num_batches",
           ir::Value::Int(rt->loader->batches_per_epoch()));
    return Status::OK();
  });

  b.CallAssign({"net"}, "build_model", {}, [rt](Frame* f) {
    rt->net = BuildModel(rt->profile, &rt->rng);
    f->Set("net", ir::Value::ModuleRef(rt->net.get()));
    return Status::OK();
  });

  if (p.fine_tune) {
    b.OpaqueCall("freeze_encoder", {"net"}, [rt](Frame*) {
      FreezeBackbone(rt->net.get());
      return Status::OK();
    });
  }

  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, [rt](Frame* f) {
    rt->optimizer = BuildOptimizer(rt->profile, rt->net.get());
    f->Set("optimizer", ir::Value::OptimizerRef(rt->optimizer.get()));
    return Status::OK();
  });

  b.CallAssign({"scheduler"}, "make_scheduler", {"optimizer"},
               [rt](Frame* f) {
                 rt->scheduler =
                     BuildScheduler(rt->profile, rt->optimizer.get());
                 f->Set("scheduler",
                        ir::Value::SchedulerRef(rt->scheduler.get()));
                 return Status::OK();
               });

  // ---------------------------------------------------------- main loop --
  b.BeginLoop("e", p.epochs);
  {
    // ----------------------------------------------------- training loop --
    b.BeginLoopVar("i", "num_batches");
    {
      b.MethodCall("optimizer", "zero_grad", {}, [rt](Frame*) {
        rt->optimizer->model()->ZeroGrad();
        return Status::OK();
      });

      b.CallAssign({"batch", "labels"}, "fetch_batch",
                   {"trainloader", "e", "i"}, [rt](Frame* f) {
                     const int64_t e = f->At("e").AsInt();
                     const int64_t i = f->At("i").AsInt();
                     FLOR_ASSIGN_OR_RETURN(data::Batch batch,
                                           rt->loader->GetBatch(e, i));
                     f->Set("batch",
                            ir::Value::FromTensor(batch.features));
                     f->Set("labels", ir::Value::FromTensor(batch.labels));
                     return Status::OK();
                   });

      b.CallAssign({"preds"}, "forward", {"net", "batch"}, [rt](Frame* f) {
         FLOR_ASSIGN_OR_RETURN(Tensor preds,
                               rt->net->Forward(f->At("batch").AsTensor()));
         f->Set("preds", ir::Value::FromTensor(std::move(preds)));
         return Status::OK();
       }).Cost(batch_cost).WallCost(p.wall_batch_seconds);

      b.CallAssign({"loss", "grad"}, "criterion", {"preds", "labels"},
                   [](Frame* f) {
                     FLOR_ASSIGN_OR_RETURN(
                         nn::LossResult lr,
                         nn::SoftmaxCrossEntropy(f->At("preds").AsTensor(),
                                                 f->At("labels").AsTensor()));
                     f->Set("loss", ir::Value::Float(lr.loss));
                     f->Set("grad", ir::Value::FromTensor(
                                        std::move(lr.grad_logits)));
                     return Status::OK();
                   });

      b.MethodCall("grad", "backward", {"net"}, [rt](Frame* f) {
        FLOR_ASSIGN_OR_RETURN(Tensor unused,
                              rt->net->Backward(f->At("grad").AsTensor()));
        (void)unused;
        return Status::OK();
      });

      b.MethodCall("optimizer", "step", {}, [rt](Frame*) {
        return rt->optimizer->Step();
      });

      b.Log("loss",
            [](Frame* f) {
              return StrFormat("%.6f", f->At("loss").AsFloat());
            },
            {"loss"});

      if (probes & kProbeInner) {
        b.Log("grad_norm",
              [rt](Frame*) {
                return StrFormat("%.6f", ModelGradNorm(rt->net.get()));
              },
              {"net"});
      }
    }
    b.EndLoop();

    b.MethodCall("scheduler", "step", {}, [rt](Frame*) {
      rt->scheduler->Step();
      return Status::OK();
    });

    b.CallAssign({"test_acc"}, "evaluate", {"net", "e"}, [rt](Frame* f) {
       FLOR_ASSIGN_OR_RETURN(float acc, Evaluate(rt.get()));
       f->Set("test_acc", ir::Value::Float(acc));
       return Status::OK();
     }).Cost(p.sim_outer_seconds);

    b.Log("test_acc",
          [](Frame* f) {
            return StrFormat("%.4f", f->At("test_acc").AsFloat());
          },
          {"test_acc"});

    // The user's own periodic save — a rule-5 statement that (correctly)
    // stops Flor from wrapping the main loop in a SkipBlock.
    b.OpaqueCall("save_checkpoint", {"net"},
                 [](Frame*) { return Status::OK(); });

    if (probes & kProbeOuter) {
      b.Log("weight_norm",
            [rt](Frame*) {
              return StrFormat("%.6f", ModelWeightNorm(rt->net.get()));
            },
            {"net"});
    }
  }
  b.EndLoop();

  b.Log("final_weight_norm",
        [rt](Frame*) {
          return StrFormat("%.6f", ModelWeightNorm(rt->net.get()));
        },
        {"net"});

  ProgramInstance instance;
  instance.program = b.Build();
  instance.context = rt;
  return instance;
}

}  // namespace

ProgramFactory MakeWorkloadFactory(const WorkloadProfile& profile,
                                   uint32_t probes) {
  return [profile, probes]() { return BuildInstance(profile, probes); };
}

RecordOptions DefaultRecordOptions(const WorkloadProfile& profile,
                                   const std::string& run_prefix) {
  RecordOptions opts;
  opts.run_prefix = run_prefix;
  opts.workload = profile.name;
  opts.ckpt_shards = profile.ckpt_shards;
  opts.materializer.strategy = MaterializeStrategy::kFork;
  opts.adaptive.enabled = true;
  opts.adaptive.epsilon = 1.0 / 15.0;
  opts.nominal_checkpoint_bytes = profile.sim_ckpt_raw_bytes;
  opts.vanilla_runtime_seconds = profile.VanillaSeconds();
  return opts;
}

}  // namespace workloads
}  // namespace flor
