// Alice's debugging story (paper §2.1), replayed with hindsight logging.
//
// Alice adds stochastic weight averaging (a cyclic LR schedule with high
// bounds) to a working training script, and the model collapses. In the
// paper's telling she re-runs the hour-long job twice with ever more
// logging; with Flor she records once, then *probes the past*:
//
//   1. record: train the SWA variant; only the loss is logged;
//   2. hindsight: add grad/weight-magnitude probes and replay — Flor
//      re-executes only what the probes need;
//   3. diagnosis: gradient magnitudes explode before the weights shrink —
//      over-regularization (high LR bounds fighting weight decay);
//   4. fix: disable weight decay, retrain, accuracy recovers.
//
// This example builds the training script directly with the public
// ProgramBuilder API (no workload library), which is what a user embedding
// florcpp in their own system would do.

#include <cmath>
#include <cstdio>
#include <memory>

#include "common/strings.h"
#include "data/loader.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "sim/cost_model.h"
#include "ir/builder.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/scheduler.h"
#include "tensor/ops.h"

using namespace flor;
using exec::Frame;

namespace {

struct AliceContext {
  Rng rng{7777};
  std::unique_ptr<data::SyntheticDataset> trainset;
  std::unique_ptr<data::DataLoader> loader;
  std::unique_ptr<data::SyntheticDataset> testset;
  std::unique_ptr<nn::Module> net;
  std::unique_ptr<nn::Optimizer> optimizer;
  std::unique_ptr<nn::LrScheduler> scheduler;
};

constexpr int64_t kEpochs = 12;

float GradNorm(nn::Module* net) {
  double acc = 0;
  for (auto* p : net->Parameters()) {
    const float n = ops::L2Norm(p->grad);
    acc += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(acc));
}

float WeightNorm(nn::Module* net) {
  double acc = 0;
  for (auto* p : net->Parameters()) {
    const float n = ops::L2Norm(p->value);
    acc += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(acc));
}

/// Builds Alice's SWA training script. `weight_decay` is the knob her
/// diagnosis eventually turns off; `probes` adds the hindsight logging
/// statements (absent at record time).
Result<ProgramInstance> AliceScript(float weight_decay, float max_lr,
                                    bool probes) {
  auto ctx = std::make_shared<AliceContext>();
  ir::ProgramBuilder b;

  b.CallAssign({"trainloader"}, "make_loader", {}, [ctx](Frame* f) {
     data::SyntheticDataset::Config cfg;
     cfg.num_samples = 96;
     cfg.feature_dim = 24;
     cfg.num_classes = 4;
     cfg.seed = 31337;
     ctx->trainset = std::make_unique<data::SyntheticDataset>(cfg);
     ctx->loader =
         std::make_unique<data::DataLoader>(ctx->trainset.get(), 16);
     cfg.seed = 31338;
     cfg.num_samples = 48;
     ctx->testset = std::make_unique<data::SyntheticDataset>(cfg);
     f->Set("trainloader", ir::Value::LoaderRef(ctx->loader.get()));
     return Status::OK();
   }).Cost(60);  // "one hour of training" scale: pretend loading takes 1min

  b.CallAssign({"num_batches"}, "len", {"trainloader"}, [ctx](Frame* f) {
    f->Set("num_batches", ir::Value::Int(ctx->loader->batches_per_epoch()));
    return Status::OK();
  });

  b.CallAssign({"net"}, "build_resnet18", {}, [ctx](Frame* f) {
    ctx->net = nn::BuildMlp("resnet18", {24, 32, 32, 4}, &ctx->rng);
    f->Set("net", ir::Value::ModuleRef(ctx->net.get()));
    return Status::OK();
  });

  b.CallAssign({"optimizer"}, "make_sgd", {"net"},
               [ctx, weight_decay](Frame* f) {
                 ctx->optimizer = std::make_unique<nn::Sgd>(
                     ctx->net.get(), /*lr=*/0.05f, /*momentum=*/0.9f,
                     weight_decay);
                 f->Set("optimizer",
                        ir::Value::OptimizerRef(ctx->optimizer.get()));
                 return Status::OK();
               });

  // SWA's cyclical schedule with "higher than usual learning rate bounds".
  b.CallAssign({"scheduler"}, "make_swa_schedule", {"optimizer"},
               [ctx, max_lr](Frame* f) {
                 ctx->scheduler = std::make_unique<nn::CyclicLr>(
                     ctx->optimizer.get(), max_lr, /*cycle_len=*/4);
                 f->Set("scheduler",
                        ir::Value::SchedulerRef(ctx->scheduler.get()));
                 return Status::OK();
               });

  b.BeginLoop("e", kEpochs);
  {
    b.BeginLoopVar("i", "num_batches");
    {
      b.MethodCall("optimizer", "zero_grad", {}, [ctx](Frame*) {
        ctx->net->ZeroGrad();
        return Status::OK();
      });
      b.CallAssign({"batch", "labels"}, "fetch_batch",
                   {"trainloader", "e", "i"}, [ctx](Frame* f) {
                     FLOR_ASSIGN_OR_RETURN(
                         data::Batch batch,
                         ctx->loader->GetBatch(f->At("e").AsInt(),
                                               f->At("i").AsInt()));
                     f->Set("batch", ir::Value::FromTensor(batch.features));
                     f->Set("labels", ir::Value::FromTensor(batch.labels));
                     return Status::OK();
                   });
      b.CallAssign({"preds"}, "forward", {"net", "batch"}, [ctx](Frame* f) {
         FLOR_ASSIGN_OR_RETURN(
             Tensor preds, ctx->net->Forward(f->At("batch").AsTensor()));
         f->Set("preds", ir::Value::FromTensor(std::move(preds)));
         return Status::OK();
       }).Cost(300.0 / 6);  // one epoch ≈ 5 simulated minutes
      b.CallAssign({"loss", "grad"}, "criterion", {"preds", "labels"},
                   [](Frame* f) {
                     FLOR_ASSIGN_OR_RETURN(
                         nn::LossResult lr,
                         nn::SoftmaxCrossEntropy(f->At("preds").AsTensor(),
                                                 f->At("labels").AsTensor()));
                     f->Set("loss", ir::Value::Float(lr.loss));
                     f->Set("grad",
                            ir::Value::FromTensor(std::move(lr.grad_logits)));
                     return Status::OK();
                   });
      b.MethodCall("grad", "backward", {"net"}, [ctx](Frame* f) {
        FLOR_ASSIGN_OR_RETURN(Tensor unused,
                              ctx->net->Backward(f->At("grad").AsTensor()));
        (void)unused;
        return Status::OK();
      });
      b.MethodCall("optimizer", "step", {}, [ctx](Frame*) {
        return ctx->optimizer->Step();
      });
      b.Log("loss",
            [](Frame* f) {
              return StrFormat("%.4f", f->At("loss").AsFloat());
            },
            {"loss"});
      if (probes) {
        // The hindsight probes: "recover the magnitudes of the weights and
        // gradients over time" (paper §2.1).
        b.Log("grad_magnitude",
              [ctx](Frame*) { return StrFormat("%.3f", GradNorm(ctx->net.get())); },
              {"net"});
        b.Log("weight_magnitude",
              [ctx](Frame*) {
                return StrFormat("%.3f", WeightNorm(ctx->net.get()));
              },
              {"net"});
      }
    }
    b.EndLoop();
    b.MethodCall("scheduler", "step", {}, [ctx](Frame*) {
      ctx->scheduler->Step();
      return Status::OK();
    });
    b.CallAssign({"test_acc"}, "evaluate", {"net", "e"},
                 [ctx](Frame* f) {
                   auto feats = ctx->testset->BatchFeatures(0, 48);
                   auto labels = ctx->testset->BatchLabels(0, 48);
                   FLOR_ASSIGN_OR_RETURN(Tensor logits,
                                         ctx->net->Forward(*feats));
                   FLOR_ASSIGN_OR_RETURN(float acc,
                                         ops::Accuracy(logits, *labels));
                   f->Set("test_acc", ir::Value::Float(acc));
                   return Status::OK();
                 })
      .Cost(10);
    b.Log("test_acc",
          [](Frame* f) {
            return StrFormat("%.4f", f->At("test_acc").AsFloat());
          },
          {"test_acc"});
    b.OpaqueCall("save_checkpoint", {"net"},
                 [](Frame*) { return Status::OK(); });
  }
  b.EndLoop();

  ProgramInstance instance;
  instance.program = b.Build();
  instance.context = ctx;
  return instance;
}

float FinalTestAcc(const exec::LogStream& logs) {
  float acc = 0;
  for (const auto& e : logs.entries())
    if (e.label == "test_acc") acc = std::strtof(e.text.c_str(), nullptr);
  return acc;
}

}  // namespace

int main() {
  // The buggy configuration: SWA's high LR bounds + weight decay.
  constexpr float kBuggyWeightDecay = 0.10f;
  constexpr float kSwaMaxLr = 0.60f;

  auto env = Env::NewSimEnv();

  std::printf("== Alice trains the SWA variant (recorded by Flor) ==\n");
  float buggy_acc = 0;
  {
    auto instance = AliceScript(kBuggyWeightDecay, kSwaMaxLr, false);
    FLOR_CHECK(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "runs/alice_swa";
    opts.workload = "alice-swa";
    opts.materializer.costs = sim::PaperPlatformCosts();
    opts.nominal_checkpoint_bytes = 64ull << 20;
    RecordSession session(env.get(), opts);
    Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    buggy_acc = FinalTestAcc(result->logs);
    std::printf("  training took %s; final test accuracy: %.2f%% — "
                "far below the healthy baseline!\n",
                HumanSeconds(result->runtime_seconds).c_str(),
                buggy_acc * 100);
  }

  std::printf("\n== Hindsight logging: probe gradient & weight magnitudes "
              "==\n");
  std::printf("  (in the paper Alice re-ran the full hour; here replay "
              "answers from the past)\n");
  {
    ClusterPlanOptions request;
    request.run_prefix = "runs/alice_swa";
    request.sample_epochs = {0, 3, 6, 9, 11};  // sampling replay (paper §8)
    request.costs = sim::PaperPlatformCosts();
    auto result = exec::Replay(
        ReplayEngine::kSimulated, env->fs(), request,
        [&] { return AliceScript(kBuggyWeightDecay, kSwaMaxLr, true); });
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok)
        << "replay anomaly: " << result->deferred.anomalies[0];
    std::printf("  replay latency: %s; deferred checks passed\n",
                HumanSeconds(result->latency_seconds).c_str());

    std::printf("\n  epoch   grad |g|     weight |w|   (last batch of each "
                "sampled epoch)\n");
    std::string last_ctx;
    std::string grad, weight;
    for (const auto& e : result->probe_entries) {
      if (e.label == "grad_magnitude") grad = e.text;
      if (e.label == "weight_magnitude") {
        weight = e.text;
        last_ctx = e.context;
        if (e.context.find("/i=5") != std::string::npos) {
          std::printf("  %-7s %-12s %-12s\n",
                      e.context.substr(0, e.context.find('/')).c_str(),
                      grad.c_str(), weight.c_str());
        }
      }
    }
    std::printf("\n  Diagnosis: gradient magnitudes track the weight "
                "magnitudes and blow up when\n  the cyclic LR peaks, while "
                "heavy weight decay fights back — the opposing,\n  "
                "over-compensatory forces of over-regularization "
                "(paper §2.1).\n");
  }

  std::printf("\n== The fix: disable weight decay and retrain ==\n");
  {
    auto instance = AliceScript(0.0f, kSwaMaxLr * 0.25f, false);
    FLOR_CHECK(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "runs/alice_fixed";
    opts.workload = "alice-fixed";
    opts.nominal_checkpoint_bytes = 64ull << 20;
    RecordSession session(env.get(), opts);
    Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    FLOR_CHECK(result.ok());
    const float fixed_acc = FinalTestAcc(result->logs);
    std::printf("  final test accuracy: %.2f%% (was %.2f%% with the bug)\n",
                fixed_acc * 100, buggy_acc * 100);
    FLOR_CHECK(fixed_acc > buggy_acc) << "the fix should help";
  }
  return 0;
}
