// Unit tests: workload registry, models, the canonical training-script
// factory (structure, determinism, learnability), and the codec each
// profile's recorded checkpoints are stored with.

#include <gtest/gtest.h>

#include "checkpoint/store.h"
#include "exec/interpreter.h"
#include "flor/instrument.h"
#include "flor/record.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace workloads {
namespace {

TEST(Profiles, AllEightPresent) {
  const auto& all = AllWorkloads();
  ASSERT_EQ(all.size(), 8u);
  const char* names[] = {"RTE", "CoLA", "Cifr", "RsNt",
                         "Wiki", "Jasp", "ImgN", "RnnT"};
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(all[i].name, names[i]);
}

TEST(Profiles, LookupByName) {
  auto p = WorkloadByName("Wiki");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->epochs, 12);
  EXPECT_FALSE(WorkloadByName("nope").ok());
}

TEST(Profiles, Table3Columns) {
  auto rte = *WorkloadByName("RTE");
  EXPECT_TRUE(rte.fine_tune);
  EXPECT_EQ(rte.epochs, 200);
  EXPECT_EQ(rte.benchmark, "GLUE");
  auto jasp = *WorkloadByName("Jasp");
  EXPECT_EQ(jasp.benchmark, "MLPerf");
  EXPECT_EQ(jasp.epochs, 4);
  EXPECT_FALSE(jasp.fine_tune);
}

TEST(Profiles, VanillaRuntimesSpanPaperScales) {
  // Fine-tuning workloads are ~1h; the big training jobs are many hours.
  auto rte = *WorkloadByName("RTE");
  EXPECT_GT(rte.VanillaSeconds(), 0.5 * 3600);
  EXPECT_LT(rte.VanillaSeconds(), 2.0 * 3600);
  auto wiki = *WorkloadByName("Wiki");
  EXPECT_GT(wiki.VanillaSeconds(), 10 * 3600);
}

TEST(Models, BuildAllTinyModels) {
  for (const auto& p : AllWorkloads()) {
    Rng rng(p.seed);
    auto net = BuildModel(p, &rng);
    ASSERT_NE(net, nullptr) << p.name;
    EXPECT_GT(net->ParameterCount(), 0) << p.name;
    // Forward on a real batch shape.
    data::SyntheticDataset::Config cfg;
    cfg.task = p.task_kind;
    cfg.num_samples = p.real_samples;
    cfg.feature_dim = p.real_feature_dim;
    cfg.num_classes = p.real_classes;
    cfg.vocab_size = p.real_vocab;
    cfg.seed = p.seed;
    data::SyntheticDataset ds(cfg);
    auto feats = ds.BatchFeatures(0, 4);
    ASSERT_TRUE(feats.ok());
    auto out = net->Forward(*feats);
    ASSERT_TRUE(out.ok()) << p.name << ": " << out.status().ToString();
    EXPECT_EQ(out->shape(), (Shape{4, p.real_classes})) << p.name;
  }
}

TEST(Models, FreezeBackboneFreezesMajority) {
  auto p = *WorkloadByName("RTE");
  Rng rng(p.seed);
  auto net = BuildModel(p, &rng);
  const int frozen = FreezeBackbone(net.get());
  EXPECT_GT(frozen, 0);
  int64_t frozen_params = 0;
  for (auto* param : net->Parameters())
    if (param->frozen) frozen_params += param->value.numel();
  // "the vast majority of weights are frozen in model fine-tuning" (§5.3.4)
  EXPECT_GT(frozen_params, net->ParameterCount() / 2);
}

TEST(Models, OptimizerAndSchedulerKinds) {
  auto rte = *WorkloadByName("RTE");
  Rng rng = testutil::SeededRng(1);
  auto net = BuildModel(rte, &rng);
  auto opt = BuildOptimizer(rte, net.get());
  EXPECT_EQ(opt->Kind(), "adamw");
  auto sched = BuildScheduler(rte, opt.get());
  EXPECT_EQ(sched->Kind(), "step");

  auto cifr = *WorkloadByName("Cifr");
  auto net2 = BuildModel(cifr, &rng);
  auto opt2 = BuildOptimizer(cifr, net2.get());
  EXPECT_EQ(opt2->Kind(), "sgd");
  EXPECT_EQ(BuildScheduler(cifr, opt2.get())->Kind(), "cosine");
}

WorkloadProfile FastProfile() {
  auto p = *WorkloadByName("Cifr");
  p.epochs = 4;
  p.real_samples = 32;
  p.real_batch = 8;
  return p;
}

TEST(Factory, RebuildsStructurallyIdenticalPrograms) {
  auto factory = MakeWorkloadFactory(FastProfile(), kProbeNone);
  auto a = factory();
  auto b = factory();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->program->RenderSource(), b->program->RenderSource());
}

TEST(Factory, ProbeFlagsInsertLogStatements) {
  auto none = MakeWorkloadFactory(FastProfile(), kProbeNone)();
  auto outer = MakeWorkloadFactory(FastProfile(), kProbeOuter)();
  auto inner = MakeWorkloadFactory(FastProfile(), kProbeInner)();
  auto both =
      MakeWorkloadFactory(FastProfile(), kProbeOuter | kProbeInner)();
  ASSERT_TRUE(none.ok() && outer.ok() && inner.ok() && both.ok());
  EXPECT_NE(none->program->RenderSource(), outer->program->RenderSource());
  EXPECT_NE(outer->program->RenderSource(), inner->program->RenderSource());
  EXPECT_NE(outer->program->RenderSource(), both->program->RenderSource());
  EXPECT_NE(outer->program->RenderSource().find("weight_norm"),
            std::string::npos);
  EXPECT_NE(inner->program->RenderSource().find("grad_norm"),
            std::string::npos);
}

TEST(Factory, CanonicalAnalysisMatchesPaperExample) {
  auto instance = MakeWorkloadFactory(FastProfile(), kProbeNone)();
  ASSERT_TRUE(instance.ok());
  InstrumentReport report = InstrumentProgram(instance->program.get());
  EXPECT_EQ(report.loops_total, 2);
  EXPECT_EQ(report.loops_instrumented, 1);
  ir::Loop* training = instance->program->FindLoop(2);
  ASSERT_NE(training, nullptr);
  EXPECT_TRUE(training->analysis().instrumented);
  EXPECT_EQ(training->analysis().changeset,
            (std::vector<std::string>{"optimizer"}));
}

TEST(Factory, ExecutionIsDeterministicAndLearns) {
  auto factory = MakeWorkloadFactory(FastProfile(), kProbeNone);
  uint64_t fps[2];
  float first_loss = 0, last_loss = 0;
  for (int round = 0; round < 2; ++round) {
    auto instance = factory();
    ASSERT_TRUE(instance.ok());
    auto env = Env::NewSimEnv();
    exec::LogStream logs;
    exec::Interpreter interp(env.get(), &logs, nullptr);
    exec::Frame frame;
    ASSERT_TRUE(interp.Run(instance->program.get(), &frame).ok());
    auto* rt = static_cast<WorkloadRuntime*>(instance->context.get());
    fps[round] = rt->net->StateFingerprint();
    // Extract first and last per-batch losses.
    for (const auto& e : logs.entries()) {
      if (e.label != "loss") continue;
      if (first_loss == 0) first_loss = std::stof(e.text);
      last_loss = std::stof(e.text);
    }
  }
  EXPECT_EQ(fps[0], fps[1]) << "training is not deterministic";
  EXPECT_LT(last_loss, first_loss) << "model failed to learn";
}

TEST(Factory, SimulatedRuntimeMatchesProfile) {
  const auto p = FastProfile();
  auto instance = MakeWorkloadFactory(p, kProbeNone)();
  ASSERT_TRUE(instance.ok());
  auto env = Env::NewSimEnv();
  exec::Interpreter interp(env.get(), nullptr, nullptr);
  exec::Frame frame;
  ASSERT_TRUE(interp.Run(instance->program.get(), &frame).ok());
  EXPECT_NEAR(interp.elapsed_seconds(), p.VanillaSeconds(),
              p.VanillaSeconds() * 0.01);
}

TEST(Factory, DefaultRecordOptionsWired) {
  const auto p = *WorkloadByName("RnnT");
  RecordOptions opts = DefaultRecordOptions(p, "prefix/run");
  EXPECT_EQ(opts.run_prefix, "prefix/run");
  EXPECT_EQ(opts.workload, "RnnT");
  EXPECT_EQ(opts.nominal_checkpoint_bytes, p.sim_ckpt_raw_bytes);
  EXPECT_TRUE(opts.adaptive.enabled);
  EXPECT_NEAR(opts.adaptive.epsilon, 1.0 / 15.0, 1e-12);
  EXPECT_EQ(opts.materializer.strategy, MaterializeStrategy::kFork);
}

/// Records `name` at its real model size for 3 epochs with every epoch
/// checkpointed, and returns each stored checkpoint's codec and its object
/// size over its decompressed payload size.
void RecordAndMeasureStorage(const std::string& name,
                             std::vector<Codec>* codecs,
                             std::vector<double>* ratios) {
  WorkloadProfile profile = *WorkloadByName(name);
  profile.epochs = 3;
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  RecordOptions opts = DefaultRecordOptions(profile, "run");
  opts.adaptive.enabled = false;
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  exec::Frame frame;
  auto rec = RecordSession(&env, opts).Run(instance->program.get(), &frame);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  auto run = OpenRun(&fs, "run", TierOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->manifest.records.size(), 3u);
  for (const CheckpointRecord& record : run->manifest.records) {
    auto object = run->store->GetBytes(record.key);
    ASSERT_TRUE(object.ok()) << object.status().ToString();
    FrameReader reader(*object);
    std::string compressed;
    ASSERT_TRUE(reader.Next(&compressed).ok());
    auto codec = PeekCodec(compressed);
    auto payload = Decompress(compressed);
    ASSERT_TRUE(codec.ok());
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    codecs->push_back(*codec);
    ratios->push_back(static_cast<double>(object->size()) /
                      static_cast<double>(payload->size()));
  }
}

TEST(Storage, FineTuneCheckpointsStoreRleAndFromScratchStoreRaw) {
  // The fine-tune profiles freeze their encoder, so its weights' AdamW
  // moments are long zero runs: RLE stores 0.36 of the payload, and the
  // 0.37 bound sits below the 0.39 the retired LZ codec stored. A
  // from-scratch model has no runs to find, so its checkpoints stay raw.
  for (const char* name : {"RTE", "CoLA"}) {
    SCOPED_TRACE(name);
    std::vector<Codec> codecs;
    std::vector<double> ratios;
    ASSERT_NO_FATAL_FAILURE(RecordAndMeasureStorage(name, &codecs, &ratios));
    for (size_t i = 0; i < codecs.size(); ++i) {
      EXPECT_EQ(codecs[i], Codec::kRle) << "checkpoint " << i;
      EXPECT_LE(ratios[i], 0.37) << "checkpoint " << i;
    }
  }
  std::vector<Codec> codecs;
  std::vector<double> ratios;
  ASSERT_NO_FATAL_FAILURE(RecordAndMeasureStorage("Cifr", &codecs, &ratios));
  for (size_t i = 0; i < codecs.size(); ++i) {
    EXPECT_EQ(codecs[i], Codec::kNone) << "checkpoint " << i;
    EXPECT_GT(ratios[i], 1.0) << "checkpoint " << i;
  }
}

}  // namespace
}  // namespace workloads
}  // namespace flor
