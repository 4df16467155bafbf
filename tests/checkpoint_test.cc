// Unit tests: checkpoint format, store + manifest, materializer strategies,
// spooler, with corruption-injection coverage.

#include <gtest/gtest.h>

#include <map>

#include "checkpoint/materializer.h"
#include "checkpoint/spool.h"
#include "common/strings.h"
#include "checkpoint/store.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "sim/cost_model.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace flor {
namespace {

TEST(CheckpointKey, ToStringAndEpoch) {
  CheckpointKey key{2, "e=17"};
  EXPECT_EQ(key.ToString(), "L2@e=17");
  EXPECT_EQ(key.EpochIndex(), 17);
  CheckpointKey nested{3, "e=4/i=2"};
  EXPECT_EQ(nested.ToString(), "L3@e=4.i=2");
  EXPECT_EQ(nested.EpochIndex(), 4);
  CheckpointKey top{1, ""};
  EXPECT_EQ(top.EpochIndex(), -1);
}

NamedSnapshots SampleSnapshots() {
  NamedSnapshots snaps;
  snaps.emplace_back("count", ir::SnapshotValue(ir::Value::Int(42)));
  Tensor t(Shape{16});
  Rng rng = testutil::SeededRng(3);
  ops::RandNormal(&t, &rng);
  snaps.emplace_back("weights",
                     ir::SnapshotValue(ir::Value::FromTensor(t)));
  snaps.emplace_back("name", ir::SnapshotValue(ir::Value::Str("flor")));
  return snaps;
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  NamedSnapshots snaps = SampleSnapshots();
  std::string bytes = EncodeCheckpoint(snaps);
  auto back = DecodeCheckpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[0].first, "count");
  EXPECT_EQ((*back)[0].second.int_v, 42);
  EXPECT_TRUE((*back)[1].second.tensor_v.Equals(snaps[1].second.tensor_v));
  EXPECT_EQ((*back)[2].second.str_v, "flor");
}

TEST(Checkpoint, ModuleAndOptimizerSnapshotsRoundTrip) {
  Rng rng = testutil::SeededRng(4);
  nn::Linear fc("fc", 4, 4, &rng);
  nn::Adam adam(&fc, 0.01f);
  ops::Fill(&fc.weight().grad, 0.1f);
  ASSERT_TRUE(adam.Step().ok());

  NamedSnapshots snaps;
  snaps.emplace_back("net", ir::SnapshotValue(ir::Value::ModuleRef(&fc)));
  snaps.emplace_back("opt",
                     ir::SnapshotValue(ir::Value::OptimizerRef(&adam)));
  auto back = DecodeCheckpoint(EncodeCheckpoint(snaps));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0].second.params.size(), 2u);  // weight + bias
  EXPECT_EQ((*back)[1].second.opt_kind, "adam");
  EXPECT_EQ((*back)[1].second.opt_steps, 1);
}

TEST(Checkpoint, AnyByteCorruptionDetected) {
  testutil::ExpectCorruptionsRejected(
      EncodeCheckpoint(SampleSnapshots()), /*salt=*/96, /*splices=*/200,
      [](const std::string& bytes) {
        return DecodeCheckpoint(bytes).status();
      });
}

TEST(Checkpoint, HostilePayloadWithValidCrcIsCorruption) {
  // A valid CRC is not authentication: a hostile bucket object re-framed
  // with a correct checksum must still fail typed, and must not allocate
  // from its untrusted length fields on the way.
  std::string tensor_snapshot;
  PutVarint64(&tensor_snapshot, 1);  // one snapshot
  PutLengthPrefixed(&tensor_snapshot, "weights");
  tensor_snapshot.push_back(static_cast<char>(ir::ValueKind::kTensor));
  tensor_snapshot.push_back(static_cast<char>(DType::kF32));
  PutVarint64(&tensor_snapshot, 1);                     // rank
  PutVarint64(&tensor_snapshot, uint64_t{1} << 62);     // dim, no data
  std::string huge_blob(1, static_cast<char>(Codec::kLz));
  PutVarint64(&huge_blob, uint64_t{1} << 62);  // declared size
  huge_blob.append("\x01\x00\x00\x00", 4);    // one LZ match token
  std::string huge_rle(1, static_cast<char>(Codec::kRle));
  PutVarint64(&huge_rle, uint64_t{1} << 62);  // declared size
  huge_rle.append("\xff\x00", 2);             // one 129-byte run
  for (const std::string& compressed :
       {Compress(tensor_snapshot, Codec::kLz), huge_blob, huge_rle}) {
    std::string object;
    AppendFrame(&object, compressed);
    auto got = DecodeCheckpoint(object);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  }
}

/// Live replay state: a small MLP, its SGD-momentum optimizer and plain
/// values, bound by name the way a replay frame binds them.
struct LiveModel {
  explicit LiveModel(uint64_t salt)
      : rng(testutil::SeededRng(salt)),
        net(nn::BuildMlp("mlp", {4, 6, 2}, &rng)),
        sgd(net.get(), 0.1f, 0.9f) {
    vars["net"] = ir::Value::ModuleRef(net.get());
    vars["opt"] = ir::Value::OptimizerRef(&sgd);
    vars["count"] = ir::Value::Int(1);
    vars["weights"] = ir::Value::FromTensor(Tensor(Shape{16}));
    vars["name"] = ir::Value::Str("live");
  }

  /// Trains one step so the optimizer state is nonzero.
  void Step() {
    for (nn::Parameter* p : net->Parameters()) ops::Fill(&p->grad, 0.25f);
    ASSERT_TRUE(sgd.Step().ok());
  }

  LiveValueFn Lookup() {
    return [this](const std::string& name) -> Result<ir::Value*> {
      auto it = vars.find(name);
      if (it == vars.end()) return Status::NotFound("unbound: " + name);
      return &it->second;
    };
  }

  /// Snapshots every bound variable, in name order.
  NamedSnapshots Snapshots() const {
    NamedSnapshots snaps;
    for (const auto& [name, v] : vars)
      snaps.emplace_back(name, ir::SnapshotValue(v));
    return snaps;
  }

  /// Hash of the model, the optimizer and every plain value.
  uint64_t Fingerprint() {
    uint64_t h = net->StateFingerprint() ^ Mix64(sgd.StateFingerprint());
    for (const auto& [name, v] : vars) h = Mix64(h ^ v.Fingerprint());
    return h;
  }

  Rng rng;
  std::unique_ptr<nn::Sequential> net;
  nn::Sgd sgd;
  std::map<std::string, ir::Value> vars;
};

TEST(Checkpoint, RestoreWritesParametersAndOptimizerStateInPlace) {
  LiveModel src(31);
  src.Step();
  src.vars["count"] = ir::Value::Int(42);
  Tensor recorded(Shape{16});
  Rng rng = testutil::SeededRng(32);
  ops::RandNormal(&recorded, &rng);
  src.vars["weights"] = ir::Value::FromTensor(recorded);
  const std::string bytes = EncodeCheckpoint(src.Snapshots());

  LiveModel dst(33);
  std::vector<const float*> storage;
  for (nn::Parameter* p : dst.net->Parameters()) storage.push_back(p->value.f32());
  for (Tensor* t : dst.sgd.StateTensors()) storage.push_back(t->f32());
  const Tensor old_weights = dst.vars["weights"].AsTensor();
  const ir::Value alias = dst.vars["weights"];
  const uint64_t old_fingerprint = alias.Fingerprint();

  ASSERT_TRUE(RestoreCheckpoint(bytes, dst.Lookup()).ok());

  // Parameters and optimizer state keep their storage and hold the
  // checkpoint's bytes.
  auto src_params = src.net->Parameters();
  auto dst_params = dst.net->Parameters();
  auto src_state = src.sgd.StateTensors();
  auto dst_state = dst.sgd.StateTensors();
  ASSERT_EQ(storage.size(), dst_params.size() + dst_state.size());
  for (size_t i = 0; i < dst_params.size(); ++i) {
    EXPECT_EQ(dst_params[i]->value.f32(), storage[i]) << dst_params[i]->name;
    EXPECT_TRUE(dst_params[i]->value.Equals(src_params[i]->value))
        << dst_params[i]->name;
  }
  for (size_t i = 0; i < dst_state.size(); ++i) {
    EXPECT_EQ(dst_state[i]->f32(), storage[dst_params.size() + i]);
    EXPECT_TRUE(dst_state[i]->Equals(*src_state[i]));
  }
  EXPECT_EQ(dst.sgd.step_count(), 1);
  EXPECT_EQ(dst.vars["count"].AsInt(), 42);

  // A plain tensor variable is rebound, not written through: a Value that
  // shared the old tensor keeps the old contents.
  EXPECT_TRUE(dst.vars["weights"].AsTensor().Equals(recorded));
  EXPECT_FALSE(dst.vars["weights"].AsTensor().SharesStorageWith(old_weights));
  EXPECT_EQ(alias.Fingerprint(), old_fingerprint);
  EXPECT_EQ(dst.Fingerprint(), src.Fingerprint());
}

/// Encodes a one-variable checkpoint "net" holding `net`'s parameters,
/// except that parameter 0's tensor header declares `dims0` and is
/// followed by `data0_bytes` bytes of data.
std::string ModuleCheckpointWithFirstDims(nn::Module* net,
                                          const std::vector<int64_t>& dims0,
                                          size_t data0_bytes) {
  std::string payload;
  PutVarint64(&payload, 1);
  PutLengthPrefixed(&payload, "net");
  payload.push_back(static_cast<char>(ir::ValueKind::kModule));
  auto params = net->Parameters();
  PutVarint64(&payload, params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    PutLengthPrefixed(&payload, params[i]->name);
    if (i > 0) {
      EncodeTensor(&payload, params[i]->value);
      continue;
    }
    payload.push_back(static_cast<char>(DType::kF32));
    PutVarint64(&payload, dims0.size());
    for (int64_t d : dims0) PutVarint64(&payload, static_cast<uint64_t>(d));
    payload.append(data0_bytes, '\x01');
  }
  std::string object;
  AppendFrame(&object, Compress(payload, Codec::kRle));
  return object;
}

TEST(Checkpoint, HostileBytesThroughRestoreCopyNothing) {
  // Every corruption of a model checkpoint and every hostile payload with
  // a valid CRC fails with Corruption through the in-place restore, and
  // the CRC, codec and tensor-header checks reject each before any byte
  // reaches the live model.
  LiveModel src(34);
  src.Step();
  const std::string encoded = EncodeCheckpoint(src.Snapshots());
  LiveModel live(35);
  const uint64_t untouched = live.Fingerprint();
  testutil::ExpectCorruptionsRejected(
      encoded, /*salt=*/97, /*splices=*/200,
      [&live](const std::string& bytes) {
        return RestoreCheckpoint(bytes, live.Lookup());
      });
  EXPECT_EQ(live.Fingerprint(), untouched);

  std::vector<std::pair<std::string, std::string>> hostile;
  std::string tensor_snapshot;
  PutVarint64(&tensor_snapshot, 1);
  PutLengthPrefixed(&tensor_snapshot, "weights");
  tensor_snapshot.push_back(static_cast<char>(ir::ValueKind::kTensor));
  tensor_snapshot.push_back(static_cast<char>(DType::kF32));
  PutVarint64(&tensor_snapshot, 1);
  PutVarint64(&tensor_snapshot, uint64_t{1} << 62);
  hostile.emplace_back("huge tensor dims", "");
  AppendFrame(&hostile.back().second, Compress(tensor_snapshot, Codec::kRle));
  std::string huge_rle(1, static_cast<char>(Codec::kRle));
  PutVarint64(&huge_rle, uint64_t{1} << 62);
  huge_rle.append("\xff\x00", 2);
  hostile.emplace_back("huge RLE size", "");
  AppendFrame(&hostile.back().second, huge_rle);
  // The first weight [6, 4] declared [4, 6]: the same byte count, other
  // dims. The parameters after it hold `src`'s values, which would change
  // the live model if they were written.
  hostile.emplace_back("other dims",
                       ModuleCheckpointWithFirstDims(src.net.get(), {4, 6},
                                                     24 * sizeof(float)));
  // [60, 4] declares 960 bytes; far fewer remain in the payload.
  hostile.emplace_back("more bytes than remain",
                       ModuleCheckpointWithFirstDims(src.net.get(), {60, 4},
                                                     24 * sizeof(float)));
  for (const auto& [what, object] : hostile) {
    const Status s = RestoreCheckpoint(object, live.Lookup());
    EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
    EXPECT_EQ(live.Fingerprint(), untouched) << what;
  }
}

TEST(Checkpoint, RawBytesAccounting) {
  NamedSnapshots snaps = SampleSnapshots();
  const uint64_t raw = SnapshotsRawBytes(snaps);
  EXPECT_GT(raw, 16u * 4u);  // at least the tensor payload
}

TEST(Store, PutGetExistsAndTotals) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt");
  CheckpointKey key{2, "e=0"};
  EXPECT_FALSE(store.Exists(key));
  std::string bytes = EncodeCheckpoint(SampleSnapshots());
  ASSERT_TRUE(store.PutBytes(key, bytes).ok());
  EXPECT_TRUE(store.Exists(key));
  auto back = store.Get(key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 3u);
  EXPECT_EQ(store.TotalBytes(), bytes.size());
  EXPECT_TRUE(store.Get(CheckpointKey{2, "e=1"}).status().IsNotFound());
}

TEST(Store, CorruptionSurfacesOnRead) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "ck");
  CheckpointKey key{1, "e=3"};
  ASSERT_TRUE(store.PutBytes(key, EncodeCheckpoint(SampleSnapshots())).ok());
  ASSERT_TRUE(fs.CorruptByte("ck/L1@e=3.ckpt", 10).ok());
  EXPECT_TRUE(store.Get(key).status().IsCorruption());
}

TEST(Manifest, SerializeRoundTrip) {
  Manifest m;
  m.workload = "RTE";
  m.record_runtime_seconds = 123.5;
  for (int64_t e : {33, 66, 99}) {
    CheckpointRecord rec;
    rec.key = {2, StrCat("e=", e)};
    rec.epoch = e;
    rec.raw_bytes = 1000;
    rec.stored_bytes = 600;
    rec.nominal_raw_bytes = 4ull << 30;
    rec.materialize_seconds = 24.5;
    m.records.push_back(rec);
  }
  auto back = Manifest::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->workload, "RTE");
  EXPECT_DOUBLE_EQ(back->record_runtime_seconds, 123.5);
  ASSERT_EQ(back->records.size(), 3u);
  EXPECT_EQ(back->records[1].epoch, 66);
  EXPECT_EQ(back->records[1].nominal_raw_bytes, 4ull << 30);
  EXPECT_EQ(back->EpochsWithCheckpoint(2),
            (std::vector<int64_t>{33, 66, 99}));
  EXPECT_TRUE(back->EpochsWithCheckpoint(7).empty());
  EXPECT_EQ(back->TotalStoredBytes(), 1800u);
  EXPECT_EQ(back->TotalNominalBytes(), 3ull * (4ull << 30));
}

TEST(Manifest, MalformedLineRejected) {
  EXPECT_FALSE(Manifest::Deserialize("garbage line\n").ok());
}

Manifest ShardedManifest(int shard_count, int records) {
  Manifest m;
  m.workload = "RsNt";
  m.record_runtime_seconds = 50.25;
  m.shard_count = shard_count;
  m.checkpoint_names[2] = {"net", "optimizer", "scheduler"};
  ShardRouter router(shard_count);
  for (int e = 0; e < records; ++e) {
    CheckpointRecord rec;
    rec.key = {2, StrCat("e=", e)};
    rec.epoch = e;
    rec.raw_bytes = 512;
    rec.stored_bytes = 300;
    rec.materialize_seconds = 1.5;
    rec.shard = router.ShardOf(rec.key);
    m.records.push_back(rec);
  }
  return m;
}

TEST(Manifest, ShardCountRoundTrips) {
  Manifest m = ShardedManifest(/*shard_count=*/8, /*records=*/12);
  const std::string bytes = m.Serialize();
  EXPECT_NE(bytes.find("shards\t8"), std::string::npos);
  auto back = Manifest::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->shard_count, 8);
  ASSERT_EQ(back->records.size(), 12u);
  for (size_t i = 0; i < back->records.size(); ++i)
    EXPECT_EQ(back->records[i].shard, m.records[i].shard) << i;
}

TEST(Manifest, UnshardedSerializationIsByteStableLegacyFormat) {
  // At shard count 1 the output must carry no shard fields at all, like
  // the pre-sharding format, so old and new manifests are interchangeable
  // for unsharded runs.
  Manifest m = ShardedManifest(/*shard_count=*/1, /*records=*/3);
  const std::string bytes = m.Serialize();
  EXPECT_EQ(bytes.find("shards"), std::string::npos);
  for (const auto& line : StrSplit(bytes, '\n')) {
    if (StartsWith(line, "ckpt\t")) {
      EXPECT_EQ(StrSplit(line, '\t').size(), 8u) << line;
    }
  }
  auto back = Manifest::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard_count, 1);
}

TEST(Manifest, OldFormatDeserializesAsSingleShardAndRoundTrips) {
  // A manifest written before sharding existed (8-field ckpt lines, no
  // `shards` line) must load as shard count 1 and survive a round trip
  // through the new code with its records unchanged. The vanilla_runtime,
  // c_estimate and loop_exec lines it carries are dropped.
  const std::string records =
      "ckpt\t2\te=33\t33\t1000\t600\t4294967296\t24.5\n"
      "ckpt\t2\te=66\t66\t1000\t600\t4294967296\t24.5\n";
  const std::string old_format =
      "workload\tRTE\n"
      "record_runtime\t123.5\n"
      "vanilla_runtime\t120\n"
      "c_estimate\t1.38\n"
      "loop_exec\t2\t200\n" +
      records;
  auto m = Manifest::Deserialize(old_format);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->shard_count, 1);
  ASSERT_EQ(m->records.size(), 2u);
  EXPECT_EQ(m->records[0].shard, 0);
  EXPECT_EQ(m->Serialize(),
            "workload\tRTE\nrecord_runtime\t123.5\n" + records);
}

TEST(Manifest, CheckpointNamesRoundTrip) {
  Manifest m = ShardedManifest(/*shard_count=*/1, /*records=*/2);
  m.checkpoint_names[5] = {};  // a checkpoint that holds no variable
  const std::string bytes = m.Serialize();
  EXPECT_NE(bytes.find("ckpt_names\t2\tnet\toptimizer\tscheduler\n"),
            std::string::npos)
      << bytes;
  EXPECT_NE(bytes.find("ckpt_names\t5\n"), std::string::npos) << bytes;
  auto back = Manifest::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->checkpoint_names, m.checkpoint_names);
  EXPECT_EQ(back->Serialize(), bytes);

  // Without names the bytes are the format that predates them.
  m.checkpoint_names.clear();
  EXPECT_EQ(m.Serialize().find("ckpt_names"), std::string::npos);
}

TEST(Manifest, MalformedCheckpointNamesAreCorruption) {
  for (const char* bad : {
           "ckpt_names\n",                        // no loop id
           "ckpt_names\tL2\tnet\n",              // non-numeric loop id
           "ckpt_names\t2\t\tnet\n",             // empty name
           "ckpt_names\t2\tnet\t\n",             // cut at a separator
           "ckpt_names\t2\tnet\nckpt_names\t2\tw\n",  // two lines, one loop
       }) {
    auto got = Manifest::Deserialize(bad);
    EXPECT_TRUE(got.status().IsCorruption()) << bad;
  }
}

TEST(Manifest, TruncatedInputNeverCrashesOrSilentlyDefaults) {
  // Mirror of the serialize-suite strict-prefix tests: deserializing any
  // strict prefix either succeeds or reports Corruption — never a crash,
  // never another code. (A cut inside a decimal can legitimately parse —
  // "50.2" is a prefix of "50.25" — but a cut that leaves a dangling tag
  // or an empty numeric field must be Corruption, not a zero default.)
  const std::string full = ShardedManifest(4, 6).Serialize();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    auto got = Manifest::Deserialize(prefix);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsCorruption()) << "cut=" << cut;
    } else if (cut > 0 && full[cut - 1] == '\t' &&
               !StartsWith(prefix.substr(prefix.rfind('\n') + 1),
                           "workload")) {
      // A numeric line truncated at a field separator has an empty last
      // field — that must never parse as zero. (The workload line is
      // exempt: an empty workload string is representable.)
      ADD_FAILURE() << "cut=" << cut
                    << " accepted a line truncated at a field separator";
    }
    // Every prefix ending on a line boundary is a complete (shorter)
    // manifest and must parse.
    if (prefix.empty() || prefix.back() == '\n') {
      EXPECT_TRUE(got.ok()) << "cut=" << cut << ": "
                            << got.status().ToString();
    }
  }
}

TEST(Manifest, NonNumericFieldsAreCorruptionNotZero) {
  // The permissive strtod/strtol behavior used to turn garbage into 0;
  // every numeric field must now be parsed strictly.
  EXPECT_TRUE(Manifest::Deserialize("record_runtime\tfast\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Manifest::Deserialize("c_estimate\t1.2.3\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Manifest::Deserialize("vanilla_runtime\t\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Manifest::Deserialize("shards\tmany\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Manifest::Deserialize("shards\t0\n").status().IsCorruption());
  EXPECT_TRUE(Manifest::Deserialize("loop_exec\tx\t3\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      Manifest::Deserialize("ckpt\t2\te=1\t1\t10e\t6\t0\t1.5\n")
          .status()
          .IsCorruption());
  EXPECT_TRUE(
      Manifest::Deserialize("ckpt\t2\te=1\t1\t10\t6\t0\t1.5\t-2\n")
          .status()
          .IsCorruption());
  // Record shard beyond the declared shard count is inconsistent.
  EXPECT_TRUE(Manifest::Deserialize(
                  "shards\t2\nckpt\t2\te=1\t1\t10\t6\t0\t1.5\t5\n")
                  .status()
                  .IsCorruption());
  // Out-of-int-range shard values must be Corruption, never a silent
  // narrowing wrap (2^32 would wrap to 0 and pass the shard-count check).
  EXPECT_TRUE(Manifest::Deserialize(
                  "shards\t2\nckpt\t2\te=1\t1\t10\t6\t0\t1.5\t4294967296\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Manifest::Deserialize(
                  "shards\t2\nckpt\t2\te=1\t1\t10\t6\t0\t1.5\t2147483648\n")
                  .status()
                  .IsCorruption());
}

TEST(Manifest, GarbageBytesFuzz) {
  // Mutations of a valid manifest must parse, or fail with Corruption —
  // nothing else (no crashes, no other codes). The manifest is plain text
  // with no checksum, so a flipped digit can parse as another value.
  testutil::ForEachCorruption(
      ShardedManifest(4, 6).Serialize(), /*salt=*/97, /*splices=*/200,
      [](const testutil::Corrupted& c) {
        auto got = Manifest::Deserialize(c.bytes);
        if (!got.ok()) {
          EXPECT_TRUE(got.status().IsCorruption())
              << c.what << ": " << got.status().ToString();
        }
      });
}

TEST(OpenRun, MissingRunIsNotFoundAndTornManifestIsCorruption) {
  MemFileSystem fs;
  EXPECT_TRUE(OpenRun(&fs, "run", TierOptions()).status().IsNotFound());
  EXPECT_TRUE(ReadManifest(&fs, "run").status().IsNotFound());

  Manifest m;
  m.workload = "w";
  m.shard_count = 4;
  CheckpointRecord rec;
  rec.key = CheckpointKey{2, "e=7"};
  rec.epoch = 7;
  rec.shard = 3;
  m.records.push_back(rec);
  const std::string bytes = m.Serialize();
  const std::string manifest_path = RunPaths("run").Manifest();

  // Torn mid-record: the line keeps its tag and loses the rest.
  ASSERT_TRUE(
      fs.WriteFile(manifest_path, bytes.substr(0, bytes.rfind("ckpt\t") + 6))
          .ok());
  auto torn = OpenRun(&fs, "run", TierOptions());
  EXPECT_TRUE(torn.status().IsCorruption()) << torn.status().ToString();

  // Intact: the parsed manifest and a store with its shard layout and the
  // requested tier.
  ASSERT_TRUE(fs.WriteFile(manifest_path, bytes).ok());
  auto opened = OpenRun(&fs, "run", testutil::BucketTier("s3"));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->manifest.Serialize(), bytes);
  EXPECT_EQ(opened->store->prefix(), RunPaths("run").CkptPrefix());
  EXPECT_EQ(opened->store->num_shards(), 4);
  EXPECT_EQ(opened->store->bucket_prefix(), "s3");
  EXPECT_FALSE(opened->store->bloom_enabled());
}

TEST(ShardRouter, PlacementIsDeterministicAndInRange) {
  ShardRouter router(16);
  for (int i = 0; i < 200; ++i) {
    const CheckpointKey key{3, StrCat("e=", i)};
    const int shard = router.ShardOf(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 16);
    EXPECT_EQ(shard, router.ShardOf(key));  // pure function of the key
  }
  // Single-shard router keeps the legacy flat layout.
  ShardRouter flat(1);
  EXPECT_EQ(flat.ShardOf(CheckpointKey{3, "e=7"}), 0);
  EXPECT_EQ(flat.PathFor("run/ckpt", CheckpointKey{3, "e=7"}),
            "run/ckpt/L3@e=7.ckpt");
  EXPECT_EQ(router.ShardPrefix("run/ckpt", 7), "run/ckpt/shard-0007");
}

TEST(ShardRouter, SpreadsKeysAcrossShards) {
  // CRC32C placement over many keys should touch every shard and keep the
  // heaviest shard within a small factor of fair share.
  const int kShards = 8;
  const int kKeys = 800;
  ShardRouter router(kShards);
  std::vector<int> count(kShards, 0);
  for (int i = 0; i < kKeys; ++i)
    ++count[static_cast<size_t>(router.ShardOf(CheckpointKey{
        2, StrCat("e=", i)}))];
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(count[s], 0) << "shard " << s << " unused";
    EXPECT_LT(count[s], 2 * kKeys / kShards) << "shard " << s << " hot";
  }
}

TEST(Store, ShardedPutGetAndLayout) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/4);
  EXPECT_EQ(store.num_shards(), 4);

  std::string bytes = EncodeCheckpoint(SampleSnapshots());
  uint64_t total = 0;
  for (int e = 0; e < 10; ++e) {
    CheckpointKey key{2, StrCat("e=", e)};
    ASSERT_TRUE(store.PutBytes(key, bytes).ok());
    total += bytes.size();
    // The object lives exactly at its routed shard path.
    const std::string path = store.PathFor(key);
    EXPECT_NE(path.find(StrFormat("shard-%04d", store.ShardOf(key))),
              std::string::npos);
    EXPECT_TRUE(fs.Exists(path));
    auto back = store.Get(key);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size(), 3u);
  }
  EXPECT_EQ(store.TotalBytes(), total);

  // The shard prefixes list every object, each on its routed shard.
  size_t objects = 0;
  for (int shard = 0; shard < store.num_shards(); ++shard)
    objects += fs.ListPrefix(store.ShardPrefix(shard) + "/").size();
  EXPECT_EQ(objects, 10u);
}

TEST(Store, SingleShardMatchesLegacyFlatLayout) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/1);
  CheckpointKey key{2, "e=0"};
  ASSERT_TRUE(store.PutBytes(key, "payload").ok());
  // Exactly the pre-sharding path — no shard directory.
  EXPECT_TRUE(fs.Exists("run/ckpt/L2@e=0.ckpt"));
  EXPECT_EQ(store.PathFor(key), "run/ckpt/L2@e=0.ckpt");
}

TEST(Materializer, SimStrategiesOrderedAsFig5) {
  // Main-thread cost: Baseline > IPC-Queue > IPC-Plasma >= Fork.
  const uint64_t bytes = 1100ull * 1000 * 1000;
  double main_cost[4];
  int i = 0;
  for (auto strategy :
       {MaterializeStrategy::kBaseline, MaterializeStrategy::kIpcQueue,
        MaterializeStrategy::kIpcPlasma, MaterializeStrategy::kFork}) {
    auto env = Env::NewSimEnv();
    MaterializerOptions opts;
    opts.strategy = strategy;
    Materializer mat(env.get(), opts);
    CheckpointStore store(env->fs(), "ck");
    auto receipt = mat.Materialize(&store, CheckpointKey{1, "e=0"},
                                   SampleSnapshots(), bytes);
    ASSERT_TRUE(receipt.ok());
    main_cost[i++] = receipt->main_thread_seconds;
  }
  EXPECT_GT(main_cost[0], main_cost[1]);
  EXPECT_GT(main_cost[1], main_cost[2]);
  EXPECT_GE(main_cost[2], main_cost[3]);  // Fork slightly ahead of Plasma
}

TEST(Materializer, BackpressureStallsWhenBufferFull) {
  auto env = Env::NewSimEnv();
  MaterializerOptions opts;
  opts.strategy = MaterializeStrategy::kFork;
  static_assert(kMaxInFlightMaterializations == 2);
  Materializer mat(env.get(), opts);
  CheckpointStore store(env->fs(), "ck");
  const uint64_t huge = 4ull << 30;  // ~25s of background work each
  for (int e = 0; e < 4; ++e) {
    auto receipt = mat.Materialize(&store, CheckpointKey{1, StrCat("e=", e)},
                                   SampleSnapshots(), huge);
    ASSERT_TRUE(receipt.ok());
    if (e < 2) {
      EXPECT_DOUBLE_EQ(receipt->stall_seconds, 0.0);
    } else {
      EXPECT_GT(receipt->stall_seconds, 1.0);  // buffer full: stall
    }
  }
  EXPECT_GT(mat.total_stall_seconds(), 0.0);
}

TEST(Materializer, DrainAdvancesToLastCompletion) {
  auto env = Env::NewSimEnv();
  MaterializerOptions opts;
  opts.strategy = MaterializeStrategy::kFork;
  Materializer mat(env.get(), opts);
  CheckpointStore store(env->fs(), "ck");
  auto receipt = mat.Materialize(&store, CheckpointKey{1, "e=0"},
                                 SampleSnapshots(), 1ull << 30);
  ASSERT_TRUE(receipt.ok());
  const double before = env->clock()->NowSeconds();
  mat.Drain();
  EXPECT_GT(env->clock()->NowSeconds(), before);  // joined the children
}

using MaterializerScratchTest = testutil::ScratchDirTest;

TEST_F(MaterializerScratchTest, WallModeWritesForReal) {
  auto env = NewPosixEnv();
  MaterializerOptions opts;
  opts.strategy = MaterializeStrategy::kFork;
  Materializer mat(env.get(), opts);
  CheckpointStore store(env->fs(), "ck");
  CheckpointKey key{1, "e=0"};
  auto receipt = mat.Materialize(&store, key, SampleSnapshots(), 0);
  ASSERT_TRUE(receipt.ok());
  mat.Drain();
  auto back = store.Get(key);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), 3u);
}

TEST(Materializer, CostModelHelpers) {
  // The rates themselves are checked in CostModel.PaperPlatformRatios.
  const uint64_t gb = 1ull << 30;
  EXPECT_NEAR(RestoreSeconds(gb) / MaterializeSeconds(gb), 1.38, 1e-9);
}

TEST(Spool, CopiesAndPrices) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt");
  ASSERT_TRUE(store.PutBytes({1, "e=0"}, std::string(1024, 'x')).ok());
  ASSERT_TRUE(store.PutBytes({1, "e=1"}, std::string(2048, 'y')).ok());
  SpoolReport report = SpoolStore(store, "s3/ckpt/");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.objects, 2);
  EXPECT_EQ(report.bytes, 3072u);
  EXPECT_TRUE(fs.Exists("s3/ckpt/L1@e=0.ckpt"));
  EXPECT_TRUE(fs.Exists("s3/ckpt/L1@e=1.ckpt"));
  EXPECT_DOUBLE_EQ(report.monthly_cost_dollars, S3MonthlyCost(3072));
}

TEST(Spool, S3PricingMatchesPaperBallpark) {
  // 14 GB (RTE's Table 4 footprint) should cost ~ $0.32/month.
  EXPECT_NEAR(S3MonthlyCost(14ull << 30), 0.322, 0.01);
  // "we can store 130 GB for a month, at the same cost as running a
  // single-GPU instance for an hour" — P3.2xLarge is $3.06/h.
  EXPECT_NEAR(S3MonthlyCost(130ull << 30), sim::kP3_2xLarge.dollars_per_hour,
              0.2);
}

}  // namespace
}  // namespace flor
