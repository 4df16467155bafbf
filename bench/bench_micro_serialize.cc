// Micro benchmarks (google-benchmark) for the serialization substrate:
// tensor encode/decode, the RLE codec on float and block-constant
// payloads, checksummed frames, full checkpoint round trips, and a
// replay-sized restore into a live model. These are the real-time costs
// behind the §5.1 serialization-vs-I/O discussion and the restore latency
// Ri of §5.4.

#include <benchmark/benchmark.h>

#include "checkpoint/checkpoint.h"
#include "common/random.h"
#include "exec/log_stream.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace flor {
namespace {

Tensor MakeTensor(int64_t n, bool compressible) {
  Tensor t(Shape{n});
  if (compressible) {
    // Block-constant data: the frozen-parameter pattern.
    float* p = t.f32();
    for (int64_t i = 0; i < n; ++i)
      p[i] = static_cast<float>((i / 64) % 7);
  } else {
    Rng rng(1234);
    ops::RandNormal(&t, &rng);
  }
  return t;
}

void BM_TensorEncode(benchmark::State& state) {
  Tensor t = MakeTensor(state.range(0), false);
  for (auto _ : state) {
    std::string bytes = TensorToBytes(t);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.byte_size()));
}
BENCHMARK(BM_TensorEncode)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_TensorDecode(benchmark::State& state) {
  std::string bytes = TensorToBytes(MakeTensor(state.range(0), false));
  for (auto _ : state) {
    auto t = TensorFromBytes(bytes);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_TensorDecode)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_CompressRle(benchmark::State& state) {
  const bool compressible = state.range(1) != 0;
  std::string payload = TensorToBytes(MakeTensor(state.range(0),
                                                 compressible));
  for (auto _ : state) {
    std::string out = Compress(payload, Codec::kRle);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CompressRle)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1});

void BM_FrameRoundTrip(benchmark::State& state) {
  std::string payload = TensorToBytes(MakeTensor(state.range(0), false));
  for (auto _ : state) {
    std::string framed;
    AppendFrame(&framed, payload);
    FrameReader reader(framed);
    std::string out;
    benchmark::DoNotOptimize(reader.Next(&out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(1 << 14)->Arg(1 << 18);

void BM_CheckpointEncodeDecode(benchmark::State& state) {
  NamedSnapshots snaps;
  for (int i = 0; i < 4; ++i) {
    snaps.emplace_back(
        "t" + std::to_string(i),
        ir::SnapshotValue(ir::Value::FromTensor(
            MakeTensor(state.range(0), i % 2 == 0))));
  }
  for (auto _ : state) {
    std::string bytes = EncodeCheckpoint(snaps);
    auto decoded = DecodeCheckpoint(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CheckpointEncodeDecode)->Arg(1 << 12)->Arg(1 << 16);

/// One SkipBlock restore of the replay_partial workload's shape: an MLP
/// 512→1024→1024→10 and its SGD momentum buffers (12.7 MB raw, stored raw
/// because trained floats do not shrink under RLE), restored from
/// in-memory bytes straight into the live model and optimizer. Covers the
/// CRC, the codec header, decoding and the copy into live storage; not the
/// read.
void BM_RestoreCheckpoint(benchmark::State& state) {
  Rng rng(1234);
  auto net = nn::BuildMlp("net", {512, 1024, 1024, 10}, &rng);
  nn::Sgd sgd(net.get(), 0.01f, 0.9f);
  for (Tensor* t : sgd.StateTensors()) ops::RandNormal(t, &rng);
  ir::Value net_v = ir::Value::ModuleRef(net.get());
  ir::Value opt_v = ir::Value::OptimizerRef(&sgd);
  NamedSnapshots snaps;
  snaps.emplace_back("net", ir::SnapshotValue(net_v));
  snaps.emplace_back("optimizer", ir::SnapshotValue(opt_v));
  const std::string bytes = EncodeCheckpoint(snaps);
  const LiveValueFn live =
      [&](const std::string& name) -> Result<ir::Value*> {
    return name == "net" ? &net_v : &opt_v;
  };
  for (auto _ : state) {
    Status s = RestoreCheckpoint(bytes, live);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_RestoreCheckpoint)->Unit(benchmark::kMillisecond);

/// A record-run-shaped log stream: per-batch loss lines plus per-epoch
/// metrics, contexts like "e=17/i=3", occasional escapes in the text.
exec::LogStream MakeLogStream(int64_t entries) {
  exec::LogStream stream;
  stream.Reserve(static_cast<size_t>(entries));
  for (int64_t i = 0; i < entries; ++i) {
    exec::LogEntry& e = stream.AppendEntry();
    e.stmt_uid = static_cast<int32_t>(7 + i % 5);
    e.context = "e=" + std::to_string(i / 8) + "/i=" + std::to_string(i % 8);
    e.label = i % 9 == 0 ? "test_acc" : "loss";
    e.text = "0." + std::to_string(1000000 + i % 899999);
    if (i % 31 == 0) e.text += "\tnote\nwrapped";
  }
  return stream;
}

void BM_LogStreamSerialize(benchmark::State& state) {
  const exec::LogStream stream = MakeLogStream(state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = stream.Serialize();
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_LogStreamSerialize)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

/// The pre-optimization shape: escape each field into a temporary, build
/// each line with string concatenation, append to the output. Kept as the
/// comparison arm for the single-allocation Serialize above (exec_test
/// pins the two byte-identical; this pins the speedup visible).
void BM_LogStreamSerializeNaive(benchmark::State& state) {
  const exec::LogStream stream = MakeLogStream(state.range(0));
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '\t': out += "\\t"; break;
        case '\n': out += "\\n"; break;
        case '\\': out += "\\\\"; break;
        default: out += c;
      }
    }
    return out;
  };
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    for (const auto& e : stream.entries()) {
      out += std::to_string(e.stmt_uid) + "\t" + escape(e.context) + "\t" +
             (e.init_mode ? "1" : "0") + "\t" + escape(e.label) + "\t" +
             escape(e.text) + "\n";
    }
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_LogStreamSerializeNaive)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

}  // namespace
}  // namespace flor
