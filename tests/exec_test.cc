// Unit tests: frames, log streams, and the interpreter (costs, loop
// handling, main-loop planning, SkipBlock hook dispatch).

#include <gtest/gtest.h>

#include <limits>

#include "common/strings.h"
#include "exec/interpreter.h"
#include "ir/builder.h"
#include "test_util.h"

namespace flor {
namespace exec {
namespace {

TEST(Frame, SetGetHas) {
  Frame f;
  EXPECT_FALSE(f.Has("x"));
  EXPECT_TRUE(f.Get("x").status().IsNotFound());
  f.Set("x", ir::Value::Int(7));
  EXPECT_TRUE(f.Has("x"));
  EXPECT_EQ(f.Get("x")->AsInt(), 7);
  EXPECT_EQ(f.At("x").AsInt(), 7);
  f.Set("x", ir::Value::Float(1.5));  // rebind with new kind
  EXPECT_EQ(f.At("x").kind(), ir::ValueKind::kFloat);
}

TEST(Frame, NamesSorted) {
  Frame f;
  f.Set("b", ir::Value::Int(1));
  f.Set("a", ir::Value::Int(2));
  EXPECT_EQ(f.Names(), (std::vector<std::string>{"a", "b"}));
}

TEST(Frame, FingerprintOrderInsensitive) {
  Frame f;
  f.Set("a", ir::Value::Int(1));
  f.Set("b", ir::Value::Int(2));
  EXPECT_EQ(f.FingerprintOf({"a", "b"}), f.FingerprintOf({"b", "a"}));
  const uint64_t before = f.FingerprintOf({"a", "b"});
  f.Set("a", ir::Value::Int(9));
  EXPECT_NE(f.FingerprintOf({"a", "b"}), before);
}

TEST(LogStream, SerializeRoundTripWithEscapes) {
  LogStream stream;
  LogEntry e;
  e.stmt_uid = 12;
  e.context = "e=1/i=2";
  e.init_mode = true;
  e.label = "loss";
  e.text = "has\ttab and\nnewline and \\backslash";
  stream.Append(e);
  LogEntry e2;
  e2.stmt_uid = 13;
  e2.label = "acc";
  e2.text = "0.5";
  stream.Append(e2);

  auto back = LogStream::Deserialize(stream.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_TRUE(back->entries()[0] == e);
  EXPECT_TRUE(back->entries()[1] == e2);
}

TEST(LogStream, WorkEntriesExcludeInit) {
  LogStream stream;
  LogEntry work;
  work.label = "w";
  LogEntry init;
  init.label = "i";
  init.init_mode = true;
  stream.Append(work);
  stream.Append(init);
  auto entries = stream.WorkEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].label, "w");
}

TEST(LogStream, MalformedLineRejected) {
  EXPECT_FALSE(LogStream::Deserialize("not\tenough\tfields\n").ok());
  EXPECT_TRUE(LogStream::Deserialize("").ok());  // empty is fine
}

TEST(LogStream, CorruptedBytesFailTypedOrReserializeExactly) {
  // Record logs are read back from disk and from worker result files: a
  // torn or mutated stream must fail with Corruption, or parse into
  // entries that serialize back to exactly the bytes that were read —
  // never a silently defaulted uid, flag, or dropped line.
  LogStream stream;
  for (int i = 0; i < 4; ++i) {
    LogEntry e;
    e.stmt_uid = i == 2 ? -7 : 100 + i;
    e.context = StrCat("e=", i, "/i=0");
    e.init_mode = i == 0;
    e.label = "loss";
    e.text = i == 3 ? "tab\there\\" : StrCat("0.", i, "25");
    stream.Append(e);
  }
  testutil::ForEachCorruption(
      stream.Serialize(), /*salt=*/31, /*splices=*/200,
      [](const testutil::Corrupted& c) {
        auto got = LogStream::Deserialize(c.bytes);
        if (got.ok()) {
          EXPECT_EQ(got->Serialize(), c.bytes) << c.what;
        } else {
          EXPECT_TRUE(got.status().IsCorruption())
              << c.what << ": " << got.status().ToString();
        }
      });
}

/// The historical per-entry serializer (escape into a temporary, StrCat a
/// line, append): the reference the single-allocation Serialize() is
/// pinned against.
std::string ReferenceSerialize(const LogStream& stream) {
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
  std::string out;
  for (const auto& e : stream.entries()) {
    out += StrCat(e.stmt_uid, "\t", escape(e.context), "\t",
                  e.init_mode ? 1 : 0, "\t", escape(e.label), "\t",
                  escape(e.text), "\n");
  }
  return out;
}

TEST(LogStream, SerializeBitIdenticalToReferenceOnRandomEntries) {
  // Property test over randomized entries — escape-heavy text, empty
  // fields, negative and extreme uids — the recorded-log byte format is a
  // compatibility surface (replay byte-parity checks hash it), so the
  // low-copy serializer must reproduce the reference bytes exactly.
  Rng rng = testutil::SeededRng(29);
  const std::string alphabet = "ab\t\n\\=/0.5 loss\xc3\xa9";
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = rng.Uniform(max_len + 1);
    for (size_t i = 0; i < len; ++i)
      s += alphabet[rng.Uniform(alphabet.size())];
    return s;
  };
  for (int round = 0; round < 50; ++round) {
    LogStream stream;
    const int n = static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < n; ++i) {
      LogEntry e;
      switch (rng.Uniform(5)) {
        case 0: e.stmt_uid = -1; break;
        case 1: e.stmt_uid = std::numeric_limits<int32_t>::min(); break;
        case 2: e.stmt_uid = std::numeric_limits<int32_t>::max(); break;
        default:
          e.stmt_uid = static_cast<int32_t>(rng.Uniform(1 << 20));
      }
      e.context = random_string(12);
      e.init_mode = rng.Uniform(2) == 1;
      e.label = random_string(8);
      e.text = random_string(40);
      stream.Append(e);
    }
    const std::string bytes = stream.Serialize();
    ASSERT_EQ(bytes, ReferenceSerialize(stream)) << "round " << round;
    // And the bytes still round-trip (escapes included).
    auto back = LogStream::Deserialize(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i)
      EXPECT_TRUE(back->entries()[i] == stream.entries()[i]);
  }
}

std::unique_ptr<ir::Program> CounterProgram(int64_t outer, int64_t inner) {
  ir::ProgramBuilder b;
  b.Assign({"count"}, {"0"}, [](Frame* f) {
    f->Set("count", ir::Value::Int(0));
    return Status::OK();
  });
  b.BeginLoop("e", outer);
  b.BeginLoop("i", inner);
  b.CallAssign({"count"}, "inc", {"count"}, [](Frame* f) {
     f->Set("count", ir::Value::Int(f->At("count").AsInt() + 1));
     return Status::OK();
   }).Cost(1.0);
  b.EndLoop();
  b.Log("count", [](Frame* f) {
    return StrCat(f->At("count").AsInt());
  });
  b.EndLoop();
  return b.Build();
}

TEST(Interpreter, RunsNestedLoopsAndChargesCosts) {
  auto env = Env::NewSimEnv();
  auto program = CounterProgram(3, 4);
  LogStream logs;
  Interpreter interp(env.get(), &logs, nullptr);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  EXPECT_EQ(frame.At("count").AsInt(), 12);
  EXPECT_DOUBLE_EQ(interp.elapsed_seconds(), 12.0);  // 12 x 1s sim cost
  ASSERT_EQ(logs.size(), 3u);
  EXPECT_EQ(logs.entries()[0].text, "4");
  EXPECT_EQ(logs.entries()[2].text, "12");
  EXPECT_EQ(logs.entries()[1].context, "e=1");
}

TEST(Interpreter, LoopVariableBoundPerIteration) {
  ir::ProgramBuilder b;
  b.Assign({"sum"}, {"0"}, [](Frame* f) {
    f->Set("sum", ir::Value::Int(0));
    return Status::OK();
  });
  b.BeginLoop("i", 5);
  b.CallAssign({"sum"}, "add", {"sum", "i"}, [](Frame* f) {
    f->Set("sum", ir::Value::Int(f->At("sum").AsInt() + f->At("i").AsInt()));
    return Status::OK();
  });
  b.EndLoop();
  auto program = b.Build();
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, nullptr);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  EXPECT_EQ(frame.At("sum").AsInt(), 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(frame.At("i").AsInt(), 4);  // Python semantics after loop
}

TEST(Interpreter, DynamicTripCountFromFrame) {
  ir::ProgramBuilder b;
  b.Assign({"n"}, {"3"}, [](Frame* f) {
    f->Set("n", ir::Value::Int(3));
    return Status::OK();
  });
  b.Assign({"hits"}, {"0"}, [](Frame* f) {
    f->Set("hits", ir::Value::Int(0));
    return Status::OK();
  });
  b.BeginLoopVar("i", "n");
  b.CallAssign({"hits"}, "inc", {"hits"}, [](Frame* f) {
    f->Set("hits", ir::Value::Int(f->At("hits").AsInt() + 1));
    return Status::OK();
  });
  b.EndLoop();
  auto program = b.Build();
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, nullptr);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  EXPECT_EQ(frame.At("hits").AsInt(), 3);
}

TEST(Interpreter, StatementErrorPropagates) {
  ir::ProgramBuilder b;
  b.OpaqueCall("boom", {}, [](Frame*) {
    return Status::Internal("kaboom");
  });
  auto program = b.Build();
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, nullptr);
  Frame frame;
  Status s = interp.Run(program.get(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

/// Hooks that plan a custom main-loop schedule and skip marked loops.
class TestHooks : public ExecHooks {
 public:
  std::vector<PlannedIter> plan;
  bool covers_end = true;
  int enters = 0;
  int exits = 0;
  bool skip_all = false;

  Result<LoopAction> OnSkipBlockEnter(ir::Loop*, const std::string&, bool,
                                      Frame*) override {
    ++enters;
    return skip_all ? LoopAction::kSkip : LoopAction::kExecute;
  }
  Status OnSkipBlockExit(ir::Loop*, const std::string&, Frame*,
                         double) override {
    ++exits;
    return Status::OK();
  }
  Result<std::optional<MainLoopPlan>> PlanMainLoop(ir::Loop*, int64_t,
                                                   Frame*) override {
    MainLoopPlan p;
    p.iters = plan;
    p.covers_final_epoch = covers_end;
    return std::optional<MainLoopPlan>(std::move(p));
  }
};

TEST(Interpreter, MainLoopPlanControlsIterations) {
  auto program = CounterProgram(10, 2);
  TestHooks hooks;
  hooks.plan = {{3, IterMode::kWork}, {7, IterMode::kWork}};
  auto env = Env::NewSimEnv();
  LogStream logs;
  Interpreter interp(env.get(), &logs, &hooks);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  // Only two planned epochs ran.
  EXPECT_EQ(frame.At("count").AsInt(), 4);
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs.entries()[0].context, "e=3");
  EXPECT_EQ(logs.entries()[1].context, "e=7");
}

TEST(Interpreter, InitModeMarksLogEntries) {
  auto program = CounterProgram(4, 1);
  TestHooks hooks;
  hooks.plan = {{0, IterMode::kInit}, {1, IterMode::kWork}};
  auto env = Env::NewSimEnv();
  LogStream logs;
  Interpreter interp(env.get(), &logs, &hooks);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_TRUE(logs.entries()[0].init_mode);
  EXPECT_FALSE(logs.entries()[1].init_mode);
}

TEST(Interpreter, PartialPlanMarksTailAsInit) {
  ir::ProgramBuilder b;
  b.BeginLoop("e", 4);
  b.OpaqueCall("work", {}, [](Frame*) { return Status::OK(); });
  b.EndLoop();
  b.Log("after", [](Frame*) { return std::string("tail"); });
  auto program = b.Build();

  TestHooks hooks;
  hooks.plan = {{0, IterMode::kWork}};
  hooks.covers_end = false;
  auto env = Env::NewSimEnv();
  LogStream logs;
  Interpreter interp(env.get(), &logs, &hooks);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_TRUE(logs.entries()[0].init_mode);  // tail output suppressed
}

TEST(Interpreter, PlannedIterationOutOfRangeRejected) {
  auto program = CounterProgram(3, 1);
  TestHooks hooks;
  hooks.plan = {{5, IterMode::kWork}};
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, &hooks);
  Frame frame;
  EXPECT_EQ(interp.Run(program.get(), &frame).code(),
            StatusCode::kOutOfRange);
}

TEST(Interpreter, SkipBlockHooksFireForInstrumentedLoops) {
  ir::ProgramBuilder b;
  b.CallAssign({"model"}, "build", {}, [](Frame* f) {
    f->Set("model", ir::Value::Int(0));
    return Status::OK();
  });
  b.BeginLoop("e", 3);
  b.BeginLoop("i", 2);
  b.MethodCall("model", "update", {}, [](Frame* f) {
    f->Set("model", ir::Value::Int(f->At("model").AsInt() + 1));
    return Status::OK();
  });
  b.EndLoop();
  b.EndLoop();
  auto program = b.Build();
  // Mark the inner loop instrumented by hand (normally flor/instrument).
  program->FindLoop(2)->analysis().instrumented = true;

  TestHooks hooks;
  for (int64_t e = 0; e < 3; ++e) hooks.plan.push_back({e, IterMode::kWork});
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, &hooks);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  EXPECT_EQ(hooks.enters, 3);
  EXPECT_EQ(hooks.exits, 3);
  EXPECT_EQ(frame.At("model").AsInt(), 6);
}

TEST(Interpreter, SkippedSkipBlockBodyDoesNotRun) {
  ir::ProgramBuilder b;
  b.CallAssign({"model"}, "build", {}, [](Frame* f) {
    f->Set("model", ir::Value::Int(0));
    return Status::OK();
  });
  b.BeginLoop("i", 4);
  b.MethodCall("model", "update", {}, [](Frame* f) {
    f->Set("model", ir::Value::Int(f->At("model").AsInt() + 1));
    return Status::OK();
  });
  b.EndLoop();
  auto program = b.Build();
  // The single top-level loop is the main loop; add a second loop wrapper?
  // Instead instrument it and give no main-loop special casing by nesting:
  // here we mark it instrumented and rely on hooks returning a plan of
  // nothing being absent (it IS the main loop, so PlanMainLoop applies).
  // Use a non-main nested shape instead:
  ir::ProgramBuilder b2;
  b2.CallAssign({"model"}, "build", {}, [](Frame* f) {
    f->Set("model", ir::Value::Int(0));
    return Status::OK();
  });
  b2.BeginLoop("e", 1);
  b2.BeginLoop("i", 4);
  b2.MethodCall("model", "update", {}, [](Frame* f) {
    f->Set("model", ir::Value::Int(f->At("model").AsInt() + 1));
    return Status::OK();
  });
  b2.EndLoop();
  b2.EndLoop();
  auto nested = b2.Build();
  nested->FindLoop(2)->analysis().instrumented = true;

  TestHooks skipper;
  skipper.skip_all = true;
  skipper.plan = {{0, IterMode::kWork}};
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, &skipper);
  Frame frame;
  ASSERT_TRUE(interp.Run(nested.get(), &frame).ok());
  EXPECT_EQ(skipper.enters, 1);
  EXPECT_EQ(skipper.exits, 0);               // exit hook only on execution
  EXPECT_EQ(frame.At("model").AsInt(), 0);   // body never ran
  EXPECT_EQ(frame.At("i").AsInt(), 3);       // iter var at final value
  (void)program;
}

TEST(VanillaHooks, ExecutesEverything) {
  auto program = CounterProgram(2, 2);
  program->FindLoop(2)->analysis().instrumented = true;
  VanillaHooks hooks;
  auto env = Env::NewSimEnv();
  Interpreter interp(env.get(), nullptr, &hooks);
  Frame frame;
  ASSERT_TRUE(interp.Run(program.get(), &frame).ok());
  EXPECT_EQ(frame.At("count").AsInt(), 4);
}

}  // namespace
}  // namespace exec
}  // namespace flor
