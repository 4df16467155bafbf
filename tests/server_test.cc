// Wire protocol + socket server tests: CRC-framed message round-trips,
// the every-prefix-truncation and single-byte-mutation fuzz (torn or
// tampered requests always decode as Corruption, never crash), reply
// structs with bit-exact doubles, byte-identity of the socket path
// against in-process Session calls (record manifests, query listings,
// merged replay logs on all three engines), record replies that carry the
// recorded manifest while background GC prunes the file, typed semantic
// errors that keep the connection usable, corrupt-message hangups, the
// graceful drain refusal, and TCP loopback. Runs under the `server` ctest
// label (including the thread-sanitizer pass in check.sh).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "env/filesystem.h"
#include "flor/record.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

/// Densely checkpointed sim workload (the service-test shape).
WorkloadProfile ServerProfile(int64_t epochs = 8) {
  WorkloadProfile p;
  p.name = "SrvT";
  p.epochs = epochs;
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.ckpt_shards = 4;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(53);
  return p;
}

SessionRecordOptions ServerRecordOptions(const WorkloadProfile& profile) {
  const RecordOptions o = workloads::DefaultRecordOptions(profile, "");
  SessionRecordOptions s;
  s.workload = o.workload;
  s.materializer = o.materializer;
  s.adaptive = o.adaptive;
  s.nominal_checkpoint_bytes = o.nominal_checkpoint_bytes;
  return s;
}

ConnectionOptions ServerConnectionOptions(const WorkloadProfile& profile) {
  ConnectionOptions copts;
  copts.root = "svc";
  copts.ckpt_shards = profile.ckpt_shards;
  copts.tier.bucket_prefix = "s3";
  return copts;
}

/// Resolver with two specs: "svc" records (probe-free), "svc-probed"
/// replays with the inner probe — the wire analogue of the service
/// tests' record/replay factory split.
WorkloadResolver ServerResolver(const WorkloadProfile& profile) {
  return [profile](const std::string& spec) -> Result<ResolvedWorkload> {
    ResolvedWorkload out;
    out.record = ServerRecordOptions(profile);
    if (spec == "svc") {
      out.factory = MakeWorkloadFactory(profile, kProbeNone);
      return out;
    }
    if (spec == "svc-probed") {
      out.factory = MakeWorkloadFactory(profile, kProbeInner);
      return out;
    }
    return Status::NotFound(StrCat("unknown workload spec '", spec, "'"));
  };
}

// ------------------------------------------------------------ wire unit ---

TEST(WireTest, RequestRoundTripsAllFields) {
  wire::Request req;
  req.op = "exists";
  req.tenant = "alice";
  req.run = "run-1";
  req.workload = "svc";
  req.engine = "procs";
  req.workers = 7;
  req.loop_id = -3;
  req.ctx = std::string("e=2\ti=0\0raw\n", 12);  // raw bytes survive

  auto decoded = wire::DecodeRequest(wire::EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, req.op);
  EXPECT_EQ(decoded->tenant, req.tenant);
  EXPECT_EQ(decoded->run, req.run);
  EXPECT_EQ(decoded->workload, req.workload);
  EXPECT_EQ(decoded->engine, req.engine);
  EXPECT_EQ(decoded->workers, req.workers);
  EXPECT_EQ(decoded->loop_id, req.loop_id);
  EXPECT_EQ(decoded->ctx, req.ctx);
}

TEST(WireTest, ResponseRoundTripsBinaryPayload) {
  wire::Response res;
  res.code = 0;
  res.message = "";
  res.payload = {"meta\tline", std::string("\0bulk\0", 6), ""};
  auto decoded = wire::DecodeResponse(wire::EncodeResponse(res));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, 0);
  EXPECT_EQ(decoded->payload, res.payload);

  // An error response reconstructs the Status it carried.
  const Status original = Status::NotFound("no such run: svc/alice/r9");
  auto err = wire::DecodeResponse(
      wire::EncodeResponse(wire::ErrorResponse(original)));
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_FALSE(err->ok());
  const Status back = err->ToStatus();
  EXPECT_TRUE(back.IsNotFound());
  EXPECT_EQ(back.message(), original.message());

  // A code outside the Status enum is structural Corruption — a decoder
  // must never cast garbage into a StatusCode, and the encoder must not
  // wrap a wide code (256 would be OK as a byte) into a valid one.
  for (int64_t code : {int64_t{99}, int64_t{256}, int64_t{300}, int64_t{-1}}) {
    wire::Response bogus;
    bogus.code = code;
    auto rejected = wire::DecodeResponse(wire::EncodeResponse(bogus));
    ASSERT_FALSE(rejected.ok()) << code;
    EXPECT_TRUE(rejected.status().IsCorruption())
        << code << ": " << rejected.status().ToString();
  }
}

TEST(WireTest, KindMismatchIsCorruption) {
  wire::Request req;
  req.op = "query";
  req.tenant = "alice";
  const std::string request_bytes = wire::EncodeRequest(req);
  auto as_response = wire::DecodeResponse(request_bytes);
  ASSERT_FALSE(as_response.ok());
  EXPECT_TRUE(as_response.status().IsCorruption())
      << as_response.status().ToString();

  const std::string response_bytes =
      wire::EncodeResponse(wire::ErrorResponse(Status::OK()));
  auto as_request = wire::DecodeRequest(response_bytes);
  ASSERT_FALSE(as_request.ok());
  EXPECT_TRUE(as_request.status().IsCorruption())
      << as_request.status().ToString();
}

TEST(WireTest, EveryTruncationIsCorruption) {
  wire::Request req;
  req.op = "replay";
  req.tenant = "alice";
  req.run = "run-1";
  req.workload = "svc-probed";
  req.engine = "threads";
  req.workers = 2;
  const std::string encoded = wire::EncodeRequest(req);
  // Every strict prefix fails — the empty message, cuts inside a frame
  // (CRC), and cuts at exact frame boundaries (header section count).
  testutil::ExpectCorruptionsRejected(
      encoded, /*salt=*/71, /*splices=*/200, [](const std::string& bytes) {
        return wire::DecodeRequest(bytes).status();
      });
}

TEST(WireTest, SingleByteMutationsNeverParse) {
  wire::Request req;
  req.op = "record";
  req.tenant = "alice";
  req.run = "run-1";
  req.workload = "svc";
  req.ctx = "e=2/i=0";
  testutil::ExpectCorruptionsRejected(
      wire::EncodeRequest(req), /*salt=*/72, /*splices=*/200,
      [](const std::string& bytes) {
        return wire::DecodeRequest(bytes).status();
      });
  // Responses travel the same framing back to the client.
  wire::ReplayReply reply;
  reply.workers_used = 2;
  reply.deferred_ok = true;
  reply.merged_logs = "11\te=2/i=0\t0\tloss\t0.125\n";
  testutil::ExpectCorruptionsRejected(
      wire::EncodeResponse(wire::MakeReplayReply(reply)), /*salt=*/73,
      /*splices=*/200, [](const std::string& bytes) {
        return wire::DecodeResponse(bytes).status();
      });
}

TEST(WireTest, RepliesRoundTripBitExactDoubles) {
  // Doubles travel as hexfloats: 0.1 and friends must come back
  // bit-identical, not shortest-decimal approximations.
  wire::RecordReply rec;
  rec.checkpoints = 12;
  rec.runtime_seconds = 0.1;
  rec.admission_wait_seconds = 3.0000000000000004e-9;
  rec.manifest = std::string("florman\0binary", 14);
  auto rec_back = wire::ParseRecordReply(wire::MakeRecordReply(rec));
  ASSERT_TRUE(rec_back.ok()) << rec_back.status().ToString();
  EXPECT_EQ(rec_back->checkpoints, rec.checkpoints);
  EXPECT_EQ(rec_back->runtime_seconds, rec.runtime_seconds);
  EXPECT_EQ(rec_back->admission_wait_seconds, rec.admission_wait_seconds);
  EXPECT_EQ(rec_back->manifest, rec.manifest);

  wire::ReplayReply rep;
  rep.workers_used = 4;
  rep.latency_seconds = 1234.5678901234567;
  rep.wall_seconds = 2.5e-3;
  rep.bucket_faults = 17;
  rep.bloom_skipped_probes = 5;
  rep.deferred_ok = true;
  rep.merged_logs = "11\te=2/i=0\t0\tloss\t0.125\n";
  auto rep_back = wire::ParseReplayReply(wire::MakeReplayReply(rep));
  ASSERT_TRUE(rep_back.ok()) << rep_back.status().ToString();
  EXPECT_EQ(rep_back->workers_used, rep.workers_used);
  EXPECT_EQ(rep_back->latency_seconds, rep.latency_seconds);
  EXPECT_EQ(rep_back->wall_seconds, rep.wall_seconds);
  EXPECT_EQ(rep_back->bucket_faults, rep.bucket_faults);
  EXPECT_EQ(rep_back->bloom_skipped_probes, rep.bloom_skipped_probes);
  EXPECT_TRUE(rep_back->deferred_ok);
  EXPECT_EQ(rep_back->merged_logs, rep.merged_logs);

  wire::QueryReply query;
  RunInfo a;
  a.prefix = "svc/alice/r1";
  a.workload = "SrvT";
  a.record_runtime_seconds = 807.1999999999999;
  a.checkpoints = 8;
  RunInfo b;
  b.prefix = "svc/alice/r2";
  query.runs = {a, b};
  auto query_back = wire::ParseQueryReply(wire::MakeQueryReply(query));
  ASSERT_TRUE(query_back.ok()) << query_back.status().ToString();
  ASSERT_EQ(query_back->runs.size(), 2u);
  EXPECT_EQ(query_back->runs[0].prefix, a.prefix);
  EXPECT_EQ(query_back->runs[0].workload, a.workload);
  EXPECT_EQ(query_back->runs[0].record_runtime_seconds,
            a.record_runtime_seconds);
  EXPECT_EQ(query_back->runs[0].checkpoints, a.checkpoints);
  EXPECT_EQ(query_back->runs[1].prefix, b.prefix);

  for (bool flag : {true, false}) {
    wire::ExistsReply exists;
    exists.exists = flag;
    auto back = wire::ParseExistsReply(wire::MakeExistsReply(exists));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->exists, flag);
  }
}

std::string FromHex(const char* hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2)
    out.push_back(static_cast<char>((nibble(p[0]) << 4) | nibble(p[1])));
  return out;
}

TEST(WireTest, WireFormatIsPinned) {
  // Golden bytes of one request and one replay reply. Every meta line,
  // the last included, ends in '\n' (serialize/sections.h); a change here
  // is a wire break between clients and servers of different builds.
  wire::Request req;
  req.op = "replay";
  req.tenant = "alice";
  req.run = "r1";
  req.workload = "svc";
  req.engine = "procs";
  req.workers = 4;
  req.loop_id = -3;
  req.ctx = "e=2";
  const std::string request_golden = FromHex(
      "19024a980e666c6f72776972310972657109322018b33a4d6f70097265706c61790a"
      "74656e616e7409616c6963650a72756e0972310a776f726b6c6f6164097376630a65"
      "6e67696e650970726f63730a776f726b65727309340a6c6f6f705f6964092d330a05"
      "ff702c03653d32");
  EXPECT_EQ(wire::EncodeRequest(req), request_golden);
  auto req_back = wire::DecodeRequest(request_golden);
  ASSERT_TRUE(req_back.ok()) << req_back.status().ToString();
  EXPECT_EQ(req_back->engine, "procs");
  EXPECT_EQ(req_back->loop_id, -3);

  wire::ReplayReply rep;
  rep.workers_used = 4;
  rep.latency_seconds = 1.5;
  rep.wall_seconds = 0.25;
  rep.bucket_faults = 7;
  rep.bloom_skipped_probes = 9;
  rep.deferred_ok = true;
  rep.merged_logs = "11\te=2/i=0\t0\tloss\t0.125\n";
  const std::string reply_golden = FromHex(
      "fcb784f10e666c6f727769723109726573093448158c8907636f646509300a000000"
      "0000d522b2e771776f726b6572735f7573656409340a6c6174656e63795f7365636f"
      "6e6473093078312e38702b300a77616c6c5f7365636f6e647309307831702d320a62"
      "75636b65745f6661756c747309370a626c6f6f6d5f736b69707065645f70726f6265"
      "7309390a64656665727265645f6f6b09310a5774485818313109653d322f693d3009"
      "30096c6f737309302e3132350a");
  EXPECT_EQ(wire::EncodeResponse(wire::MakeReplayReply(rep)), reply_golden);
  auto res = wire::DecodeResponse(reply_golden);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto rep_back = wire::ParseReplayReply(*res);
  ASSERT_TRUE(rep_back.ok()) << rep_back.status().ToString();
  EXPECT_EQ(rep_back->latency_seconds, 1.5);
  EXPECT_EQ(rep_back->merged_logs, rep.merged_logs);
}

TEST(WireTest, EngineNamesRoundTrip) {
  for (ReplayEngine engine :
       {ReplayEngine::kSimulated, ReplayEngine::kThreads,
        ReplayEngine::kProcesses}) {
    auto back = wire::ParseEngine(wire::EngineName(engine));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, engine);
  }
  auto unknown = wire::ParseEngine("gpu");
  ASSERT_FALSE(unknown.ok());
  // Semantic, not structural: an unknown engine in a well-formed request
  // earns a typed error response, never a Corruption hangup.
  EXPECT_TRUE(unknown.status().code() == StatusCode::kInvalidArgument)
      << unknown.status().ToString();
}

// ---------------------------------------------------------- socket path ---

class ServerTest : public testutil::ScratchDirTest {
 protected:
  std::string SocketPath() {
    std::filesystem::create_directories(root());
    return root() + "/flor.sock";
  }
};

TEST_F(ServerTest, StartValidatesOptions) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());

  ServerOptions neither;
  EXPECT_FALSE(Server::Start(conn->get(), neither).ok());

  ServerOptions both;
  both.unix_path = SocketPath();
  both.tcp = true;
  EXPECT_FALSE(Server::Start(conn->get(), both).ok());

  EXPECT_FALSE(Server::Start(nullptr, ServerOptions()).ok());
}

TEST_F(ServerTest, SocketRoundTripMatchesInProcessSession) {
  const WorkloadProfile profile = ServerProfile();

  // In-process golden: a separate Connection over a separate filesystem,
  // driven directly.
  MemFileSystem fs_direct;
  Env env_direct = testutil::MakeSimEnv(&fs_direct);
  auto direct_conn =
      Connection::Open(&env_direct, ServerConnectionOptions(profile));
  ASSERT_TRUE(direct_conn.ok()) << direct_conn.status().ToString();
  auto direct_session = (*direct_conn)->OpenSession("alice");
  ASSERT_TRUE(direct_session.ok());
  auto direct_rec =
      (*direct_session)
          ->Record("r1", MakeWorkloadFactory(profile, kProbeNone),
                   ServerRecordOptions(profile));
  ASSERT_TRUE(direct_rec.ok()) << direct_rec.status().ToString();

  // Served path: the same workload through the socket front door.
  MemFileSystem fs_srv;
  Env env_srv = testutil::MakeSimEnv(&fs_srv);
  auto conn = Connection::Open(&env_srv, ServerConnectionOptions(profile));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  sopts.resolve_workload = ServerResolver(profile);
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // record: the manifest travels verbatim — byte-identical to the file
  // the in-process record left behind.
  wire::Request record_req;
  record_req.op = "record";
  record_req.tenant = "alice";
  record_req.run = "r1";
  record_req.workload = "svc";
  auto record_res = client->Call(record_req);
  ASSERT_TRUE(record_res.ok()) << record_res.status().ToString();
  auto record_reply = wire::ParseRecordReply(*record_res);
  ASSERT_TRUE(record_reply.ok()) << record_reply.status().ToString();
  const RunPaths paths("svc/alice/r1");
  auto direct_manifest = fs_direct.ReadFile(paths.Manifest());
  ASSERT_TRUE(direct_manifest.ok());
  EXPECT_EQ(record_reply->manifest, *direct_manifest);
  EXPECT_EQ(record_reply->checkpoints,
            static_cast<int64_t>(direct_rec->manifest.records.size()));
  EXPECT_EQ(record_reply->runtime_seconds, direct_rec->runtime_seconds);

  // query: same listing, runtime double bit-exact over the wire.
  auto direct_runs = (*direct_session)->Query();
  ASSERT_TRUE(direct_runs.ok());
  ASSERT_EQ(direct_runs->size(), 1u);
  wire::Request query_req;
  query_req.op = "query";
  query_req.tenant = "alice";
  auto query_res = client->Call(query_req);
  ASSERT_TRUE(query_res.ok()) << query_res.status().ToString();
  auto query_reply = wire::ParseQueryReply(*query_res);
  ASSERT_TRUE(query_reply.ok()) << query_reply.status().ToString();
  ASSERT_EQ(query_reply->runs.size(), 1u);
  EXPECT_EQ(query_reply->runs[0].prefix, (*direct_runs)[0].prefix);
  EXPECT_EQ(query_reply->runs[0].workload, (*direct_runs)[0].workload);
  EXPECT_EQ(query_reply->runs[0].record_runtime_seconds,
            (*direct_runs)[0].record_runtime_seconds);
  EXPECT_EQ(query_reply->runs[0].checkpoints, (*direct_runs)[0].checkpoints);

  // exists: a key parsed out of the wire manifest is present; a bogus
  // loop is not. The manifest bytes are client-usable, not opaque.
  auto manifest = Manifest::Deserialize(record_reply->manifest);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_FALSE(manifest->records.empty());
  const CheckpointKey key = manifest->records.front().key;
  wire::Request exists_req;
  exists_req.op = "exists";
  exists_req.tenant = "alice";
  exists_req.run = "r1";
  exists_req.loop_id = key.loop_id;
  exists_req.ctx = key.ctx;
  auto exists_res = client->Call(exists_req);
  ASSERT_TRUE(exists_res.ok()) << exists_res.status().ToString();
  auto exists_reply = wire::ParseExistsReply(*exists_res);
  ASSERT_TRUE(exists_reply.ok()) << exists_reply.status().ToString();
  EXPECT_TRUE(exists_reply->exists);
  exists_req.loop_id = 4096;
  auto absent_res = client->Call(exists_req);
  ASSERT_TRUE(absent_res.ok());
  auto absent_reply = wire::ParseExistsReply(*absent_res);
  ASSERT_TRUE(absent_reply.ok()) << absent_reply.status().ToString();
  EXPECT_FALSE(absent_reply->exists);

  // replay on all three engines: merged logs byte-identical to the
  // in-process replay of the golden run.
  for (const char* engine : {"sim", "threads", "procs"}) {
    SessionReplayOptions dopts;
    auto parsed = wire::ParseEngine(engine);
    ASSERT_TRUE(parsed.ok());
    dopts.engine = *parsed;
    dopts.workers = 2;
    auto direct_replay =
        (*direct_session)
            ->Replay("r1", MakeWorkloadFactory(profile, kProbeInner), dopts);
    ASSERT_TRUE(direct_replay.ok()) << direct_replay.status().ToString();

    wire::Request replay_req;
    replay_req.op = "replay";
    replay_req.tenant = "alice";
    replay_req.run = "r1";
    replay_req.workload = "svc-probed";
    replay_req.engine = engine;
    replay_req.workers = 2;
    auto replay_res = client->Call(replay_req);
    ASSERT_TRUE(replay_res.ok()) << replay_res.status().ToString();
    auto replay_reply = wire::ParseReplayReply(*replay_res);
    ASSERT_TRUE(replay_reply.ok()) << replay_reply.status().ToString();
    EXPECT_TRUE(replay_reply->deferred_ok) << engine;
    EXPECT_EQ(replay_reply->workers_used, 2) << engine;
    EXPECT_EQ(replay_reply->merged_logs,
              direct_replay->merged_logs.Serialize())
        << engine;
  }

  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(stats.requests_served, 7);  // record + query + 2 exists + 3 replays
  EXPECT_EQ(stats.corrupt_messages, 0);
  EXPECT_EQ(stats.unavailable_refusals, 0);
}

TEST_F(ServerTest, RecordReplyCarriesTheRecordedManifestUnderGc) {
  // Keep-last-1 with no bucket: right after each record returns, the
  // connection's GC worker prunes the run's manifest file. The reply must
  // still carry the manifest as recorded, the same bytes an in-process
  // record of the same program returns.
  const WorkloadProfile profile = ServerProfile();
  ConnectionOptions copts = ServerConnectionOptions(profile);
  copts.tier.bucket_prefix.clear();
  copts.gc.keep_last_k = 1;

  MemFileSystem fs_direct;
  Env env_direct = testutil::MakeSimEnv(&fs_direct);
  auto direct_conn = Connection::Open(&env_direct, copts);
  ASSERT_TRUE(direct_conn.ok()) << direct_conn.status().ToString();
  auto direct_session = (*direct_conn)->OpenSession("alice");
  ASSERT_TRUE(direct_session.ok());

  MemFileSystem fs_srv;
  Env env_srv = testutil::MakeSimEnv(&fs_srv);
  auto conn = Connection::Open(&env_srv, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  sopts.resolve_workload = ServerResolver(profile);
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::map<std::string, int64_t> recorded;  // run -> reply checkpoints
  for (int i = 0; i < 6; ++i) {
    const std::string run = StrCat("r", i);
    SCOPED_TRACE(run);
    auto direct_rec =
        (*direct_session)
            ->Record(run, MakeWorkloadFactory(profile, kProbeNone),
                     ServerRecordOptions(profile));
    ASSERT_TRUE(direct_rec.ok()) << direct_rec.status().ToString();

    wire::Request req;
    req.op = "record";
    req.tenant = "alice";
    req.run = run;
    req.workload = "svc";
    auto res = client->Call(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    auto reply = wire::ParseRecordReply(*res);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto manifest = Manifest::Deserialize(reply->manifest);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(static_cast<int64_t>(manifest->records.size()),
              reply->checkpoints);
    EXPECT_EQ(reply->manifest, direct_rec->manifest.Serialize());
    recorded[run] = reply->checkpoints;
  }

  // The GC did prune every stored manifest below what its reply carried.
  (*conn)->DrainBackground();
  for (const auto& [run, checkpoints] : recorded) {
    auto stored = fs_srv.ReadFile(RunPaths("svc/alice/" + run).Manifest());
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    auto pruned = Manifest::Deserialize(*stored);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    EXPECT_LT(static_cast<int64_t>(pruned->records.size()), checkpoints)
        << run;
  }
}

TEST_F(ServerTest, TypedErrorsKeepTheConnectionUsable) {
  const WorkloadProfile profile = ServerProfile(/*epochs=*/4);
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ServerConnectionOptions(profile));
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  sopts.resolve_workload = ServerResolver(profile);
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  struct Case {
    wire::Request req;
    StatusCode expected;
  };
  std::vector<Case> cases;
  {
    wire::Request r;  // unknown op
    r.op = "mutate";
    r.tenant = "alice";
    cases.push_back({r, StatusCode::kInvalidArgument});
  }
  {
    wire::Request r;  // tenant escape
    r.op = "query";
    r.tenant = "../bob";
    cases.push_back({r, StatusCode::kInvalidArgument});
  }
  {
    wire::Request r;  // unknown engine
    r.op = "replay";
    r.tenant = "alice";
    r.run = "r1";
    r.workload = "svc-probed";
    r.engine = "gpu";
    cases.push_back({r, StatusCode::kInvalidArgument});
  }
  {
    wire::Request r;  // workers out of range
    r.op = "replay";
    r.tenant = "alice";
    r.run = "r1";
    r.workload = "svc-probed";
    r.workers = 0;
    cases.push_back({r, StatusCode::kInvalidArgument});
  }
  {
    wire::Request r;  // unresolvable workload spec
    r.op = "record";
    r.tenant = "alice";
    r.run = "r1";
    r.workload = "no-such-spec";
    cases.push_back({r, StatusCode::kNotFound});
  }
  {
    wire::Request r;  // run never recorded
    r.op = "exists";
    r.tenant = "alice";
    r.run = "never";
    cases.push_back({r, StatusCode::kNotFound});
  }
  for (const Case& c : cases) {
    auto res = client->Call(c.req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->code, static_cast<int64_t>(c.expected))
        << "op " << c.req.op << ": " << res->message;
  }

  // Same client, same stream: a valid request still works afterwards.
  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  auto res = client->Call(query);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto reply = wire::ParseQueryReply(*res);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->runs.empty());

  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests_served,
            static_cast<int64_t>(cases.size()) + 1);
  EXPECT_EQ(stats.corrupt_messages, 0);
}

TEST_F(ServerTest, NoResolverMeansRecordReplayNotSupported) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();  // no resolver
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok());

  wire::Request record;
  record.op = "record";
  record.tenant = "alice";
  record.run = "r1";
  record.workload = "svc";
  auto res = client->Call(record);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->code, static_cast<int64_t>(StatusCode::kNotSupported))
      << res->message;

  // query/exists still work without a resolver.
  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  auto qres = client->Call(query);
  ASSERT_TRUE(qres.ok());
  EXPECT_TRUE(wire::ParseQueryReply(*qres).ok());
}

TEST_F(ServerTest, CorruptMessageGetsTypedResponseThenHangup) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  std::string mutated = wire::EncodeRequest(query);
  mutated[mutated.size() / 2] =
      static_cast<char>(mutated[mutated.size() / 2] ^ 0x20);

  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendBytes(mutated).ok());
  auto res = client->ReadResponse();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->code, static_cast<int64_t>(StatusCode::kCorruption))
      << res->message;
  // After a corrupt message the server hangs up — stream alignment is
  // untrusted. The next exchange on this client fails...
  auto after = client->Call(query);
  EXPECT_FALSE(after.ok());
  // ...but a fresh client works: the server survived the poison bytes.
  auto fresh = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(fresh.ok());
  auto ok_res = fresh->Call(query);
  ASSERT_TRUE(ok_res.ok()) << ok_res.status().ToString();
  EXPECT_TRUE(wire::ParseQueryReply(*ok_res).ok());

  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.corrupt_messages, 1);
}

TEST_F(ServerTest, OversizedDeclaredLengthIsCorruption) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  sopts.max_message_bytes = 1024;
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRawPrefix(1u << 20, "").ok());
  auto res = client->ReadResponse();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->code, static_cast<int64_t>(StatusCode::kCorruption))
      << res->message;
  EXPECT_NE(res->message.find("exceeds the limit"), std::string::npos)
      << res->message;
  EXPECT_EQ((*server)->stats().corrupt_messages, 1);
}

TEST_F(ServerTest, TruncatedStreamDoesNotWedgeTheServer) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Promise 64 bytes, deliver 3, hang up: the handler sees a mid-message
  // cut (nothing answerable) and must simply drop the connection.
  {
    auto client = WireClient::ConnectUnix((*server)->unix_path());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendRawPrefix(64, "abc").ok());
  }
  // The server is still serving.
  auto fresh = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(fresh.ok());
  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  auto res = fresh->Call(query);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(wire::ParseQueryReply(*res).ok());
}

/// Numeric value of a /proc/self/status field such as "VmSize:" (KiB) or
/// "Threads:"; 0 when /proc is unavailable.
int64_t ProcStatusField(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, key)) return std::stoll(line.substr(key.size()));
  }
  return 0;
}

TEST_F(ServerTest, FinishedHandlersDoNotAccumulate) {
  // An always-on server sees clients come and go; each finished handler
  // thread must be joined, not parked with its stack mapping until Stop().
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  const int64_t idle_threads = ProcStatusField("Threads:");
  auto cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      {
        auto client = WireClient::ConnectUnix((*server)->unix_path());
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        auto res = client->Call(query);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
      }
      // Wait for the handler to exit before the next client, so handlers
      // never overlap: glibc hands each overlapping thread a fresh malloc
      // arena (64 MiB of address space), which would swamp the thread
      // stacks this test measures.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ProcStatusField("Threads:") > idle_threads) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "handler " << i << " never exited";
        std::this_thread::yield();
      }
    }
  };
  cycles(8);  // warm-up: the first handlers create the arena they share
  const int64_t before_kib = ProcStatusField("VmSize:");
  cycles(64);
  const int64_t growth_kib = ProcStatusField("VmSize:") - before_kib;
  EXPECT_LT(growth_kib, 256 * 1024)
      << "64 connect/disconnect cycles grew VmSize by " << growth_kib
      << " KiB";
  EXPECT_EQ((*server)->stats().connections_accepted, 72);
}

TEST_F(ServerTest, DrainedConnectionRefusesWithUnavailable) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.unix_path = SocketPath();
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = WireClient::ConnectUnix((*server)->unix_path());
  ASSERT_TRUE(client.ok());

  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  auto before = client->Call(query);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->ok()) << before->message;

  ASSERT_TRUE((*conn)->Close().ok());

  // The stream stays up; every request now earns a typed Unavailable —
  // the client sees the drain, not a dropped socket.
  auto after = client->Call(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->code, static_cast<int64_t>(StatusCode::kUnavailable))
      << after->message;
  EXPECT_TRUE(after->ToStatus().code() == StatusCode::kUnavailable);

  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.unavailable_refusals, 1);
  EXPECT_EQ(stats.requests_served, 2);
}

TEST_F(ServerTest, TcpLoopbackRoundTrip) {
  const WorkloadProfile profile = ServerProfile(/*epochs=*/4);
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ServerConnectionOptions(profile));
  ASSERT_TRUE(conn.ok());
  ServerOptions sopts;
  sopts.tcp = true;  // port 0: ephemeral
  sopts.resolve_workload = ServerResolver(profile);
  auto server = Server::Start(conn->get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->tcp_port(), 0);

  auto client = WireClient::ConnectTcp((*server)->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  wire::Request record;
  record.op = "record";
  record.tenant = "alice";
  record.run = "r1";
  record.workload = "svc";
  auto rec_res = client->Call(record);
  ASSERT_TRUE(rec_res.ok()) << rec_res.status().ToString();
  auto rec_reply = wire::ParseRecordReply(*rec_res);
  ASSERT_TRUE(rec_reply.ok()) << rec_reply.status().ToString();
  EXPECT_GT(rec_reply->checkpoints, 0);

  wire::Request query;
  query.op = "query";
  query.tenant = "alice";
  auto query_res = client->Call(query);
  ASSERT_TRUE(query_res.ok()) << query_res.status().ToString();
  auto query_reply = wire::ParseQueryReply(*query_res);
  ASSERT_TRUE(query_reply.ok()) << query_reply.status().ToString();
  ASSERT_EQ(query_reply->runs.size(), 1u);
  EXPECT_EQ(query_reply->runs[0].prefix, "svc/alice/r1");
}

}  // namespace
}  // namespace flor
