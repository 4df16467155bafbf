#include "service/wire.h"

#include <utility>

#include "common/strings.h"
#include "serialize/sections.h"

namespace flor {
namespace wire {

std::string EncodeRequest(const Request& req) {
  std::string meta = MetaWriter()
                         .Str("op", req.op)
                         .Str("tenant", req.tenant)
                         .Str("run", req.run)
                         .Str("workload", req.workload)
                         .Str("engine", req.engine)
                         .Int("workers", req.workers)
                         .Int("loop_id", req.loop_id)
                         .Finish();
  return EncodeSections(kWireRequestTag, {meta, req.ctx});
}

Result<Request> DecodeRequest(const std::string& message) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kWireRequestTag, message));
  FLOR_RETURN_IF_ERROR(ExpectSections(sections, 2, "wire request"));
  Request req;
  FLOR_RETURN_IF_ERROR(MetaReader(sections[0])
                           .Str("op", &req.op)
                           .Str("tenant", &req.tenant)
                           .Str("run", &req.run)
                           .Str("workload", &req.workload)
                           .Str("engine", &req.engine)
                           .Int("workers", &req.workers)
                           .Int("loop_id", &req.loop_id)
                           .Finish());
  req.ctx = std::move(sections[1]);
  return req;
}

std::string EncodeResponse(const Response& res) {
  std::vector<std::string> sections = EncodeStatus(res.code, res.message);
  sections.insert(sections.end(), res.payload.begin(), res.payload.end());
  return EncodeSections(kWireResponseTag, sections);
}

Result<Response> DecodeResponse(const std::string& message) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kWireResponseTag, message));
  Status status;
  FLOR_RETURN_IF_ERROR(DecodeStatus(sections, &status));
  Response res;
  res.code = static_cast<int64_t>(status.code());
  res.message = status.message();
  res.payload.assign(std::make_move_iterator(sections.begin() + 2),
                     std::make_move_iterator(sections.end()));
  return res;
}

Status Response::ToStatus() const {
  if (ok()) return Status::OK();
  return Status(static_cast<StatusCode>(code), message);
}

Response ErrorResponse(const Status& status) {
  Response res;
  res.code = static_cast<int64_t>(status.code());
  res.message = status.message();
  return res;
}

Response MakeRecordReply(const RecordReply& reply) {
  Response res;
  res.payload = {MetaWriter()
                     .Int("checkpoints", reply.checkpoints)
                     .Double("runtime_seconds", reply.runtime_seconds)
                     .Double("admission_wait_seconds",
                             reply.admission_wait_seconds)
                     .Finish(),
                 reply.manifest};
  return res;
}

Result<RecordReply> ParseRecordReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  FLOR_RETURN_IF_ERROR(ExpectSections(res.payload, 2, "record reply"));
  RecordReply reply;
  FLOR_RETURN_IF_ERROR(
      MetaReader(res.payload[0])
          .Int("checkpoints", &reply.checkpoints)
          .Double("runtime_seconds", &reply.runtime_seconds)
          .Double("admission_wait_seconds", &reply.admission_wait_seconds)
          .Finish());
  reply.manifest = res.payload[1];
  return reply;
}

Response MakeReplayReply(const ReplayReply& reply) {
  Response res;
  res.payload = {MetaWriter()
                     .Int("workers_used", reply.workers_used)
                     .Double("latency_seconds", reply.latency_seconds)
                     .Double("wall_seconds", reply.wall_seconds)
                     .Int("bucket_faults", reply.bucket_faults)
                     .Int("bloom_skipped_probes", reply.bloom_skipped_probes)
                     .Bool("deferred_ok", reply.deferred_ok)
                     .Finish(),
                 reply.merged_logs};
  return res;
}

Result<ReplayReply> ParseReplayReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  FLOR_RETURN_IF_ERROR(ExpectSections(res.payload, 2, "replay reply"));
  ReplayReply reply;
  FLOR_RETURN_IF_ERROR(
      MetaReader(res.payload[0])
          .Int("workers_used", &reply.workers_used)
          .Double("latency_seconds", &reply.latency_seconds)
          .Double("wall_seconds", &reply.wall_seconds)
          .Int("bucket_faults", &reply.bucket_faults)
          .Int("bloom_skipped_probes", &reply.bloom_skipped_probes)
          .Bool("deferred_ok", &reply.deferred_ok)
          .Finish());
  reply.merged_logs = res.payload[1];
  return reply;
}

Response MakeQueryReply(const QueryReply& reply) {
  Response res;
  res.payload.reserve(reply.runs.size() + 1);
  const auto count = static_cast<int64_t>(reply.runs.size());
  res.payload.push_back(MetaWriter().Int("runs", count).Finish());
  for (const RunInfo& run : reply.runs) {
    res.payload.push_back(
        MetaWriter()
            .Str("prefix", run.prefix)
            .Str("workload", run.workload)
            .Double("record_runtime_seconds", run.record_runtime_seconds)
            .Int("checkpoints", run.checkpoints)
            .Finish());
  }
  return res;
}

Result<QueryReply> ParseQueryReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  if (res.payload.empty()) {
    return Status::Corruption("query reply: missing count section");
  }
  int64_t count = 0;
  FLOR_RETURN_IF_ERROR(MetaReader(res.payload[0]).Int("runs", &count).Finish());
  if (count < 0 || static_cast<size_t>(count) != res.payload.size() - 1) {
    return Status::Corruption(
        StrCat("query reply: declares ", count, " runs but ",
               res.payload.size() - 1, " sections follow"));
  }
  QueryReply reply;
  reply.runs.resize(static_cast<size_t>(count));
  for (size_t i = 0; i < reply.runs.size(); ++i) {
    RunInfo& run = reply.runs[i];
    FLOR_RETURN_IF_ERROR(
        MetaReader(res.payload[i + 1])
            .Str("prefix", &run.prefix)
            .Str("workload", &run.workload)
            .Double("record_runtime_seconds", &run.record_runtime_seconds)
            .Int("checkpoints", &run.checkpoints)
            .Finish());
  }
  return reply;
}

Response MakeExistsReply(const ExistsReply& reply) {
  Response res;
  res.payload = {MetaWriter().Bool("exists", reply.exists).Finish()};
  return res;
}

Result<ExistsReply> ParseExistsReply(const Response& res) {
  if (!res.ok()) return res.ToStatus();
  FLOR_RETURN_IF_ERROR(ExpectSections(res.payload, 1, "exists reply"));
  ExistsReply reply;
  FLOR_RETURN_IF_ERROR(
      MetaReader(res.payload[0]).Bool("exists", &reply.exists).Finish());
  return reply;
}

const char* EngineName(ReplayEngine engine) {
  switch (engine) {
    case ReplayEngine::kSimulated:
      return "sim";
    case ReplayEngine::kThreads:
      return "threads";
    case ReplayEngine::kProcesses:
      return "procs";
  }
  return "sim";
}

Result<ReplayEngine> ParseEngine(const std::string& name) {
  if (name == "sim") return ReplayEngine::kSimulated;
  if (name == "threads") return ReplayEngine::kThreads;
  if (name == "procs") return ReplayEngine::kProcesses;
  return Status::InvalidArgument(
      StrCat("unknown replay engine '", name,
             "' (expected sim, threads, or procs)"));
}

}  // namespace wire
}  // namespace flor
