// Wire protocol for the service front-end (service/server.h).
//
// Messages are sectioned messages (serialize/sections.h) tagged
// "florwir1\treq" or "florwir1\tres" — the same framing, meta sections
// and Status encoding the process replay engine's worker files use,
// applied to a socket instead of a scratch file. A response decoded as a
// request (or vice versa) is Corruption, so a desynced stream is never
// half-interpreted. On the socket, each message travels as
// [u32 LE total length][message bytes] (server.h).
//
// Error taxonomy: structural problems (wrong header tag, bad CRC,
// section-count mismatch, malformed meta) are Corruption; semantically
// invalid but well-formed requests (unknown op, bad tenant name) decode
// fine and earn a typed error *response* from the server instead.

#ifndef FLOR_SERVICE_WIRE_H_
#define FLOR_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flor/query.h"
#include "service/service.h"

namespace flor {
namespace wire {

/// Default cap on one message's total encoded size (requests carry no
/// bulk data; responses carry manifests and merged logs, which stay far
/// below this for any realistic run).
inline constexpr uint32_t kMaxWireMessageBytes = 64u << 20;

/// One client request. `op` selects the Session call; the remaining
/// fields are that call's arguments. Unknown ops/engines survive
/// decoding (they are semantic errors, answered with a typed response).
struct Request {
  std::string op;        ///< "record" | "replay" | "query" | "exists"
  std::string tenant;
  std::string run;       ///< record / replay / exists
  std::string workload;  ///< resolver spec (record / replay)
  std::string engine = "sim";  ///< replay: "sim" | "threads" | "procs"
  int64_t workers = 1;         ///< replay partition count
  int32_t loop_id = 0;         ///< exists: checkpoint key loop
  std::string ctx;             ///< exists: checkpoint key context (raw)
};

std::string EncodeRequest(const Request& req);
Result<Request> DecodeRequest(const std::string& message);

/// One server response: a status code + message, plus op-specific
/// payload sections (see the *Reply structs).
struct Response {
  int64_t code = 0;  ///< StatusCode as integer
  std::string message;
  std::vector<std::string> payload;

  bool ok() const { return code == 0; }
  /// Reconstructs the Status a failed call carried.
  Status ToStatus() const;
};

std::string EncodeResponse(const Response& res);
Result<Response> DecodeResponse(const std::string& message);

/// The error-shaped response for `status` (no payload).
Response ErrorResponse(const Status& status);

/// record: manifest bytes travel verbatim (byte-identical to the
/// manifest file an in-process Session::Record leaves behind).
struct RecordReply {
  int64_t checkpoints = 0;
  double runtime_seconds = 0;
  double admission_wait_seconds = 0;
  std::string manifest;
};
Response MakeRecordReply(const RecordReply& reply);
Result<RecordReply> ParseRecordReply(const Response& res);

/// replay: merged logs travel in LogStream's line encoding — pinned
/// byte-identical across all three engines, so the wire answer can be
/// compared bytewise against an in-process replay.
struct ReplayReply {
  int64_t workers_used = 0;
  double latency_seconds = 0;
  double wall_seconds = 0;
  int64_t bucket_faults = 0;
  int64_t bloom_skipped_probes = 0;
  bool deferred_ok = false;
  std::string merged_logs;
};
Response MakeReplayReply(const ReplayReply& reply);
Result<ReplayReply> ParseReplayReply(const Response& res);

/// query: the tenant's run listing (doubles as hexfloat, bit-exact).
struct QueryReply {
  std::vector<RunInfo> runs;
};
Response MakeQueryReply(const QueryReply& reply);
Result<QueryReply> ParseQueryReply(const Response& res);

/// exists: one bool.
struct ExistsReply {
  bool exists = false;
};
Response MakeExistsReply(const ExistsReply& reply);
Result<ExistsReply> ParseExistsReply(const Response& res);

/// "sim" / "threads" / "procs" <-> ReplayEngine. Unknown names are
/// InvalidArgument (semantic, not Corruption).
const char* EngineName(ReplayEngine engine);
Result<ReplayEngine> ParseEngine(const std::string& name);

}  // namespace wire
}  // namespace flor

#endif  // FLOR_SERVICE_WIRE_H_
