// flor::Server — the socket front door of the Connection/Session service.
//
// Speaks the CRC-framed wire protocol (service/wire.h) over a unix-domain
// or loopback-TCP stream socket; each message travels as
// [u32 LE total length][message bytes]. One accept thread hands every
// client connection to its own handler thread; handlers dispatch
// requests 1:1 onto Session calls against the shared Connection, which
// is fully thread-safe (per-tenant fair admission included).
//
// Failure semantics, in line with the rest of the storage stack:
//   * a message that fails to decode (torn, mutated, wrong kind) earns a
//     typed Corruption *response* and then the connection is closed —
//     after a corrupt message the byte stream can no longer be trusted
//     to be aligned, so the client must reconnect;
//   * a well-formed but semantically invalid request (unknown op or
//     engine, invalid tenant name, unresolvable workload spec) earns a
//     typed error response and the connection stays usable;
//   * once Connection::Close has been called, every request is refused
//     with a typed Unavailable response (counted in ServerStats) — the
//     graceful-drain contract;
//   * a server never crashes on client bytes: every decode failure is a
//     Status, never undefined behavior (fuzzed in tests/server_test.cc).

#ifndef FLOR_SERVICE_SERVER_H_
#define FLOR_SERVICE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "flor/skipblock.h"
#include "service/service.h"
#include "service/wire.h"

namespace flor {

/// What a workload spec string resolves to: the program factory plus the
/// record-op knobs for that workload. The server cannot invent programs —
/// the embedding process decides which specs exist, exactly like the
/// replay engines take a factory from their caller.
struct ResolvedWorkload {
  ProgramFactory factory;
  SessionRecordOptions record;
};

/// Maps a request's workload spec to a runnable workload; NotFound (or
/// any error) turns into a typed error response for that request.
using WorkloadResolver =
    std::function<Result<ResolvedWorkload>(const std::string& spec)>;

struct ServerOptions {
  /// Listen on this AF_UNIX socket path (must not already exist)...
  std::string unix_path;
  /// ...or on loopback TCP. Exactly one of the two must be selected.
  bool tcp = false;
  /// TCP port; 0 picks an ephemeral port (read it back via tcp_port()).
  int tcp_port = 0;
  /// Upper bound on one message's declared length; a larger length is
  /// answered with a typed Corruption response and a hangup.
  uint32_t max_message_bytes = wire::kMaxWireMessageBytes;
  /// Null disables record/replay (typed NotSupported); query/exists
  /// always work.
  WorkloadResolver resolve_workload;
};

struct ServerStats {
  int64_t connections_accepted = 0;
  /// Well-formed requests dispatched (including ones answered with a
  /// typed semantic error).
  int64_t requests_served = 0;
  /// Messages that failed to decode (or declared an oversized length).
  int64_t corrupt_messages = 0;
  /// Requests refused with Unavailable because the connection is
  /// draining/closed.
  int64_t unavailable_refusals = 0;
};

/// The listening server. Start() binds and spawns the accept thread;
/// Stop() (idempotent, also run by the destructor) shuts the listener
/// and every client socket down and joins all threads. Does not own the
/// Connection — closing the connection first is the graceful-drain
/// sequence: in-flight requests finish, new ones get Unavailable.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(Connection* conn,
                                               ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void Stop();

  /// Bound TCP port (ephemeral resolved), 0 on unix sockets.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }
  ServerStats stats() const;

 private:
  Server(Connection* conn, ServerOptions options);

  Status Listen();
  void AcceptLoop();
  void HandleClient(int fd);
  wire::Response Dispatch(const wire::Request& req);

  Connection* conn_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int tcp_port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  bool stopping_ = false;
  std::vector<int> client_fds_;
  std::map<std::thread::id, std::thread> handlers_;
  /// Handlers that have returned from HandleClient; the accept loop joins
  /// and drops them.
  std::vector<std::thread::id> finished_ids_;
  ServerStats stats_;
};

/// A minimal synchronous client for the wire protocol — what the tests
/// and examples drive the server with. Not thread-safe; one per thread.
class WireClient {
 public:
  static Result<WireClient> ConnectUnix(const std::string& path);
  static Result<WireClient> ConnectTcp(int port);

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  ~WireClient();

  /// One request/response exchange.
  Result<wire::Response> Call(const wire::Request& req);

  /// Sends pre-encoded message bytes (length prefix added here) without
  /// any validation — the fuzzing hook for torn/mutated frames.
  Status SendBytes(const std::string& message);
  /// Sends a raw length prefix claiming `declared` bytes followed by
  /// `body` (possibly shorter) — the truncated-stream fuzzing hook.
  Status SendRawPrefix(uint32_t declared, const std::string& body);
  Result<wire::Response> ReadResponse();

  void Disconnect();

 private:
  explicit WireClient(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace flor

#endif  // FLOR_SERVICE_SERVER_H_
