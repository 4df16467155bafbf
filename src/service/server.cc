#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace flor {

namespace {

/// EINTR-safe full read. Returns the bytes read (== n on success); a
/// short count means EOF or a socket error mid-read.
size_t ReadFull(int fd, char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd, buf + done, n - done, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;
    done += static_cast<size_t>(r);
  }
  return done;
}

/// EINTR-safe full write. MSG_NOSIGNAL: a peer hanging up mid-response
/// must surface as EPIPE, not kill the server process.
Status WriteFull(int fd, const char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("socket write failed: ", std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

void EncodeLen(uint32_t len, char out[4]) {
  out[0] = static_cast<char>(len & 0xff);
  out[1] = static_cast<char>((len >> 8) & 0xff);
  out[2] = static_cast<char>((len >> 16) & 0xff);
  out[3] = static_cast<char>((len >> 24) & 0xff);
}

uint32_t DecodeLen(const char in[4]) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(in);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

Status WriteMessage(int fd, const std::string& message) {
  char hdr[4];
  EncodeLen(static_cast<uint32_t>(message.size()), hdr);
  FLOR_RETURN_IF_ERROR(WriteFull(fd, hdr, sizeof hdr));
  return WriteFull(fd, message.data(), message.size());
}

/// Reads one length-prefixed message. `*clean_eof` is set when the peer
/// closed before sending any byte of the next message (a normal
/// goodbye). A declared length above `max_bytes` is Corruption (the
/// caller answers it with a typed response); a stream cut mid-message is
/// IOError (nothing can be answered — alignment is gone).
Result<std::string> ReadMessage(int fd, uint32_t max_bytes,
                                bool* clean_eof) {
  *clean_eof = false;
  char hdr[4];
  const size_t got = ReadFull(fd, hdr, sizeof hdr);
  if (got == 0) {
    *clean_eof = true;
    return Status::IOError("peer closed the connection");
  }
  if (got < sizeof hdr)
    return Status::IOError("stream cut inside a message length prefix");
  const uint32_t len = DecodeLen(hdr);
  if (len > max_bytes) {
    return Status::Corruption(
        StrCat("declared message length ", len, " exceeds the limit of ",
               max_bytes, " bytes"));
  }
  std::string message(len, '\0');
  if (ReadFull(fd, message.data(), len) < len)
    return Status::IOError("stream cut inside a message body");
  return message;
}

/// The unix-domain address of `path` (listen and connect share it).
Result<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return Status::InvalidArgument(
        StrCat("unix socket path is ", path.size(),
               " bytes; the limit is ", sizeof addr.sun_path - 1));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// 127.0.0.1:`port` (listen and connect share it).
sockaddr_in LoopbackAddress(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

Status ListenUnixSocket(const std::string& path, int* fd_out) {
  FLOR_ASSIGN_OR_RETURN(const sockaddr_un addr, UnixAddress(path));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrCat("socket(AF_UNIX) failed: ", std::strerror(errno)));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const Status st = Status::IOError(
        StrCat("bind ", path, " failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st = Status::IOError(
        StrCat("listen ", path, " failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  *fd_out = fd;
  return Status::OK();
}

Status ListenTcpSocket(int port, int* fd_out, int* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrCat("socket(AF_INET) failed: ", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = LoopbackAddress(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const Status st = Status::IOError(
        StrCat("bind 127.0.0.1:", port, " failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st =
        Status::IOError(StrCat("listen failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status st = Status::IOError(
        StrCat("getsockname failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  *fd_out = fd;
  *port_out = static_cast<int>(ntohs(bound.sin_port));
  return Status::OK();
}

}  // namespace

Server::Server(Connection* conn, ServerOptions options)
    : conn_(conn), options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(Connection* conn,
                                              ServerOptions options) {
  if (conn == nullptr)
    return Status::InvalidArgument("Server::Start: null connection");
  const bool want_unix = !options.unix_path.empty();
  if (want_unix == options.tcp) {
    return Status::InvalidArgument(
        "Server::Start: configure exactly one of unix_path or tcp");
  }
  std::unique_ptr<Server> server(new Server(conn, std::move(options)));
  FLOR_RETURN_IF_ERROR(server->Listen());
  server->accept_thread_ =
      std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

Status Server::Listen() {
  if (!options_.unix_path.empty())
    return ListenUnixSocket(options_.unix_path, &listen_fd_);
  return ListenTcpSocket(options_.tcp_port, &listen_fd_, &tcp_port_);
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Unblock every handler stuck in recv; handlers close their own fd
    // (under mu_) on the way out, so shutdown-under-lock cannot race a
    // close-and-reuse of the descriptor.
    for (int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.unix_path.empty())
      ::unlink(options_.unix_path.c_str());
  }
  std::map<std::thread::id, std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (auto& [id, t] : handlers) {
    if (t.joinable()) t.join();
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or hard error): stop accepting
    }
    // Join handlers whose clients have left, so an always-on server holds
    // one thread (and its stack) per live client, not per client ever seen.
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      for (const std::thread::id id : finished_ids_)
        finished.push_back(std::move(handlers_.extract(id).mapped()));
      finished_ids_.clear();
      ++stats_.connections_accepted;
      client_fds_.push_back(fd);
      std::thread handler([this, fd] { HandleClient(fd); });
      handlers_.emplace(handler.get_id(), std::move(handler));
    }
    for (std::thread& t : finished) t.join();
  }
}

void Server::HandleClient(int fd) {
  for (;;) {
    bool clean_eof = false;
    auto message = ReadMessage(fd, options_.max_message_bytes, &clean_eof);
    if (!message.ok()) {
      if (!clean_eof && message.status().IsCorruption()) {
        // Oversized declared length: answer with the typed error, then
        // hang up — the remaining stream bytes cannot be trusted.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.corrupt_messages;
        }
        WriteMessage(
            fd, wire::EncodeResponse(wire::ErrorResponse(message.status())));
      }
      break;
    }
    auto request = wire::DecodeRequest(*message);
    if (!request.ok()) {
      // Torn or mutated frames: typed Corruption response, then hang up
      // (a corrupt message poisons stream alignment; reconnect).
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.corrupt_messages;
      }
      WriteMessage(
          fd, wire::EncodeResponse(wire::ErrorResponse(request.status())));
      break;
    }
    const wire::Response response = Dispatch(*request);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests_served;
      if (response.code == static_cast<int64_t>(StatusCode::kUnavailable))
        ++stats_.unavailable_refusals;
    }
    if (!WriteMessage(fd, wire::EncodeResponse(response)).ok()) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  client_fds_.erase(
      std::remove(client_fds_.begin(), client_fds_.end(), fd),
      client_fds_.end());
  ::close(fd);
  finished_ids_.push_back(std::this_thread::get_id());
}

wire::Response Server::Dispatch(const wire::Request& req) {
  // OpenSession validates the tenant name and refuses once the
  // connection is draining — the typed-Unavailable contract.
  auto session_or = conn_->OpenSession(req.tenant);
  if (!session_or.ok()) return wire::ErrorResponse(session_or.status());
  Session* session = session_or->get();

  if (req.op == "record" || req.op == "replay") {
    if (!options_.resolve_workload) {
      return wire::ErrorResponse(Status::NotSupported(
          "server has no workload resolver; record/replay are disabled"));
    }
    auto resolved = options_.resolve_workload(req.workload);
    if (!resolved.ok()) return wire::ErrorResponse(resolved.status());

    if (req.op == "record") {
      auto rec = session->Record(req.run, resolved->factory,
                                 resolved->record);
      if (!rec.ok()) return wire::ErrorResponse(rec.status());
      // The bytes the record persisted (sessions run no inline GC), not a
      // re-read of the file the background GC may already be pruning.
      wire::RecordReply reply;
      reply.checkpoints =
          static_cast<int64_t>(rec->manifest.records.size());
      reply.runtime_seconds = rec->runtime_seconds;
      reply.admission_wait_seconds = rec->admission_wait_seconds;
      reply.manifest = rec->manifest.Serialize();
      return wire::MakeRecordReply(reply);
    }

    auto engine = wire::ParseEngine(req.engine);
    if (!engine.ok()) return wire::ErrorResponse(engine.status());
    if (req.workers < 1 || req.workers > 4096) {
      return wire::ErrorResponse(Status::InvalidArgument(
          StrCat("replay workers must be in [1, 4096], got ",
                 req.workers)));
    }
    SessionReplayOptions ropts;
    ropts.engine = *engine;
    ropts.workers = static_cast<int>(req.workers);
    auto rep = session->Replay(req.run, resolved->factory, ropts);
    if (!rep.ok()) return wire::ErrorResponse(rep.status());
    wire::ReplayReply reply;
    reply.workers_used = rep->workers_used;
    reply.latency_seconds = rep->latency_seconds;
    reply.wall_seconds = rep->wall_seconds;
    reply.bucket_faults = rep->bucket_faults;
    reply.bloom_skipped_probes = rep->bloom_skipped_probes;
    reply.deferred_ok = rep->deferred.ok;
    reply.merged_logs = rep->merged_logs.Serialize();
    return wire::MakeReplayReply(reply);
  }

  if (req.op == "query") {
    auto runs = session->Query();
    if (!runs.ok()) return wire::ErrorResponse(runs.status());
    wire::QueryReply reply;
    reply.runs = std::move(*runs);
    return wire::MakeQueryReply(reply);
  }

  if (req.op == "exists") {
    CheckpointKey key;
    key.loop_id = req.loop_id;
    key.ctx = req.ctx;
    auto exists = session->Exists(req.run, key);
    if (!exists.ok()) return wire::ErrorResponse(exists.status());
    wire::ExistsReply reply;
    reply.exists = *exists;
    return wire::MakeExistsReply(reply);
  }

  return wire::ErrorResponse(Status::InvalidArgument(
      StrCat("unknown wire op '", req.op,
             "' (expected record, replay, query, or exists)")));
}

WireClient::WireClient(WireClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    Disconnect();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

WireClient::~WireClient() { Disconnect(); }

void WireClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WireClient> WireClient::ConnectUnix(const std::string& path) {
  FLOR_ASSIGN_OR_RETURN(const sockaddr_un addr, UnixAddress(path));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrCat("socket(AF_UNIX) failed: ", std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const Status st = Status::IOError(
        StrCat("connect ", path, " failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return WireClient(fd);
}

Result<WireClient> WireClient::ConnectTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrCat("socket(AF_INET) failed: ", std::strerror(errno)));
  }
  const sockaddr_in addr = LoopbackAddress(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const Status st = Status::IOError(StrCat(
        "connect 127.0.0.1:", port, " failed: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return WireClient(fd);
}

Status WireClient::SendBytes(const std::string& message) {
  if (fd_ < 0) return Status::FailedPrecondition("client is disconnected");
  return WriteMessage(fd_, message);
}

Status WireClient::SendRawPrefix(uint32_t declared,
                                 const std::string& body) {
  if (fd_ < 0) return Status::FailedPrecondition("client is disconnected");
  char hdr[4];
  EncodeLen(declared, hdr);
  FLOR_RETURN_IF_ERROR(WriteFull(fd_, hdr, sizeof hdr));
  return WriteFull(fd_, body.data(), body.size());
}

Result<wire::Response> WireClient::ReadResponse() {
  if (fd_ < 0) return Status::FailedPrecondition("client is disconnected");
  bool clean_eof = false;
  auto message =
      ReadMessage(fd_, wire::kMaxWireMessageBytes, &clean_eof);
  if (!message.ok()) {
    if (clean_eof)
      return Status::IOError("server closed the connection");
    return message.status();
  }
  return wire::DecodeResponse(*message);
}

Result<wire::Response> WireClient::Call(const wire::Request& req) {
  FLOR_RETURN_IF_ERROR(SendBytes(wire::EncodeRequest(req)));
  return ReadResponse();
}

}  // namespace flor
