#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace trap::serve {
namespace {

// Sends every byte of `data` on a (blocking) socket. MSG_NOSIGNAL turns a
// peer hangup into EPIPE instead of SIGPIPE -- one dead client must never
// kill the server. Returns false once the connection is unusable.
bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServeService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  TRAP_CHECK(service_ != nullptr);
}

Server::~Server() {
  for (std::size_t i = 0; i < conns_.size(); ++i) CloseConnection(i);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

common::Status Server::Start() {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return common::Status::InvalidArgument("socket path empty or too long: " +
                                           options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return common::Status::Unavailable(std::string("socket: ") +
                                       std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // replace any stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return common::Status::Unavailable("bind " + options_.socket_path + ": " +
                                       std::strerror(errno));
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    return common::Status::Unavailable(std::string("listen: ") +
                                       std::strerror(errno));
  }
  return common::Status::Ok();
}

common::Status Server::Run() {
  TRAP_CHECK(listen_fd_ >= 0);  // Start() must have succeeded
  bool shutdown = false;
  std::vector<pollfd> fds;
  std::vector<std::size_t> conn_of_fd;  // conns_ index per pollfd (after 0)
  while (!shutdown) {
    fds.clear();
    conn_of_fd.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      fds.push_back(pollfd{conns_[i].fd, POLLIN, 0});
      conn_of_fd.push_back(i);
    }
    const int ready = ::poll(fds.data(), fds.size(), /*timeout=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return common::Status::Unavailable(std::string("poll: ") +
                                         std::strerror(errno));
    }
    if ((fds[0].revents & POLLIN) != 0) AcceptOne();
    // Admission phase: decode every readable connection's buffered frames,
    // in connection order, pinning the current snapshot per frame.
    for (std::size_t k = 1; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      DrainConnection(conn_of_fd[k - 1], &shutdown);
    }
    // Execution phase: serve the admitted queue serially, in admission
    // order, on this thread, so responses are bit-identical across
    // TRAP_THREADS settings.
    for (Admitted& admitted : queue_) {
      const common::rpc::Response resp =
          service_->Handle(admitted.request, admitted.snapshot);
      if (conns_[admitted.conn].fd >= 0) SendResponse(admitted.conn, resp);
    }
    queue_.clear();
  }
  return common::Status::Ok();
}

void Server::AcceptOne() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  // Handshake first: the dialing side validates version + role before it
  // issues any request.
  if (!SendAll(fd, common::EncodeFrame(common::rpc::EncodeHello(
                       "trap-serve")))) {
    ::close(fd);
    return;
  }
  for (Connection& conn : conns_) {
    if (conn.fd < 0) {
      conn = Connection{};
      conn.fd = fd;
      return;
    }
  }
  Connection conn;
  conn.fd = fd;
  conns_.push_back(std::move(conn));
}

void Server::DrainConnection(std::size_t i, bool* shutdown) {
  Connection& conn = conns_[i];
  char buf[65536];
  const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    CloseConnection(i);
    return;
  }
  if (n == 0) {  // clean hangup
    CloseConnection(i);
    return;
  }
  conn.decoder.Append(buf, static_cast<std::size_t>(n));
  std::string payload;
  std::string error;
  while (true) {
    const common::FrameDecoder::Result r = conn.decoder.Next(&payload, &error);
    if (r == common::FrameDecoder::Result::kNeedMore) return;
    if (r == common::FrameDecoder::Result::kMalformed) {
      // Corruption is sticky: answer once (id 0 -- there is no trustworthy
      // request id in a corrupt stream) and drop the connection.
      SendResponse(i, common::rpc::ErrorResponse(
                          0, common::Status::InvalidArgument(
                                 "malformed frame: " + error)));
      CloseConnection(i);
      return;
    }
    common::StatusOr<common::rpc::Request> req =
        common::rpc::DecodeRequest(payload);
    if (!req.ok()) {
      SendResponse(i, common::rpc::ErrorResponse(0, req.status()));
      CloseConnection(i);
      return;
    }
    if (req->method == "shutdown") {
      SendResponse(i, common::rpc::OkResponse(req->id, common::JsonValue()));
      *shutdown = true;
      return;
    }
    if (queue_.size() >= static_cast<std::size_t>(options_.max_inflight)) {
      common::rpc::Response shed;
      shed.id = req->id;
      shed.status = common::StatusCode::kResourceExhausted;
      shed.message = "admission queue full; retry after in-flight drain";
      shed.result = common::JsonValue::Object();
      shed.result.Set("retry_after_requests",
                      common::JsonValue::Number(
                          static_cast<double>(queue_.size())));
      SendResponse(i, shed);
      continue;
    }
    Admitted admitted;
    admitted.conn = i;
    admitted.request = *std::move(req);
    admitted.snapshot = service_->snapshots().Current();
    queue_.push_back(std::move(admitted));
  }
}

void Server::SendResponse(std::size_t i, const common::rpc::Response& resp) {
  if (!SendAll(conns_[i].fd,
               common::EncodeFrame(common::rpc::EncodeResponse(resp)))) {
    CloseConnection(i);
  }
}

void Server::CloseConnection(std::size_t i) {
  if (conns_[i].fd >= 0) {
    ::close(conns_[i].fd);
    conns_[i].fd = -1;
  }
}

}  // namespace trap::serve
