#ifndef TRAP_SERVE_SERVER_H_
#define TRAP_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/snapshot.h"
#include "common/frame.h"
#include "common/rpc.h"
#include "common/status.h"
#include "serve/service.h"

namespace trap::serve {

struct ServerOptions {
  // Unix-domain socket path; any stale file at this path is replaced.
  std::string socket_path;
  // Admission bound: at most this many decoded-but-unexecuted requests may
  // be queued at once (across all connections). A frame decoded past the
  // bound is shed immediately with RESOURCE_EXHAUSTED and a
  // "retry_after_requests" hint, never silently dropped.
  int max_inflight = 64;
  int listen_backlog = 16;
};

// Single-process, poll()-driven server speaking the common::rpc envelope in
// length-prefixed frames over a Unix-domain socket. The accept side of
// every connection sends the {"rpc":1,"hello":"trap-serve"} handshake
// frame first, so a client built against a different protocol fails its
// very first read instead of misparsing.
//
// Concurrency model: one thread, serial execution in admission order; each
// request also evaluates on that thread (the engine's what-if batches are
// serial), so a session's responses are bit-identical for every
// TRAP_THREADS value. Each request
// pins SnapshotManager::Current() at the moment its frame is decoded
// (admission time): a snapshot_stats publish only governs requests admitted
// after it, and requests already admitted keep their pinned epoch.
//
// Failure model: a malformed frame or undecodable request poisons only its
// own connection -- the server answers with an id-0 INVALID_ARGUMENT
// response and closes that connection (FrameDecoder corruption is sticky;
// there is no trustworthy resync point). Socket-level errors on one
// connection likewise close just that connection. The listener itself
// failing is fatal and surfaces from Run().
//
// Shutdown: the "shutdown" method is handled by the server (not the
// service): it answers OK, stops admitting, drains already-admitted
// requests, and Run() returns OK.
class Server {
 public:
  // `service` must outlive the server.
  Server(ServeService* service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens on options.socket_path; kUnavailable on socket errors.
  common::Status Start();

  // Serves until a client issues "shutdown". Requires Start() succeeded.
  common::Status Run();

 private:
  struct Connection {
    int fd = -1;
    common::FrameDecoder decoder;
  };
  struct Admitted {
    std::size_t conn;  // index into conns_
    common::rpc::Request request;
    std::shared_ptr<const catalog::Snapshot> snapshot;  // pinned at admission
  };

  void AcceptOne();
  // Reads once from conns_[i] and admits / sheds / rejects every complete
  // frame buffered so far. Sets *shutdown when a shutdown request arrived.
  void DrainConnection(std::size_t i, bool* shutdown);
  void SendResponse(std::size_t i, const common::rpc::Response& resp);
  void CloseConnection(std::size_t i);

  ServeService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::vector<Connection> conns_;
  std::vector<Admitted> queue_;
};

}  // namespace trap::serve

#endif  // TRAP_SERVE_SERVER_H_
