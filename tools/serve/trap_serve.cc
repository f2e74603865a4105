// trap_serve: the advisor-as-a-service runtime. One binary, two modes:
//
//   trap_serve --listen PATH [--schema S] [--seed N] [--max-inflight N]
//     Poll()-driven Unix-domain-socket server speaking the common::rpc
//     envelope in length-prefixed frames. Methods: health, snapshot_stats,
//     advise, assess, whatif_batch, drift_replay (src/serve/service.h),
//     plus "shutdown" (handled by the server itself).
//
//   trap_serve --script FILE [--connections N] [--digest] [--socket PATH]
//     Scripted multi-connection client. Without --socket it spawns itself
//     as the server on a private socket and tears it down afterwards.
//     Script grammar (one command per line, '#' comments):
//       send <conn> <method> [<params-json>]   enqueue one request
//       sync                                    await every response
//     Responses are folded -- per connection, in send order, ids matched so
//     shed responses arriving early still land in their slot -- into the
//     session digest printed as "serve digest: 0x...". The golden.serve_*
//     rows (tests/golden/digests.txt) pin that line for the golden session
//     scripts at TRAP_THREADS=1/4/8; --report serve writes BENCH_serve.json
//     with serve_requests_per_sec.

#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/frame.h"
#include "common/rng.h"
#include "common/rpc.h"
#include "common/status.h"
#include "common/subprocess.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tools/common/cli.h"

namespace {

struct ToolOptions {
  std::string schema = "tpch";
  unsigned long long seed = 1;
  long long max_inflight = 64;
  std::string listen_path;   // server mode
  std::string script_path;   // client mode
  std::string socket_path;   // client mode: connect instead of spawning
  long long connections = 1;
  bool digest_only = false;
  std::string report_name;
};

int Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: trap_serve (--listen PATH | --script FILE) [options]\n"
      "  --schema NAME       tpch | tpcds | transaction (default tpch)\n"
      "  --seed S            default workload seed (default 1)\n"
      "  --max-inflight N    admission bound, server mode (default 64)\n"
      "  --script FILE       client mode: run the session script\n"
      "  --connections N     client connections (default 1)\n"
      "  --socket PATH       connect to PATH instead of spawning a server\n"
      "  --digest            print only the session digest line\n"
      "  --report NAME       write a BENCH_NAME.json run report\n");
  return out == stdout ? 0 : 2;
}

// 64-bit FNV-1a over the exact response payload bytes: the digest must move
// whenever any response byte moves.
uint64_t HashPayload(const std::string& payload) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

int ServerMain(const ToolOptions& options) {
  trap::serve::ServiceOptions service_options;
  service_options.schema = options.schema;
  service_options.seed = options.seed;
  trap::common::StatusOr<std::unique_ptr<trap::serve::ServeService>> service =
      trap::serve::ServeService::Create(service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "trap_serve: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  trap::serve::ServerOptions sopt;
  sopt.socket_path = options.listen_path;
  sopt.max_inflight = static_cast<int>(options.max_inflight);
  trap::serve::Server server(service->get(), sopt);
  trap::common::Status status = server.Start();
  if (status.ok()) status = server.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "trap_serve: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

// One scripted client connection: a blocking socket plus the bookkeeping to
// match responses (which may arrive out of send order when the server
// sheds) back to send slots.
struct ClientConn {
  int fd = -1;
  trap::common::FrameDecoder decoder;
  uint64_t next_id = 0;
  std::vector<uint64_t> sent;                 // ids in send order
  std::map<uint64_t, std::string> received;   // id -> raw response payload
};

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads one complete frame (blocking).
trap::common::Status ReadOneFrame(ClientConn* conn, std::string* payload) {
  std::string error;
  while (true) {
    switch (conn->decoder.Next(payload, &error)) {
      case trap::common::FrameDecoder::Result::kFrame:
        return trap::common::Status::Ok();
      case trap::common::FrameDecoder::Result::kMalformed:
        return trap::common::Status::Internal("malformed frame: " + error);
      case trap::common::FrameDecoder::Result::kNeedMore:
        break;
    }
    char buf[65536];
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return trap::common::Status::Unavailable(std::string("read: ") +
                                               std::strerror(errno));
    }
    if (n == 0) {
      return trap::common::Status::Unavailable("server closed the connection");
    }
    conn->decoder.Append(buf, static_cast<std::size_t>(n));
  }
}

// Connects to the server socket, retrying while the (possibly just-spawned)
// server is still binding, and validates the hello handshake.
trap::common::StatusOr<int> ConnectWithRetry(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return trap::common::Status::InvalidArgument("bad socket path: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return trap::common::Status::Unavailable(std::string("socket: ") +
                                               std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    timespec backoff{0, 20 * 1000 * 1000};  // 20ms between attempts
    ::nanosleep(&backoff, nullptr);
  }
  return trap::common::Status::Unavailable("cannot connect to " + path);
}

// Blocks until every sent request on every connection has its response.
trap::common::Status SyncAll(std::vector<ClientConn>* conns) {
  for (ClientConn& conn : *conns) {
    while (conn.received.size() < conn.sent.size()) {
      std::string payload;
      TRAP_RETURN_IF_ERROR(ReadOneFrame(&conn, &payload));
      trap::common::StatusOr<trap::common::rpc::Response> resp =
          trap::common::rpc::DecodeResponse(payload);
      if (!resp.ok()) return resp.status();
      conn.received[resp->id] = std::move(payload);
    }
  }
  return trap::common::Status::Ok();
}

trap::common::Status RunScript(const std::vector<std::string>& lines,
                               std::vector<ClientConn>* conns) {
  for (size_t lineno = 0; lineno < lines.size(); ++lineno) {
    std::istringstream in(lines[lineno]);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    const std::string where = "script line " + std::to_string(lineno + 1);
    if (cmd == "sync") {
      TRAP_RETURN_IF_ERROR(SyncAll(conns));
      continue;
    }
    if (cmd != "send") {
      return trap::common::Status::InvalidArgument(where + ": unknown command '" +
                                                   cmd + "'");
    }
    long long conn_index = -1;
    std::string method;
    in >> conn_index >> method;
    if (method.empty() || conn_index < 0 ||
        conn_index >= static_cast<long long>(conns->size())) {
      return trap::common::Status::InvalidArgument(
          where + ": send needs a valid <conn> and <method>");
    }
    std::string params_text;
    std::getline(in, params_text);
    const size_t start = params_text.find_first_not_of(" \t");
    params_text =
        start == std::string::npos ? "" : params_text.substr(start);

    ClientConn& conn = (*conns)[static_cast<size_t>(conn_index)];
    trap::common::rpc::Request req;
    req.id = ++conn.next_id;
    req.method = method;
    if (!params_text.empty()) {
      trap::common::StatusOr<trap::common::JsonValue> params =
          trap::common::ParseJson(params_text);
      if (!params.ok()) {
        return trap::common::Status::InvalidArgument(
            where + ": bad params: " + params.status().message());
      }
      req.params = *std::move(params);
    }
    if (!SendAll(conn.fd, trap::common::EncodeFrame(
                              trap::common::rpc::EncodeRequest(req)))) {
      return trap::common::Status::Unavailable(where + ": send failed");
    }
    conn.sent.push_back(req.id);
  }
  return SyncAll(conns);
}

int ClientMain(const ToolOptions& options, const std::string& self_binary) {
  std::ifstream script_file(options.script_path);
  if (!script_file) {
    std::fprintf(stderr, "trap_serve: cannot read script %s\n",
                 options.script_path.c_str());
    return 1;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(script_file, line);) {
    lines.push_back(line);
  }

  trap::common::Subprocess server;
  std::string socket_path = options.socket_path;
  if (socket_path.empty()) {
    socket_path =
        "/tmp/trap_serve." + std::to_string(::getpid()) + ".sock";
    std::vector<std::string> argv = {
        self_binary,
        "--listen", socket_path,
        "--schema", options.schema,
        "--seed", std::to_string(options.seed),
        "--max-inflight", std::to_string(options.max_inflight)};
    trap::common::StatusOr<trap::common::Subprocess> spawned =
        trap::common::SpawnWithPipes(argv);
    if (!spawned.ok()) {
      std::fprintf(stderr, "trap_serve: %s\n",
                   spawned.status().ToString().c_str());
      return 1;
    }
    server = *spawned;
  }
  const auto teardown = [&](int code) {
    if (server.running()) {
      trap::common::ClosePipes(&server);
      trap::common::Kill(&server);
      trap::common::Reap(&server);
    }
    return code;
  };

  std::vector<ClientConn> conns(
      static_cast<size_t>(options.connections));
  for (ClientConn& conn : conns) {
    trap::common::StatusOr<int> fd = ConnectWithRetry(socket_path);
    if (!fd.ok()) {
      std::fprintf(stderr, "trap_serve: %s\n", fd.status().ToString().c_str());
      return teardown(1);
    }
    conn.fd = fd.value();
    std::string hello;
    trap::common::Status status = ReadOneFrame(&conn, &hello);
    if (status.ok()) {
      status = trap::common::rpc::CheckHello(hello, "trap-serve");
    }
    if (!status.ok()) {
      std::fprintf(stderr, "trap_serve: handshake: %s\n",
                   status.ToString().c_str());
      return teardown(1);
    }
  }

  std::optional<trap::bench::BenchReport> report;
  if (!options.report_name.empty()) report.emplace(options.report_name);
  trap::common::Status run_status = trap::common::Status::Ok();
  const auto run = [&] { run_status = RunScript(lines, &conns); };
  double seconds = 0.0;
  if (report.has_value()) {
    seconds = report->TimePhase("session", run);
  } else {
    run();
  }
  if (!run_status.ok()) {
    std::fprintf(stderr, "trap_serve: %s\n", run_status.ToString().c_str());
    return teardown(1);
  }

  // Session digest: per connection, per request in send order, fold the raw
  // response payload. Responses were matched by id, so a shed response that
  // overtook an admitted one still folds in its send slot.
  uint64_t digest = 0x5e27e0f1a9c4b386ull;
  size_t total_requests = 0;
  for (size_t c = 0; c < conns.size(); ++c) {
    for (uint64_t id : conns[c].sent) {
      const std::string& payload = conns[c].received.at(id);
      digest = trap::common::HashCombine(
          digest, trap::common::HashCombine(static_cast<uint64_t>(c),
                                            HashPayload(payload)));
      if (!options.digest_only) {
        std::printf("conn %zu id %llu: %s\n", c,
                    static_cast<unsigned long long>(id), payload.c_str());
      }
      ++total_requests;
    }
  }

  if (report.has_value()) {
    report->RecordMetric("requests", static_cast<double>(total_requests));
    report->RecordMetric("serve_requests_per_sec",
                         seconds > 0.0
                             ? static_cast<double>(total_requests) / seconds
                             : 0.0);
    std::fprintf(stdout, "report: %s\n", report->Write().c_str());
  }

  // Graceful shutdown: the server drains and exits, then unlinks its
  // socket; fall back to teardown()'s kill if anything goes wrong.
  trap::common::rpc::Request bye;
  bye.id = ++conns[0].next_id;
  bye.method = "shutdown";
  std::string bye_payload;
  if (SendAll(conns[0].fd, trap::common::EncodeFrame(
                               trap::common::rpc::EncodeRequest(bye))) &&
      ReadOneFrame(&conns[0], &bye_payload).ok() && server.running()) {
    trap::common::ClosePipes(&server);
    trap::common::Reap(&server);
  }
  for (ClientConn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }

  std::printf("serve digest: 0x%016llx\n",
              static_cast<unsigned long long>(digest));
  return teardown(0);
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions options;
  trap::cli::FlagParser flags(argc, argv, "trap_serve");
  while (flags.Next()) {
    if (flags.Switch("--help") || flags.Switch("-h")) return Usage(stdout);
    if (flags.Switch("--digest")) {
      options.digest_only = true;
      continue;
    }
    if (flags.StringFlag("--schema", &options.schema)) continue;
    if (flags.Uint64Flag("--seed", &options.seed)) continue;
    if (flags.IntFlag("--max-inflight", &options.max_inflight)) continue;
    if (flags.StringFlag("--listen", &options.listen_path)) continue;
    if (flags.StringFlag("--script", &options.script_path)) continue;
    if (flags.StringFlag("--socket", &options.socket_path)) continue;
    if (flags.IntFlag("--connections", &options.connections)) continue;
    if (flags.StringFlag("--report", &options.report_name)) continue;
    flags.Unknown();
    return Usage(stderr);
  }
  if (flags.failed()) return Usage(stderr);
  const int modes = (options.listen_path.empty() ? 0 : 1) +
                    (options.script_path.empty() ? 0 : 1);
  if (modes != 1) {
    std::fprintf(stderr,
                 "trap_serve: exactly one of --listen, --script\n");
    return Usage(stderr);
  }
  if (options.max_inflight < 1) {
    std::fprintf(stderr, "trap_serve: --max-inflight must be >= 1\n");
    return 2;
  }
  if (options.connections < 1 || options.connections > 64) {
    std::fprintf(stderr, "trap_serve: --connections must be in [1, 64]\n");
    return 2;
  }
  if (!options.listen_path.empty()) return ServerMain(options);
  return ClientMain(options, [&] {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
      buf[n] = '\0';
      return std::string(buf);
    }
    return std::string(argv[0]);
  }());
}
