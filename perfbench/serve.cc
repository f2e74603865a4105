// The serve workload: the listen-mode advisor service (the serve::Server
// loop that `trap_serve --listen` runs) on a Unix-domain socket, driven in
// a closed loop by 4 connections from one client thread. The server runs on
// a thread of this process so its obs registry -- the engine's what-if
// counters -- is readable at the session's boundaries.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/datasets.h"
#include "common/frame.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/rpc.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workloads.h"

namespace trap::perfbench {
namespace {

constexpr int kConnections = 4;
// Rounds of the canonical session per served session; sets the session's
// length only (see PlanSession). 240 rounds are 2880 requests: enough for
// ten samples above the p99 latency, and enough drift replays (the
// costliest request) that the session's work varies little with the seed.
constexpr int kRounds = 240;

const char* const kAdvisors[] = {"Extend", "DB2Advis",   "AutoAdmin",
                                 "Drop",   "Relaxation", "DTA"};

const char* const kMethods[] = {"health",       "whatif_batch",
                                "advise",       "assess",
                                "drift_replay", "snapshot_stats"};

struct PlannedRequest {
  int window;  // the requests of one window are in flight together
  int conn;    // the connection that sends it
  std::string method;
  std::string params;  // JSON object text
  bool post_publish = false;  // in the window right after a publish
};

// The session replays the canonical 4-client session of
// tests/golden/serve_session.script for `rounds` rounds. Each round keeps
// the script's windows (its "sync" points), connections, methods and request
// shapes: 4-query workloads, a what-if batch of the empty and one
// single-column configuration, a 3-episode drift replay, and one publish,
// inspect and reset of the statistics epoch, with phase 3 repeating phase
// 1's probes under the published epoch. Only the script's literals become
// seeded draws: the workload seeds (fresh every round), the advisors (any of
// the six heuristics), the indexed column and the published column and
// table. A window runs alone -- every request of the previous window has
// answered before it is sent -- so the epoch each request pins, and so its
// response, is the same in every repetition.
std::vector<PlannedRequest> PlanSession(uint64_t seed, int rounds) {
  const catalog::Schema schema = catalog::MakeTpcH();
  common::Rng rng(common::HashCombine(seed, 0x5e55));
  auto column = [&] {
    const catalog::ColumnId c = schema.ColumnFromGlobalIndex(
        static_cast<int>(rng.UniformInt(0, schema.num_columns() - 1)));
    return "[" + std::to_string(c.table) + "," + std::to_string(c.column) +
           "]";
  };
  auto workload = [&] {
    return "\"workload_seed\":" + std::to_string(rng.UniformInt(1, 1 << 30)) +
           ",\"workload_size\":4";
  };
  auto advisor = [&] {
    return std::string("\"advisor\":\"") + kAdvisors[rng.UniformInt(0, 5)] +
           "\"";
  };
  std::vector<PlannedRequest> plan;
  int window = 0;
  auto add = [&](int conn, const char* method, std::string params) {
    plan.push_back(PlannedRequest{window, conn, method, std::move(params)});
  };
  for (int round = 0; round < rounds; ++round) {
    const std::string batch = "{" + workload() +
                              ",\"configs\":[{\"indexes\":[]},{\"indexes\":"
                              "[{\"columns\":[" + column() + "]}]}]}";
    const std::string advise_workload = workload();
    const std::string advise = "{" + advisor() + "," + advise_workload + "}";
    // Phase 1: the base epoch.
    add(0, "health", "{}");
    ++window;
    add(0, "whatif_batch", batch);
    add(1, "advise", advise);
    add(2, "assess", "{" + advisor() + "," + workload() + "}");
    add(3, "drift_replay",
        "{\"advisor\":\"greedy\",\"episodes\":3,\"seed\":" +
            std::to_string(rng.UniformInt(1, 1 << 30)) + "," + workload() +
            "}");
    ++window;
    // Phase 2: publish a shifted statistics epoch.
    add(0, "snapshot_stats",
        "{\"publish\":{\"column_stats\":[{\"col\":" + column() +
            ",\"stats\":{\"ndv\":500,\"min\":0,\"max\":1000,\"skew\":0.5}}],"
            "\"table_rows\":[{\"table\":" +
            std::to_string(rng.UniformInt(0, schema.num_tables() - 1)) +
            ",\"rows\":900000}],\"added_tables\":[]}}");
    ++window;
    // Phase 3: the same probes under the published epoch.
    add(0, "snapshot_stats", "{}");
    add(1, "advise", advise);
    add(2, "whatif_batch", batch);
    add(3, "advise", "{" + advisor() + "," + advise_workload + "}");
    for (size_t i = plan.size() - 4; i < plan.size(); ++i) {
      plan[i].post_publish = true;
    }
    ++window;
    // Phase 4: reset to the base epoch and confirm.
    add(0, "snapshot_stats", "{\"reset\":true}");
    ++window;
    add(3, "health", "{}");
    ++window;
  }
  return plan;
}

[[noreturn]] void Fatal(const std::string& what) {
  // The in-process server thread can only be stopped by a request on a
  // live connection; without one, end the process (no result is printed).
  std::fprintf(stderr, "perfbench: serve: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

struct Conn {
  int fd = -1;
  common::FrameDecoder decoder;
  int inflight = -1;  // plan index awaiting its response, or -1
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads what is available on `conn` and returns every complete frame.
std::vector<std::string> ReadFrames(Conn* conn, bool blocking) {
  std::vector<std::string> frames;
  while (true) {
    std::string payload;
    std::string error;
    const common::FrameDecoder::Result r = conn->decoder.Next(&payload, &error);
    if (r == common::FrameDecoder::Result::kFrame) {
      frames.push_back(std::move(payload));
      continue;
    }
    if (r == common::FrameDecoder::Result::kMalformed) {
      Fatal("malformed frame: " + error);
    }
    if (!frames.empty() || !blocking) return frames;
    char buf[65536];
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fatal("server closed the connection");
    conn->decoder.Append(buf, static_cast<size_t>(n));
    blocking = false;  // parse what arrived; poll() decides the next read
  }
}

// Blocks until one complete frame has arrived on `conn`.
std::string ReadOne(Conn* conn) {
  std::vector<std::string> frames;
  while (frames.empty()) frames = ReadFrames(conn, true);
  if (frames.size() != 1) Fatal("unexpected extra frame");
  return frames[0];
}

int Connect(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) Fatal("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof addr) != 0) {
    Fatal("cannot connect to " + path + ": " + std::strerror(errno));
  }
  return fd;
}

uint64_t HashPayload(const std::string& payload) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Checks one OK response's result against its method's contract.
void CheckResult(const std::string& method, const common::JsonValue& result,
                 RunResult* run) {
  if (method == "health") {
    if (!result.NumberAt("requests_handled").has_value()) {
      run->Fail("health: no request count");
    }
  } else if (method == "drift_replay") {
    const std::optional<double> regret = result.NumberAt("total_regret");
    if (result.NumberAt("episodes") != 3.0 || !regret.has_value() ||
        !std::isfinite(*regret) || *regret < 0.0) {
      run->Fail("drift_replay: expected 3 episodes and a regret >= 0");
    }
  } else if (method == "whatif_batch") {
    const common::JsonValue* costs = result.Find("costs");
    if (costs == nullptr || costs->items.size() != 2) {
      run->Fail("whatif_batch: expected 2 costs");
      return;
    }
    for (const common::JsonValue& c : costs->items) {
      if (!std::isfinite(c.number_value) || c.number_value < 0.0) {
        run->Fail("whatif_batch: cost not finite and non-negative");
      }
    }
  } else if (method == "advise") {
    if (result.Find("config") == nullptr) run->Fail("advise: no config");
  } else if (method == "assess") {
    const std::optional<double> u = result.NumberAt("utility");
    if (!u.has_value() || !std::isfinite(*u) || *u > 1.0) {
      run->Fail("assess: utility missing or out of range");
    }
  } else if (method == "snapshot_stats") {
    if (!result.HexAt("epoch").has_value()) {
      run->Fail("snapshot_stats: no pinned epoch");
    }
  }
}

}  // namespace

Repetition RunServeMixedTpch(const RunOptions& options, Tracer* tracer,
                             int rep_index, RunResult* result) {
  Repetition rep;
  rep.traced = tracer->enabled();
  const std::vector<PlannedRequest> plan =
      PlanSession(options.seed, options.small ? 3 : kRounds);
  const std::string socket_path =
      std::filesystem::proximate(std::filesystem::path(options.out_dir) /
                                 ("serve-" + std::to_string(::getpid()) +
                                  "-" + std::to_string(rep_index) + ".sock"))
          .string();

  // Request frames are encoded before anything is timed.
  std::vector<std::string> frames;
  for (size_t i = 0; i < plan.size(); ++i) {
    common::rpc::Request req;
    req.id = i + 1;
    req.method = plan[i].method;
    common::StatusOr<common::JsonValue> params =
        common::ParseJson(plan[i].params);
    if (!params.ok()) Fatal("bad planned params: " + plan[i].params);
    req.params = *std::move(params);
    frames.push_back(common::EncodeFrame(common::rpc::EncodeRequest(req)));
  }

  // Set-up: build the service, bind, start serving, connect every client
  // connection and receive each one's hello frame.
  const double setup_start = WallSeconds();
  std::unique_ptr<serve::ServeService> service;
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  common::Status server_status = common::Status::Ok();
  std::vector<Conn> conns(kConnections);
  {
    CountedSpan setup(tracer, "setup");
    {
      ScopedSpan span(tracer, "serve.create");
      serve::ServiceOptions sopt;
      sopt.schema = "tpch";
      sopt.seed = options.seed;
      common::StatusOr<std::unique_ptr<serve::ServeService>> created =
          serve::ServeService::Create(sopt);
      if (!created.ok()) Fatal(created.status().ToString());
      service = *std::move(created);
    }
    {
      ScopedSpan span(tracer, "serve.start");
      serve::ServerOptions sopt;
      sopt.socket_path = socket_path;
      server = std::make_unique<serve::Server>(service.get(), sopt);
      const common::Status started = server->Start();
      if (!started.ok()) Fatal(started.ToString());
      server_thread = std::thread([&] { server_status = server->Run(); });
    }
    ScopedSpan span(tracer, "serve.connect");
    for (Conn& conn : conns) {
      conn.fd = Connect(socket_path);
      if (!common::rpc::CheckHello(ReadOne(&conn), "trap-serve").ok()) {
        Fatal("bad hello frame");
      }
    }
  }
  rep.setup_s = WallSeconds() - setup_start;

  // The closed loop: a window's requests go out together, each on its
  // connection, and the next window starts once all of them answered.
  std::vector<double> sent_at(plan.size(), 0.0);
  std::vector<double> latency(plan.size(), -1.0);
  std::vector<uint64_t> payload_hash(plan.size(), 0);
  size_t next = 0;
  int64_t shed = 0;
  int64_t errors = 0;

  const std::vector<obs::MetricSample> before =
      obs::GlobalSnapshotWithDerived();
  const double cpu_start = CpuSeconds();
  const double start = WallSeconds();
  int root = -1;
  {
    CountedSpan session(tracer, "session");
    root = session.index();
    size_t pending = 0;
    while (next < plan.size() || pending > 0) {
      if (pending == 0) {
        for (const int window = plan[next].window;
             next < plan.size() && plan[next].window == window; ++next) {
          Conn& conn = conns[static_cast<size_t>(plan[next].conn)];
          sent_at[next] = WallSeconds();
          if (!SendAll(conn.fd, frames[next])) Fatal("send failed");
          conn.inflight = static_cast<int>(next);
          ++pending;
        }
      }
      std::vector<pollfd> fds;
      std::vector<Conn*> owners;
      for (Conn& conn : conns) {
        if (conn.inflight < 0) continue;
        fds.push_back(pollfd{conn.fd, POLLIN, 0});
        owners.push_back(&conn);
      }
      if (::poll(fds.data(), fds.size(), 30000) <= 0) {
        Fatal("no response within 30 s");
      }
      for (size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& conn = *owners[i];
        for (const std::string& payload : ReadFrames(&conn, true)) {
          const double now = WallSeconds();
          common::StatusOr<common::rpc::Response> resp =
              common::rpc::DecodeResponse(payload);
          if (!resp.ok() || resp->id == 0 || resp->id > plan.size() ||
              static_cast<int>(resp->id - 1) != conn.inflight) {
            Fatal("unexpected response: " + payload);
          }
          const size_t index = resp->id - 1;
          latency[index] = now - sent_at[index];
          payload_hash[index] = HashPayload(payload);
          tracer->Add("serve." + plan[index].method, sent_at[index], now,
                      resp->id);
          if (resp->status == common::StatusCode::kResourceExhausted) {
            ++shed;
          } else if (!resp->ok()) {
            ++errors;
            result->Fail(plan[index].method + " failed: " + resp->message);
          } else {
            CheckResult(plan[index].method, resp->result, result);
          }
          conn.inflight = -1;
          --pending;
        }
      }
    }
  }
  rep.unit_s = WallSeconds() - start;
  rep.cpu_s = CpuSeconds() - cpu_start;
  const std::vector<obs::MetricSample> after =
      obs::GlobalSnapshotWithDerived();

  // Shutdown: the server drains and Run() returns.
  {
    common::rpc::Request bye;
    bye.id = plan.size() + 1;
    bye.method = "shutdown";
    if (!SendAll(conns[0].fd,
                 common::EncodeFrame(common::rpc::EncodeRequest(bye)))) {
      Fatal("shutdown send failed");
    }
    ReadOne(&conns[0]);
    server_thread.join();
    for (Conn& conn : conns) ::close(conn.fd);
    server.reset();
    if (!server_status.ok()) {
      result->Fail("server: " + server_status.ToString());
    }
  }

  uint64_t digest = 0x5e27e0f1a9c4b386ull;
  for (uint64_t h : payload_hash) digest = common::HashCombine(digest, h);
  rep.digest = digest;
  rep.whatif_calls = SampleDelta(before, after, "trap.whatif.calls");
  rep.attempted = static_cast<int64_t>(plan.size());
  rep.failed = shed + errors;

  if (rep.traced) {
    FillCommonLayers(*tracer, before, after, &rep);
    rep.layers["trace.coverage_frac"] =
        tracer->CoveredFraction(root, [](const std::string& name) {
          return name.rfind("serve.", 0) == 0;
        });
    // The service never clears its what-if cache and inserts one entry per
    // miss, so its size equals the miss count.
    rep.layers["engine.cache_entries"] = static_cast<double>(
        SampleDelta(before, after, "trap.whatif.cache.misses"));
    rep.layers["serve.shed"] = static_cast<double>(shed);
    rep.layers["serve.errors"] = static_cast<double>(errors);
    rep.layers["serve.requests"] = static_cast<double>(plan.size());
    std::vector<double> all_ms;
    for (double l : latency) all_ms.push_back(l * 1e3);
    rep.layers["serve.latency_p50_ms"] = Percentile(all_ms, 50.0);
    rep.layers["serve.latency_p99_ms"] = Percentile(all_ms, 99.0);
    rep.layers["serve.latency_n"] = static_cast<double>(all_ms.size());
    rep.layers["serve.rps"] =
        rep.unit_s > 0.0 ? static_cast<double>(plan.size()) / rep.unit_s : 0.0;
    for (const char* method : kMethods) {
      std::vector<double> ms;
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].method == method) ms.push_back(latency[i] * 1e3);
      }
      rep.layers[std::string("serve.") + method + ".count"] =
          static_cast<double>(ms.size());
      rep.layers[std::string("serve.") + method + ".p50_ms"] = Median(ms);
    }
    std::vector<double> post_ms;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].post_publish) post_ms.push_back(latency[i] * 1e3);
    }
    rep.layers["serve.post_publish_p50_ms"] = Median(post_ms);
    rep.layers["serve.post_publish_n"] = static_cast<double>(post_ms.size());
  }
  return rep;
}

}  // namespace trap::perfbench
