// Tests for the advisor-as-a-service runtime (src/serve): the wire codecs,
// the session API's epoch-pinning and deadline contracts (direct
// ServeService::Handle calls), and the socket server's admission control,
// malformed-frame isolation, and scripted-session determinism (spawning the
// real trap_serve binary, TRAP_SERVE_BIN, injected by CMake).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/deadline.h"
#include "common/frame.h"
#include "common/json.h"
#include "common/rpc.h"
#include "common/subprocess.h"
#include "engine/what_if.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "sql/vocabulary.h"
#include "workload/generator.h"

namespace trap::serve {
namespace {

using common::JsonValue;
using common::StatusCode;
namespace rpc = common::rpc;

// ---------------------------------------------------------------------------
// Wire codecs.

JsonValue Params(const std::string& text) {
  common::StatusOr<JsonValue> v = common::ParseJson(text);
  TRAP_CHECK(v.ok());
  return *std::move(v);
}

catalog::StatsOverlay SampleOverlay() {
  catalog::StatsOverlay overlay;
  catalog::ColumnStats stats;
  stats.num_distinct = 500;
  stats.min_value = -2.5;
  stats.max_value = 1e9;
  stats.skew = 0.75;
  overlay.SetColumnStats(catalog::ColumnId{0, 1}, stats);
  overlay.SetTableRows(2, 900000);
  catalog::Table added;
  added.name = "audit_log";
  added.num_rows = 12345;
  catalog::Column c;
  c.name = "event_id";
  c.type = catalog::ColumnType::kInt;
  c.width_bytes = 8;
  c.num_distinct = 12345;
  c.min_value = 0.0;
  c.max_value = 12344.0;
  c.skew = 0.1;
  added.columns.push_back(c);
  overlay.AddTable(added);
  return overlay;
}

TEST(WireTest, OverlayRoundTripPreservesFingerprint) {
  const catalog::StatsOverlay overlay = SampleOverlay();
  ASSERT_NE(overlay.Fingerprint(), 0u);

  // Through the full wire: encode, serialize, reparse, decode.
  const std::string text = common::WriteJson(EncodeStatsOverlay(overlay));
  common::StatusOr<JsonValue> parsed = common::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  common::StatusOr<catalog::StatsOverlay> decoded =
      DecodeStatsOverlay(*parsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Fingerprint(), overlay.Fingerprint());

  // The empty overlay is the base epoch on both sides of the wire.
  common::StatusOr<catalog::StatsOverlay> empty =
      DecodeStatsOverlay(EncodeStatsOverlay(catalog::StatsOverlay{}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->Fingerprint(), 0u);
}

TEST(WireTest, DecodeRejectsMalformedOverlays) {
  const char* bad[] = {
      "{}",                                                   // no sections
      "[1,2]",                                                // not an object
      "{\"column_stats\":[{\"col\":[0],\"stats\":{}}],"       // 1-entry col
      "\"table_rows\":[],\"added_tables\":[]}",
      "{\"column_stats\":[{\"col\":[0,0],"
      "\"stats\":{\"ndv\":0,\"min\":0,\"max\":1,\"skew\":0}}],"  // ndv < 1
      "\"table_rows\":[],\"added_tables\":[]}",
      "{\"column_stats\":[],\"table_rows\":[{\"table\":-1,\"rows\":5}],"
      "\"added_tables\":[]}",                                 // bad table
      "{\"column_stats\":[],\"table_rows\":[],"
      "\"added_tables\":[{\"name\":\"t\",\"rows\":1}]}",      // no columns
  };
  for (const char* text : bad) {
    common::StatusOr<JsonValue> parsed = common::ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    common::StatusOr<catalog::StatsOverlay> decoded =
        DecodeStatsOverlay(*parsed);
    EXPECT_FALSE(decoded.ok()) << text;
  }
}

// A workload exercising every query field the codec carries, with weights
// that have no short decimal form.
workload::Workload SampleWorkload(const catalog::Schema& schema,
                                  const sql::Vocabulary& vocab) {
  workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  workload::QueryGenerator gen(vocab, gopt, 1);
  workload::Workload w;
  std::vector<sql::Query> pool = gen.GeneratePool(6);
  for (size_t i = 0; i < pool.size(); ++i) {
    const double weight = 1.0 / 3.0 + 0.1 * static_cast<double>(i);
    w.queries.push_back(workload::WorkloadQuery{std::move(pool[i]), weight});
  }
  // Every enum at its largest value, grouping and ordering, and a literal
  // that %g at default precision would round.
  const catalog::ColumnId a{2, 5};  // supplier.s_acctbal, a double
  const catalog::ColumnId b{2, 1};  // supplier.s_name, a string
  sql::Query q;
  q.select = {{sql::AggFunc::kMax, a}, {sql::AggFunc::kNone, b}};
  q.tables = {2};
  q.filters = {{a, sql::CmpOp::kGe, sql::Value::Double(0.1 + 0.2)},
               {b, sql::CmpOp::kNe, sql::Value::StringCode(3)}};
  q.conjunction = sql::Conjunction::kOr;
  q.group_by = {b};
  q.order_by = {b, a};
  std::string error;
  EXPECT_TRUE(sql::ValidateQuery(q, schema, &error)) << error;
  w.queries.push_back(workload::WorkloadQuery{std::move(q), 1e-7});
  return w;
}

// Encode, serialize, reparse: the path every shipped document takes.
JsonValue ThroughText(const JsonValue& v) {
  common::StatusOr<JsonValue> parsed = common::ParseJson(common::WriteJson(v));
  TRAP_CHECK(parsed.ok());
  return *std::move(parsed);
}

TEST(WireTest, DomainCodecsRoundTripExactly) {
  const catalog::Schema schema = catalog::MakeTpcH();
  sql::Vocabulary vocab(schema, 8);
  const workload::Workload w = SampleWorkload(schema, vocab);

  common::StatusOr<sql::Query> query =
      DecodeQuery(ThroughText(EncodeQuery(w.queries.back().query)));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(*query, w.queries.back().query);

  common::StatusOr<workload::Workload> workload =
      DecodeWorkload(ThroughText(EncodeWorkload(w)));
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->size(), w.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_EQ(workload->queries[i].query, w.queries[i].query) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(workload->queries[i].weight),
              std::bit_cast<std::uint64_t>(w.queries[i].weight))
        << i;
  }

  const engine::IndexConfig config(
      {engine::Index{{{0, 1}}}, engine::Index{{{2, 0}, {2, 3}, {2, 1}}}});
  common::StatusOr<engine::IndexConfig> decoded_config =
      DecodeIndexConfig(ThroughText(EncodeIndexConfig(config)));
  ASSERT_TRUE(decoded_config.ok()) << decoded_config.status().ToString();
  EXPECT_EQ(*decoded_config, config);
  common::StatusOr<engine::IndexConfig> empty_config =
      DecodeIndexConfig(ThroughText(EncodeIndexConfig({})));
  ASSERT_TRUE(empty_config.ok());
  EXPECT_TRUE(empty_config->empty());

  for (const advisor::TuningConstraint& c :
       {advisor::TuningConstraint::Storage(schema.DataSizeBytes() / 3),
        advisor::TuningConstraint::IndexCount(5, std::int64_t{1} << 52)}) {
    common::StatusOr<advisor::TuningConstraint> decoded =
        DecodeConstraint(ThroughText(EncodeConstraint(c)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->storage_budget_bytes, c.storage_budget_bytes);
    EXPECT_EQ(decoded->max_indexes, c.max_indexes);
  }
}

TEST(WireTest, DecodeRejectsMalformedDomainDocuments) {
  using Decoder = common::Status (*)(const JsonValue&);
  const Decoder query = [](const JsonValue& v) {
    return DecodeQuery(v).status();
  };
  const Decoder workload = [](const JsonValue& v) {
    return DecodeWorkload(v).status();
  };
  const Decoder config = [](const JsonValue& v) {
    return DecodeIndexConfig(v).status();
  };
  const Decoder constraint = [](const JsonValue& v) {
    return DecodeConstraint(v).status();
  };
  // A well-formed query document, edited below into malformed ones.
  const std::string q =
      "{\"select\":[{\"agg\":0,\"col\":[0,1]}],\"tables\":[0],\"joins\":[],"
      "\"filters\":[],\"conj\":0,\"group_by\":[],\"order_by\":[]}";
  ASSERT_TRUE(query(Params(q)).ok());
  const struct {
    Decoder decode;
    std::string text;
  } bad[] = {
      // Not an object.
      {query, "[1,2]"},
      {workload, "\"w\""},
      {config, "[]"},
      {constraint, "7"},
      // A missing field.
      {query, "{\"select\":[],\"tables\":[0],\"joins\":[],\"filters\":[],"
              "\"conj\":0,\"group_by\":[]}"},
      {workload, "{\"queries\":[{\"query\":" + q + "}]}"},
      {workload, "{}"},
      {config, "{\"indexes\":[{}]}"},
      {constraint, "{\"max_indexes\":3}"},
      // Out-of-range column ids and enums.
      {query, "{\"select\":[{\"agg\":0,\"col\":[-1,1]}],\"tables\":[0],"
              "\"joins\":[],\"filters\":[],\"conj\":0,\"group_by\":[],"
              "\"order_by\":[]}"},
      {query, "{\"select\":[{\"agg\":0,\"col\":[0,1e12]}],\"tables\":[0],"
              "\"joins\":[],\"filters\":[],\"conj\":0,\"group_by\":[],"
              "\"order_by\":[]}"},
      {query, "{\"select\":[{\"agg\":6,\"col\":[0,1]}],\"tables\":[0],"
              "\"joins\":[],\"filters\":[],\"conj\":0,\"group_by\":[],"
              "\"order_by\":[]}"},
      {config, "{\"indexes\":[{\"columns\":[[0,0.5]]}]}"},
      {config, "{\"indexes\":[{\"columns\":[[0,1],[1,1]]}]}"},
      // Negative budgets, and index counts above INT_MAX.
      {constraint, "{\"storage_budget_bytes\":-1,\"max_indexes\":0}"},
      {constraint, "{\"storage_budget_bytes\":100,\"max_indexes\":-2}"},
      {constraint, "{\"storage_budget_bytes\":0,\"max_indexes\":4294967297}"},
      {constraint, "{\"storage_budget_bytes\":0,\"max_indexes\":2147483648}"},
  };
  for (const auto& [decode, text] : bad) {
    EXPECT_EQ(decode(Params(text)).code(), StatusCode::kInvalidArgument)
        << text;
  }
}

// ---------------------------------------------------------------------------
// Session API (direct Handle calls -- no socket).

rpc::Response Call(ServeService* svc,
                   const std::shared_ptr<const catalog::Snapshot>& snap,
                   std::uint64_t id, const std::string& method,
                   const std::string& params_text = "") {
  rpc::Request req;
  req.id = id;
  req.method = method;
  if (!params_text.empty()) req.params = Params(params_text);
  return svc->Handle(req, snap);
}

std::unique_ptr<ServeService> MakeService() {
  ServiceOptions options;
  common::StatusOr<std::unique_ptr<ServeService>> svc =
      ServeService::Create(options);
  TRAP_CHECK(svc.ok());
  return *std::move(svc);
}

TEST(ServiceTest, HealthReportsPinnedEpoch) {
  std::unique_ptr<ServeService> svc = MakeService();
  rpc::Response resp =
      Call(svc.get(), svc->snapshots().Current(), 1, "health");
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.result.StringAt("schema"), "tpch");
  EXPECT_EQ(resp.result.HexAt("epoch"), 0u);
  EXPECT_EQ(resp.result.IntAt("publications"), 0);
  EXPECT_EQ(resp.result.IntAt("requests_handled"), 1);
}

TEST(ServiceTest, CreateRejectsUnknownSchema) {
  ServiceOptions options;
  options.schema = "nosuch";
  EXPECT_FALSE(ServeService::Create(options).ok());
}

// The core snapshot-isolation contract: a request that pinned its epoch
// before a publish keeps evaluating under that epoch, bit-for-bit, however
// many epochs are published meanwhile.
TEST(ServiceTest, PinnedEpochSurvivesMidSessionPublish) {
  std::unique_ptr<ServeService> svc = MakeService();
  const std::string whatif =
      "{\"workload_seed\":1,\"workload_size\":4,"
      "\"configs\":[{\"indexes\":[]}]}";

  std::shared_ptr<const catalog::Snapshot> pinned =
      svc->snapshots().Current();
  rpc::Response before = Call(svc.get(), pinned, 1, "whatif_batch", whatif);
  ASSERT_TRUE(before.ok()) << before.message;
  const double base_cost = before.result.Find("costs")->items[0].number_value;

  // Publish a shifted epoch *while the old pin is still held*. The
  // publishing request itself was admitted under the base pin: its reported
  // evaluation epoch stays base even though it published a new one.
  const std::string publish =
      "{\"publish\":" + common::WriteJson(EncodeStatsOverlay(SampleOverlay())) +
      "}";
  rpc::Response pub = Call(svc.get(), pinned, 2, "snapshot_stats", publish);
  ASSERT_TRUE(pub.ok()) << pub.message;
  EXPECT_EQ(pub.result.HexAt("epoch"), 0u);
  EXPECT_EQ(pub.result.HexAt("published_epoch"), SampleOverlay().Fingerprint());
  EXPECT_EQ(svc->snapshots().Current()->epoch(), SampleOverlay().Fingerprint());

  // The old pin still answers under the base epoch, identically.
  rpc::Response after = Call(svc.get(), pinned, 3, "whatif_batch", whatif);
  ASSERT_TRUE(after.ok()) << after.message;
  EXPECT_EQ(after.result.Find("costs")->items[0].number_value, base_cost);
  EXPECT_EQ(after.result.HexAt("epoch"), 0u);

  // A request pinning the new epoch sees shifted statistics.
  rpc::Response shifted = Call(svc.get(), svc->snapshots().Current(), 4,
                               "whatif_batch", whatif);
  ASSERT_TRUE(shifted.ok()) << shifted.message;
  EXPECT_NE(shifted.result.Find("costs")->items[0].number_value, base_cost);
  EXPECT_EQ(shifted.result.HexAt("epoch"), SampleOverlay().Fingerprint());

  // Reset re-publishes the base; a fresh pin evaluates like the first call.
  rpc::Response reset =
      Call(svc.get(), svc->snapshots().Current(), 5, "snapshot_stats",
           "{\"reset\":true}");
  ASSERT_TRUE(reset.ok()) << reset.message;
  rpc::Response again = Call(svc.get(), svc->snapshots().Current(), 6,
                             "whatif_batch", whatif);
  ASSERT_TRUE(again.ok()) << again.message;
  EXPECT_EQ(again.result.Find("costs")->items[0].number_value, base_cost);
}

TEST(ServiceTest, StepBudgetDeadlineSurfacesAsErrorResponse) {
  std::unique_ptr<ServeService> svc = MakeService();
  rpc::Response resp =
      Call(svc.get(), svc->snapshots().Current(), 1, "whatif_batch",
           "{\"workload_seed\":1,\"workload_size\":4,"
           "\"configs\":[{\"indexes\":[]}],\"step_budget\":1}");
  EXPECT_EQ(resp.status, StatusCode::kDeadlineExceeded) << resp.message;
}

TEST(ServiceTest, RejectsUnservableInputWithoutAborting) {
  std::unique_ptr<ServeService> svc = MakeService();
  std::shared_ptr<const catalog::Snapshot> snap = svc->snapshots().Current();

  EXPECT_EQ(Call(svc.get(), snap, 1, "nosuch_method").status,
            StatusCode::kInvalidArgument);
  // Learning advisors need training state a stateless service cannot hold.
  EXPECT_EQ(Call(svc.get(), snap, 2, "advise", "{\"advisor\":\"SWIRL\"}")
                .status,
            StatusCode::kInvalidArgument);
  // Unknown advisor names are rejected by the registry.
  EXPECT_EQ(Call(svc.get(), snap, 2, "advise", "{\"advisor\":\"Remote\"}")
                .status,
            StatusCode::kInvalidArgument);
  // whatif_batch without configurations has nothing to cost.
  EXPECT_EQ(Call(svc.get(), snap, 3, "whatif_batch",
                 "{\"workload_seed\":1,\"workload_size\":2,\"configs\":[]}")
                .status,
            StatusCode::kInvalidArgument);
  // A publish naming a column outside the base schema must be rejected
  // before SnapshotManager ever sees it (overlay Apply aborts on it).
  EXPECT_EQ(Call(svc.get(), snap, 4, "snapshot_stats",
                 "{\"publish\":{\"column_stats\":[{\"col\":[99,0],"
                 "\"stats\":{\"ndv\":5,\"min\":0,\"max\":1,\"skew\":0}}],"
                 "\"table_rows\":[],\"added_tables\":[]}}")
                .status,
            StatusCode::kInvalidArgument);
  // All four were answered, none published, and the service still serves.
  EXPECT_EQ(svc->snapshots().publications(), 0u);
  EXPECT_TRUE(Call(svc.get(), snap, 5, "health").ok());
}

// whatif_batch range-checks every config against the pinned epoch's schema:
// a column outside it is refused instead of costed as the no-index plan,
// and a column of a table the pinned epoch added is accepted.
TEST(ServiceTest, WhatIfBatchRejectsConfigColumnsOutsideTheSchema) {
  std::unique_ptr<ServeService> svc = MakeService();
  const auto whatif = [](const std::string& columns) {
    return "{\"workload_seed\":1,\"workload_size\":4,\"configs\":[{\"indexes\":"
           "[]},{\"indexes\":[{\"columns\":" +
           columns + "}]}]}";
  };
  const std::string added =
      "[[" + std::to_string(catalog::MakeTpcH().num_tables()) + ",0]]";
  std::shared_ptr<const catalog::Snapshot> base = svc->snapshots().Current();
  for (const std::string& columns : {std::string("[[99,0]]"),
                                     std::string("[[0,99]]"), added}) {
    EXPECT_EQ(Call(svc.get(), base, 1, "whatif_batch", whatif(columns)).status,
              StatusCode::kInvalidArgument)
        << columns;
  }

  const std::string publish =
      "{\"publish\":" + common::WriteJson(EncodeStatsOverlay(SampleOverlay())) +
      "}";
  ASSERT_TRUE(Call(svc.get(), base, 2, "snapshot_stats", publish).ok());
  rpc::Response resp = Call(svc.get(), svc->snapshots().Current(), 3,
                            "whatif_batch", whatif(added));
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.result.Find("costs")->items.size(), 2u);
}

// An integer param that is present but not an integral number in int64
// range is INVALID_ARGUMENT on all six reads; it is never answered as if it
// were absent. Absent params keep their defaults, and a negative seed still
// means the service's own seed.
TEST(ServiceTest, RejectsPresentButNonIntegerParams) {
  std::unique_ptr<ServeService> svc = MakeService();
  std::shared_ptr<const catalog::Snapshot> snap = svc->snapshots().Current();
  const struct {
    std::string method;
    std::string rest;  // valid params without `key`, missing the closing }
    std::string key;
  } cases[] = {
      {"advise", "{\"workload_size\":2", "workload_seed"},
      {"advise", "{\"workload_seed\":2", "workload_size"},
      {"whatif_batch",
       "{\"workload_size\":2,\"configs\":[{\"indexes\":[]}]", "step_budget"},
      {"drift_replay", "{\"workload_size\":2,\"episodes\":2", "seed"},
      {"drift_replay", "{\"workload_size\":2", "episodes"},
      {"drift_replay", "{\"workload_size\":2,\"episodes\":2",
       "episode_step_budget"},
  };
  for (const auto& [method, rest, key] : cases) {
    rpc::Response absent = Call(svc.get(), snap, 1, method, rest + "}");
    EXPECT_TRUE(absent.ok()) << method << " " << rest << ": " << absent.message;
    for (const char* bad : {"1.5", "-1e300", "\"4\""}) {
      const std::string params = rest + ",\"" + key + "\":" + bad + "}";
      EXPECT_EQ(Call(svc.get(), snap, 2, method, params).status,
                StatusCode::kInvalidArgument)
          << method << " " << params;
    }
  }

  rpc::Response seeded = Call(svc.get(), snap, 3, "advise",
                              "{\"workload_size\":2,\"workload_seed\":-5}");
  rpc::Response unseeded =
      Call(svc.get(), snap, 4, "advise", "{\"workload_size\":2}");
  ASSERT_TRUE(seeded.ok()) << seeded.message;
  ASSERT_TRUE(unseeded.ok()) << unseeded.message;
  EXPECT_EQ(common::WriteJson(*seeded.result.Find("config")),
            common::WriteJson(*unseeded.result.Find("config")));
}

// An advise call that ships its workload and constraint gets exactly the
// configuration in-process Extend computes for them: the workload, the
// constraint and the returned config all cross the wire codecs.
TEST(ServiceTest, AdviseShippedWorkloadMatchesInProcessExtend) {
  std::unique_ptr<ServeService> svc = MakeService();
  const catalog::Schema schema = catalog::MakeTpcH();
  sql::Vocabulary vocab(schema, 8);
  const workload::Workload w = SampleWorkload(schema, vocab);
  // Not the service's default budget (half the data), so a constraint the
  // codec dropped would show.
  const advisor::TuningConstraint constraint =
      advisor::TuningConstraint::Storage(schema.DataSizeBytes() / 5);

  JsonValue params = JsonValue::Object();
  params.Set("advisor", JsonValue::Str("Extend"));
  params.Set("workload", EncodeWorkload(w));
  params.Set("constraint", EncodeConstraint(constraint));
  rpc::Response resp = Call(svc.get(), svc->snapshots().Current(), 1,
                            "advise", common::WriteJson(params));
  ASSERT_TRUE(resp.ok()) << resp.message;
  const JsonValue* config_doc = resp.result.Find("config");
  ASSERT_NE(config_doc, nullptr);
  common::StatusOr<engine::IndexConfig> served = DecodeIndexConfig(*config_doc);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  engine::WhatIfOptimizer optimizer(schema);
  common::StatusOr<std::unique_ptr<advisor::IndexAdvisor>> local =
      advisor::MakeAdvisor("Extend", optimizer);
  ASSERT_TRUE(local.ok());
  common::StatusOr<engine::IndexConfig> direct =
      (*local)->TryRecommend(w, constraint, common::EvalContext{});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(*served, *direct);
  EXPECT_FALSE(direct->indexes().empty());
}

// ---------------------------------------------------------------------------
// Socket server (spawns the real trap_serve binary).

std::string ServeBinary() {
#ifdef TRAP_SERVE_BIN
  return TRAP_SERVE_BIN;
#else
  return "";
#endif
}

void SleepMs(int ms) {
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
}

// A raw frame-speaking client over a Unix-domain socket.
struct TestClient {
  int fd = -1;
  common::FrameDecoder decoder;

  ~TestClient() {
    if (fd >= 0) close(fd);
  }

  bool ReadFrame(std::string* payload) {
    std::string error;
    while (true) {
      switch (decoder.Next(payload, &error)) {
        case common::FrameDecoder::Result::kFrame:
          return true;
        case common::FrameDecoder::Result::kMalformed:
          return false;
        case common::FrameDecoder::Result::kNeedMore:
          break;
      }
      char buf[4096];
      const ssize_t n = read(fd, buf, sizeof buf);
      if (n <= 0) return false;
      decoder.Append(buf, static_cast<std::size_t>(n));
    }
  }

  bool SendRaw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool SendRequest(std::uint64_t id, const std::string& method,
                   const std::string& params_text = "") {
    rpc::Request req;
    req.id = id;
    req.method = method;
    if (!params_text.empty()) req.params = Params(params_text);
    return SendRaw(common::EncodeFrame(rpc::EncodeRequest(req)));
  }
};

// Connects to `path`, retrying while the spawned server binds, and
// validates the trap-serve hello frame.
bool ConnectClient(const std::string& path, TestClient* client) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      close(fd);
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      client->fd = fd;
      std::string hello;
      return client->ReadFrame(&hello) &&
             rpc::CheckHello(hello, "trap-serve").ok();
    }
    close(fd);
    SleepMs(20);
  }
  return false;
}

struct SpawnedServer {
  common::Subprocess proc;
  std::string socket_path;

  ~SpawnedServer() {
    if (proc.running()) {
      common::Kill(&proc);
      common::Reap(&proc);
    }
    common::ClosePipes(&proc);
    unlink(socket_path.c_str());
  }
};

bool SpawnServer(const std::string& extra_flag, const std::string& extra_value,
                 SpawnedServer* server) {
  server->socket_path = "/tmp/trap_serve_test." +
                        std::to_string(getpid()) + "." + extra_value + ".sock";
  std::vector<std::string> argv = {ServeBinary(), "--listen",
                                   server->socket_path, "--seed", "1"};
  if (!extra_flag.empty()) {
    argv.push_back(extra_flag);
    argv.push_back(extra_value);
  }
  common::StatusOr<common::Subprocess> proc = common::SpawnWithPipes(argv);
  if (!proc.ok()) return false;
  server->proc = *proc;
  return true;
}

void ShutdownServer(SpawnedServer* server, TestClient* client,
                    std::uint64_t id) {
  ASSERT_TRUE(client->SendRequest(id, "shutdown"));
  std::string payload;
  ASSERT_TRUE(client->ReadFrame(&payload));
  const int code = common::Reap(&server->proc);
  EXPECT_EQ(code, 0);
}

// Admission control: a burst past --max-inflight is shed with
// RESOURCE_EXHAUSTED and a retry hint, never silently dropped -- and the
// shed requests succeed when resent after the queue drains. How the kernel
// chunks the burst across reads decides the exact shed count, so the test
// asserts the semantic invariants, not a count.
TEST(ServerTest, ShedsPastAdmissionBoundAndRetrySucceeds) {
  ASSERT_FALSE(ServeBinary().empty());
  SpawnedServer server;
  ASSERT_TRUE(SpawnServer("--max-inflight", "1", &server));
  TestClient client;
  ASSERT_TRUE(ConnectClient(server.socket_path, &client));

  int shed = 0;
  int ok = 0;
  std::vector<std::uint64_t> shed_ids;
  constexpr int kBurst = 16;
  std::uint64_t next_id = 1;
  // A few attempts: the burst is one send(), so the server almost always
  // decodes several frames from one read and must shed past the bound; if
  // the kernel happens to trickle the bytes, try again.
  for (int attempt = 0; attempt < 8 && shed == 0; ++attempt) {
    // An advise first keeps the server busy while the rest of the burst
    // accumulates in the socket buffer.
    std::string burst;
    {
      rpc::Request req;
      req.id = next_id++;
      req.method = "advise";
      req.params = Params("{\"workload_seed\":1,\"workload_size\":4}");
      burst += common::EncodeFrame(rpc::EncodeRequest(req));
    }
    for (int i = 1; i < kBurst; ++i) {
      rpc::Request req;
      req.id = next_id++;
      req.method = "health";
      burst += common::EncodeFrame(rpc::EncodeRequest(req));
    }
    ASSERT_TRUE(client.SendRaw(burst));
    for (int i = 0; i < kBurst; ++i) {
      std::string payload;
      ASSERT_TRUE(client.ReadFrame(&payload));
      common::StatusOr<rpc::Response> resp = rpc::DecodeResponse(payload);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      if (resp->status == StatusCode::kResourceExhausted) {
        ++shed;
        shed_ids.push_back(resp->id);
        // Every shed carries the retry hint.
        EXPECT_TRUE(resp->result.IntAt("retry_after_requests").has_value());
      } else {
        ASSERT_TRUE(resp->ok()) << resp->message;
        ++ok;
      }
    }
    ASSERT_EQ(shed + ok, kBurst * (attempt + 1));
  }
  ASSERT_GE(shed, 1);
  ASSERT_GE(ok, 1);

  // Shed work is retryable: resent one at a time, every request succeeds.
  for (std::uint64_t id : shed_ids) {
    ASSERT_TRUE(client.SendRequest(id, "health"));
    std::string payload;
    ASSERT_TRUE(client.ReadFrame(&payload));
    common::StatusOr<rpc::Response> resp = rpc::DecodeResponse(payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->id, id);
    EXPECT_TRUE(resp->ok()) << resp->message;
  }
  ShutdownServer(&server, &client, next_id);
}

// A malformed frame poisons only its own connection: the server answers
// id 0 / INVALID_ARGUMENT, closes that connection, and keeps serving
// others.
TEST(ServerTest, MalformedFrameGetsErrorThenCloseWithoutKillingServer) {
  ASSERT_FALSE(ServeBinary().empty());
  SpawnedServer server;
  ASSERT_TRUE(SpawnServer("", "malformed", &server));
  TestClient bad;
  ASSERT_TRUE(ConnectClient(server.socket_path, &bad));
  ASSERT_TRUE(bad.SendRaw("this is not a frame\n"));
  std::string payload;
  ASSERT_TRUE(bad.ReadFrame(&payload));
  common::StatusOr<rpc::Response> resp = rpc::DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->id, 0u);
  EXPECT_EQ(resp->status, StatusCode::kInvalidArgument);
  // The poisoned connection is closed...
  char byte;
  EXPECT_EQ(read(bad.fd, &byte, 1), 0);

  // ...and a fresh connection still gets service.
  TestClient good;
  ASSERT_TRUE(ConnectClient(server.socket_path, &good));
  ASSERT_TRUE(good.SendRequest(1, "health"));
  ASSERT_TRUE(good.ReadFrame(&payload));
  common::StatusOr<rpc::Response> health = rpc::DecodeResponse(payload);
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ok()) << health->message;
  ShutdownServer(&server, &good, 2);
}

}  // namespace
}  // namespace trap::serve
