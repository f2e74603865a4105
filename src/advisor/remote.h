#ifndef TRAP_ADVISOR_REMOTE_H_
#define TRAP_ADVISOR_REMOTE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "common/json.h"
#include "common/subprocess.h"

namespace trap::advisor {

// JSON codecs for the domain types that cross the advisor RPC boundary
// (RemoteAdvisor below, and the serve runtime's session API). Encoders are
// total; decoders are defensive -- every field is checked and a malformed
// document yields kInvalidArgument, never an abort, because the peer is a
// separate process the protocol deliberately distrusts. Encode/Decode
// round-trips are exact: queries and configurations compare equal, and
// weights/statistics survive bit-for-bit (common::WriteJson prints doubles
// with %.17g).
common::JsonValue EncodeQuery(const sql::Query& q);
common::StatusOr<sql::Query> DecodeQuery(const common::JsonValue& v);

common::JsonValue EncodeWorkload(const workload::Workload& w);
common::StatusOr<workload::Workload> DecodeWorkload(
    const common::JsonValue& v);

common::JsonValue EncodeIndexConfig(const engine::IndexConfig& config);
common::StatusOr<engine::IndexConfig> DecodeIndexConfig(
    const common::JsonValue& v);

common::JsonValue EncodeConstraint(const TuningConstraint& constraint);
common::StatusOr<TuningConstraint> DecodeConstraint(
    const common::JsonValue& v);

// Configuration for an out-of-process advisor. `argv` launches the host
// process (typically `trap_serve --stdio`); `advisor` names the registry
// advisor the host should run for each request.
struct RemoteAdvisorOptions {
  std::vector<std::string> argv;
  std::string advisor = "Extend";
};

// An IndexAdvisor whose recommendations are computed by a separate process
// speaking the common::rpc envelope over length-prefixed frames on its
// stdio (the same transport as `trap_serve --stdio`). The
// child is spawned lazily on the first TryRecommend and reused across
// calls; it must send a `{"rpc":1,"hello":"trap-serve"}` handshake frame
// before serving requests, so protocol skew fails the very first call with
// kInvalidArgument instead of misparsing.
//
// Failure model: a dead, hung-up, or protocol-violating child surfaces as
// kUnavailable/kInvalidArgument from TryRecommend -- the standard advisor
// error contract, so RecommendWithRetry and the drift loop degrade it like
// any local advisor failure. The child is killed and reaped on any
// protocol violation; a later call respawns it.
class RemoteAdvisor : public IndexAdvisor {
 public:
  explicit RemoteAdvisor(RemoteAdvisorOptions options);
  ~RemoteAdvisor() override;

  std::string name() const override;

  common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const TuningConstraint& constraint,
      const common::EvalContext& ctx) override;

  // The child keeps its own state between requests (it may host MCTS).
  bool RecommendIsPure() const override { return false; }

 private:
  common::Status EnsureSpawned();
  void Teardown();

  RemoteAdvisorOptions options_;
  common::Subprocess child_;
  std::FILE* to_child_ = nullptr;    // child stdin (requests)
  std::FILE* from_child_ = nullptr;  // child stdout (hello + responses)
  std::uint64_t next_id_ = 0;
};

}  // namespace trap::advisor

#endif  // TRAP_ADVISOR_REMOTE_H_
