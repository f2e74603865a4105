#ifndef TRAP_SERVE_WIRE_H_
#define TRAP_SERVE_WIRE_H_

#include "advisor/advisor.h"
#include "catalog/stats_overlay.h"
#include "common/json.h"

namespace trap::serve {

// JSON codecs for the domain types of the session API. Encoders are total;
// decoders are defensive -- every field is checked and a malformed document
// yields kInvalidArgument, never an abort, because the client is a separate
// process the server deliberately distrusts. Encode/Decode round-trips are
// exact: queries and configurations compare equal, and weights/statistics
// survive bit-for-bit (common::WriteJson prints doubles with %.17g).
common::JsonValue EncodeQuery(const sql::Query& q);
common::StatusOr<sql::Query> DecodeQuery(const common::JsonValue& v);

common::JsonValue EncodeWorkload(const workload::Workload& w);
common::StatusOr<workload::Workload> DecodeWorkload(
    const common::JsonValue& v);

common::JsonValue EncodeIndexConfig(const engine::IndexConfig& config);
common::StatusOr<engine::IndexConfig> DecodeIndexConfig(
    const common::JsonValue& v);

common::JsonValue EncodeConstraint(const advisor::TuningConstraint& constraint);
common::StatusOr<advisor::TuningConstraint> DecodeConstraint(
    const common::JsonValue& v);

// Catalog-overlay codec for the snapshot_stats method: a client publishes a
// new stats epoch by shipping the overlay content, the server rebuilds it
// and hands it to catalog::SnapshotManager::Publish. Round-trips preserve
// the overlay fingerprint bit-for-bit, so the epoch a client computes
// locally matches the epoch the server publishes.
common::JsonValue EncodeStatsOverlay(const catalog::StatsOverlay& overlay);
common::StatusOr<catalog::StatsOverlay> DecodeStatsOverlay(
    const common::JsonValue& v);

}  // namespace trap::serve

#endif  // TRAP_SERVE_WIRE_H_
