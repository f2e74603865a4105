#ifndef TRAP_CATALOG_SNAPSHOT_H_
#define TRAP_CATALOG_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "catalog/schema.h"
#include "catalog/stats_overlay.h"

namespace trap::catalog {

// An immutable, fingerprinted catalog snapshot: the frozen base schema plus
// a statistics overlay describing how the data looks *now*. A Snapshot is
// the unit of catalog state every evaluation entry point reads from --
// carried on common::EvalContext, never installed into shared mutable
// state -- so two in-flight evaluations can cost against different stats
// epochs concurrently and neither can observe a torn update.
//
// The snapshot deliberately does not materialize the shifted schema; the
// engine's StatsEpochRegistry does that once per distinct epoch and caches
// the result, keyed by epoch(). epoch() is the overlay content fingerprint
// (0 = the unshifted base), which the what-if shape cache folds into its
// keys so cross-epoch estimates never alias.
class Snapshot {
 public:
  // The base snapshot: no overlay, epoch 0. `base` is borrowed and must
  // outlive the snapshot.
  explicit Snapshot(const Schema& base) : base_(&base) {}

  // A shifted snapshot. epoch() == overlay.Fingerprint(), so equal overlay
  // content always lands in the same epoch regardless of who built it.
  Snapshot(const Schema& base, StatsOverlay overlay)
      : base_(&base),
        overlay_(std::move(overlay)),
        epoch_(overlay_.Fingerprint()) {}

  const Schema& base_schema() const { return *base_; }
  const StatsOverlay& overlay() const { return overlay_; }
  uint64_t epoch() const { return epoch_; }
  bool is_base() const { return epoch_ == 0; }

 private:
  const Schema* base_;
  StatsOverlay overlay_;
  uint64_t epoch_ = 0;
};

// Publishes snapshots atomically for long-running processes (the serve
// runtime): writers build a whole new Snapshot and swap it in under a
// mutex; readers pin the current one via shared_ptr and keep evaluating
// against it for as long as they hold the pin, however many epochs are
// published meanwhile. There is no in-place mutation anywhere, so a torn
// read is structurally impossible.
class SnapshotManager {
 public:
  explicit SnapshotManager(const Schema& base);

  // The currently published snapshot; never null. Holding the returned
  // shared_ptr pins that epoch.
  std::shared_ptr<const Snapshot> Current() const;

  // Makes `overlay` the published snapshot. An empty overlay publishes the
  // base snapshot. Returns the newly published snapshot.
  std::shared_ptr<const Snapshot> Publish(StatsOverlay overlay);

  // Re-publishes the base snapshot.
  std::shared_ptr<const Snapshot> ResetToBase();

  // Number of Publish/ResetToBase calls so far (0 right after
  // construction). Deterministic bookkeeping for health endpoints.
  uint64_t publications() const;

 private:
  const Schema* base_;
  std::shared_ptr<const Snapshot> base_snapshot_;
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;  // guarded by mu_
  uint64_t publications_ = 0;                // guarded by mu_
};

}  // namespace trap::catalog

#endif  // TRAP_CATALOG_SNAPSHOT_H_
