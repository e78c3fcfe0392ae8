#ifndef TSE_DB_SNAPSHOT_H_
#define TSE_DB_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "db/backend.h"
#include "objmodel/value.h"
#include "view/view_schema.h"

namespace tse {

class Db;

/// A consistent, repeatable, read-only view of the database: one
/// (view-version, data-epoch) pair (DESIGN.md §13), and the embedded
/// tse::SnapshotHandle.
///
/// Every read is lock-free: it takes **no object locks** — reads
/// resolve against the store's MVCC version chains at the snapshot's
/// pinned epoch, so they never block on (and are never blocked by)
/// writers holding strict-2PL locks, and two reads of the same state
/// through one snapshot always agree no matter how much commits in
/// between. The only synchronization is the engine's brief shared
/// schema/data latches (which writers hold only for the in-memory
/// mutation itself, never across a lock wait or an fsync).
///
/// Obtain one from Session::GetSnapshot() (current epoch, session's
/// view version) or Db::OpenSnapshot / Db::OpenSnapshotAt. The epoch
/// stays live — the vacuum never trims versions a snapshot can reach —
/// until the Snapshot is destroyed, so treat snapshots as short-lived
/// read handles, not long-term cursors.
class Snapshot final : public SnapshotHandle {
 public:
  ~Snapshot() override;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  // --- Identity ---------------------------------------------------------

  /// The commit epoch this snapshot reads at.
  uint64_t epoch() const override { return epoch_; }
  std::string view_name() const override;
  ViewId view_id() const override;
  int view_version() const override;

  // --- Reads (lock-free, repeatable) ------------------------------------

  /// Resolves a display name in the snapshot's view to its global class.
  [[nodiscard]] Result<ClassId> Resolve(const std::string& display_name);

  /// Reads `path` (dotted reference navigation allowed; methods are
  /// evaluated with epoch-bound attribute reads) of `oid` in the context
  /// of view class `class_name`, as of the snapshot's epoch.
  [[nodiscard]] Result<objmodel::Value> Get(
      Oid oid, const std::string& class_name,
      const std::string& path) override;

  /// The extent of view class `class_name` as of the snapshot's epoch,
  /// in oid order. Derived fresh from the version chains, never
  /// aliasing the live extent cache.
  [[nodiscard]] Result<std::vector<Oid>> Extent(
      const std::string& class_name) override;

  /// Ad-hoc select: members of `class_name` (at the snapshot's epoch)
  /// satisfying `predicate_text` (objmodel::ParseExpr grammar, e.g.
  /// "age >= 30"). Always evaluates per object with epoch-bound reads —
  /// the planner's index and batch arms read live state only.
  [[nodiscard]] Result<std::vector<Oid>> Select(
      const std::string& class_name,
      const std::string& predicate_text) override;

 private:
  friend class Db;

  Snapshot(Db* db, const view::ViewSchema* view, uint64_t epoch);

  Db* db_;
  /// Stable pointer: ViewManager never erases registered versions.
  const view::ViewSchema* view_;
  uint64_t epoch_;
};

}  // namespace tse

#endif  // TSE_DB_SNAPSHOT_H_
