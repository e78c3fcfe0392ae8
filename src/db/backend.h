#ifndef TSE_DB_BACKEND_H_
#define TSE_DB_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "objmodel/value.h"
#include "schema/property.h"
#include "update/update_engine.h"
#include "view/view_manager.h"

namespace tse {

class Db;
class Client;

/// The normalized read contract shared by every handle that can answer
/// reads — live backends (Session, Client, Cluster) and pinned
/// snapshots alike. Same signatures, same Status/Result
/// conventions everywhere: (oid, view-class display name, attr/path),
/// value-returning, [[nodiscard]].
class ReadSurface {
 public:
  virtual ~ReadSurface() = default;

  /// Reads `path` (dotted reference navigation allowed) of `oid` in the
  /// context of view class `class_name`.
  [[nodiscard]] virtual Result<objmodel::Value> Get(
      Oid oid, const std::string& class_name, const std::string& path) = 0;

  /// Reads one direct attribute. Defaults to Get, which reads the same
  /// value for a path of one attribute.
  [[nodiscard]] virtual Result<objmodel::Value> GetAttr(
      Oid oid, const std::string& class_name, const std::string& attr) {
    return Get(oid, class_name, attr);
  }

  /// The extent of view class `class_name`, materialized as oids.
  [[nodiscard]] virtual Result<std::vector<Oid>> Extent(
      const std::string& class_name) = 0;

  /// Members of `class_name` satisfying `predicate_text` ("age >= 30").
  [[nodiscard]] virtual Result<std::vector<Oid>> Select(
      const std::string& class_name, const std::string& predicate_text) = 0;
};

/// A pinned, repeatable MVCC snapshot behind the normalized read
/// contract, implemented by tse::Snapshot (embedded),
/// tse::Client::Snapshot (remote) and the cluster's per-shard union.
/// Release it by destroying the handle; it must not outlive the Backend
/// it came from. Against a cluster the snapshot is per-shard
/// consistent: each shard pins its own (view-version, data-epoch) pair.
class SnapshotHandle : public ReadSurface {
 public:
  /// The commit epoch the snapshot reads at (shard 0's in a cluster).
  [[nodiscard]] virtual uint64_t epoch() const = 0;
  [[nodiscard]] virtual std::string view_name() const = 0;
  [[nodiscard]] virtual ViewId view_id() const = 0;
  [[nodiscard]] virtual int view_version() const = 0;
};

/// One deployment-agnostic handle on a TSE database, implemented
/// directly by the embedded tse::Session, the remote tse::Client (one
/// tse_served over the wire protocol) and the sharded tse::Cluster.
/// Obtain one from tse::Connect() and write code once — tse_shell, the
/// examples, and the differential fuzzer all run against every
/// deployment through this interface, with no per-deployment branches
/// outside Connect().
///
/// A Backend is single-threaded: one thread at a time per handle; open
/// one per thread (Clone).
class Backend : public ReadSurface {
 public:
  // --- Identity ---------------------------------------------------------

  /// The connect spec this backend serves ("embedded:<path>",
  /// "tcp:HOST:PORT", "cluster:HOST:P1,HOST:P2,...").
  [[nodiscard]] virtual std::string Where() const = 0;

  /// Bound-view identity; empty/zero until OpenSession succeeds.
  [[nodiscard]] virtual std::string view_name() const = 0;
  [[nodiscard]] virtual ViewId view_id() const = 0;
  [[nodiscard]] virtual int view_version() const = 0;

  // --- Session lifecycle ------------------------------------------------

  /// Opens an independent second handle on the same deployment — the
  /// deployment-agnostic way to run multiple concurrent sessions (one
  /// per user/thread, the paper's multi-user transparency). Embedded
  /// sessions share the in-process engine; remote and cluster backends
  /// reconnect to their endpoints. No session is opened on the clone.
  [[nodiscard]] virtual Result<std::unique_ptr<Backend>> Clone() = 0;

  /// Binds to the current version of `view_name`. Reopening replaces
  /// the previous binding (rolling back any open transaction).
  virtual Status OpenSession(const std::string& view_name) = 0;
  /// Binds to an explicit (possibly historical) view version.
  virtual Status OpenSessionAt(ViewId view_id) = 0;
  /// Rebinds to the newest version of the bound logical view.
  virtual Status Refresh() = 0;

  // --- Reads beyond the shared ReadSurface ------------------------------

  /// Resolves a display name in the bound view to its global class.
  [[nodiscard]] virtual Result<ClassId> Resolve(
      const std::string& display_name) = 0;
  /// Pretty-prints the bound view schema.
  [[nodiscard]] virtual Result<std::string> ViewToString() = 0;
  /// Display names of every class in the bound view.
  [[nodiscard]] virtual Result<std::vector<std::string>> ListClasses() = 0;

  // --- Snapshot reads (MVCC; DESIGN.md §13) -----------------------------

  /// Pins a snapshot of the bound view at the current epoch.
  [[nodiscard]] virtual Result<std::unique_ptr<SnapshotHandle>>
  GetSnapshot() = 0;

  // --- Updates ----------------------------------------------------------

  virtual Result<Oid> Create(
      const std::string& class_name,
      const std::vector<update::Assignment>& assignments) = 0;
  virtual Status Set(Oid oid, const std::string& class_name,
                     const std::string& attr, objmodel::Value value) = 0;
  /// Sets from text. The default accepts value literals only (parsed
  /// with ParseValueLiteral — the expression language does not travel
  /// over the wire); Session overrides it to evaluate full expressions
  /// against the target object.
  virtual Status SetFromText(Oid oid, const std::string& class_name,
                             const std::string& attr,
                             const std::string& expr_text);
  virtual Status Add(Oid oid, const std::string& class_name) = 0;
  virtual Status Remove(Oid oid, const std::string& class_name) = 0;
  virtual Status Delete(Oid oid) = 0;

  // --- Transactions -----------------------------------------------------
  // Against a cluster these bracket one transaction per shard; commit
  // is not atomic across shards (see docs/API.md "Deployments").

  virtual Status Begin() = 0;
  virtual Status Commit() = 0;
  virtual Status Rollback() = 0;

  // --- Schema evolution -------------------------------------------------

  /// Parses and applies a textual schema change to the bound view and
  /// rebinds to the new version. Against a cluster this is the
  /// two-phase fleet coordinator: prepare on every shard, then flip
  /// every epoch (see tse::Cluster).
  virtual Result<ViewId> Apply(const std::string& change_text) = 0;

  // --- Global DDL -------------------------------------------------------

  virtual Result<ClassId> AddBaseClass(
      const std::string& name, const std::vector<ClassId>& supers,
      const std::vector<schema::PropertySpec>& props) = 0;
  virtual Result<ViewId> CreateView(
      const std::string& logical_name,
      const std::vector<view::ViewClassSpec>& classes) = 0;

  // --- Observability ----------------------------------------------------

  /// The serving engine's metrics snapshot, as text or JSON (a JSON
  /// array with one element per shard against a cluster).
  [[nodiscard]] virtual Result<std::string> Stats(bool as_json = false) = 0;
  /// Default: InvalidArgument (embedded-only).
  virtual Status ResetStats();

  // --- Embedded-engine extras -------------------------------------------
  // Diagnostics that need in-process engine access. Defaults return
  // InvalidArgument so callers (the shell) stay single-code-path;
  // Session overrides them.

  /// Version counts per logical view.
  [[nodiscard]] virtual Result<std::string> History();
  /// The select plan the cost-based planner would run for `class_name`.
  [[nodiscard]] virtual Result<std::string> Explain(
      const std::string& class_name);

  // --- Escape hatches ---------------------------------------------------
  // Deployment-specific handles for tests and tooling; null when the
  // backend is not of that deployment.

  [[nodiscard]] virtual Db* db() { return nullptr; }
  [[nodiscard]] virtual Client* client() { return nullptr; }
};

/// Parses a value literal: int, real, true/false, null, or a quoted
/// string ('s' or "s"). The remote/cluster SetFromText accepts exactly
/// these.
Result<objmodel::Value> ParseValueLiteral(const std::string& text);

}  // namespace tse

#endif  // TSE_DB_BACKEND_H_
