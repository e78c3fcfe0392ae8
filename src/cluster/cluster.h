#ifndef TSE_CLUSTER_CLUSTER_H_
#define TSE_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "cluster/client.h"

namespace tse {

/// A client-side sharded deployment: N `tse_served` shards, each
/// serving a conceptual-schema partition by OID hash (`oid % N == i`
/// on shard i, enforced server-side by the strided oid allocator —
/// DbOptions::shard_id/shard_count), behind the same tse::Backend
/// surface as one embedded engine. There is no coordinator process;
/// every Cluster handle routes client-side:
///
///   - Point ops (Get/Set/Add/Remove/Delete) go to `hash(oid) % N`.
///   - Create round-robins; the target shard's strided allocator hands
///     out an oid that routes back to it by construction.
///   - Extent/Select fan out and union (shards are disjoint, so the
///     union is a concatenation + sort).
///   - DDL and catalog reads assume every shard serves the same
///     conceptual schema; Connect verifies identity (shard i of N at
///     equal catalog epochs) and fails with kFailedPrecondition on any
///     mismatch, so a restarted-behind or mis-numbered shard is caught
///     before the first op.
///
/// ## Fleet-wide schema change (two-phase)
///
/// Apply() is a 2PC coordinator over the wire protocol's
/// schema_prepare/schema_flip/schema_abort opcodes: phase one prepares
/// the successor view version on every shard (assembled invisibly; no
/// session can observe it), phase two flips every shard's catalog
/// epoch. A failed prepare aborts the already-prepared shards — a
/// clean rollback, nothing was ever visible. A shard death between
/// prepare and flip is equally clean: its prepare dies with the
/// connection. Pinned sessions on old view versions are untouched
/// throughout (the paper's transparency contract, now fleet-wide); a
/// coordinator racing another coordinator loses the per-shard epoch
/// check and aborts.
///
/// Transactions bracket one transaction per shard; Commit is not
/// atomic across shards. Like every Backend, a Cluster is a
/// single-thread handle.
class Cluster final : public Backend {
 public:
  /// Connects to every endpoint ("HOST:PORT"; position = expected
  /// shard id) and verifies fleet identity via shard_info.
  static Result<std::unique_ptr<Cluster>> Connect(
      const std::vector<std::string>& endpoints, ClientOptions options = {});

  // --- Backend ----------------------------------------------------------

  std::string Where() const override { return where_; }
  /// Fresh connections to the same shard endpoints.
  Result<std::unique_ptr<Backend>> Clone() override;
  std::string view_name() const override { return shards_[0]->view_name(); }
  ViewId view_id() const override { return shards_[0]->view_id(); }
  int view_version() const override { return shards_[0]->view_version(); }

  Status OpenSession(const std::string& view_name) override;
  Status OpenSessionAt(ViewId view_id) override;
  Status Refresh() override;

  Result<ClassId> Resolve(const std::string& display_name) override;
  Result<objmodel::Value> Get(Oid oid, const std::string& class_name,
                              const std::string& path) override;
  Result<std::vector<Oid>> Extent(const std::string& class_name) override;
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const std::string& predicate) override;
  Result<std::string> ViewToString() override;
  Result<std::vector<std::string>> ListClasses() override;

  Result<std::unique_ptr<SnapshotHandle>> GetSnapshot() override;

  Result<Oid> Create(
      const std::string& class_name,
      const std::vector<update::Assignment>& assignments) override;
  Status Set(Oid oid, const std::string& class_name, const std::string& attr,
             objmodel::Value value) override;
  Status Add(Oid oid, const std::string& class_name) override;
  Status Remove(Oid oid, const std::string& class_name) override;
  Status Delete(Oid oid) override;

  Status Begin() override;
  Status Commit() override;
  Status Rollback() override;

  /// The fleet-wide two-phase schema change (see class comment).
  Result<ViewId> Apply(const std::string& change_text) override;

  Result<ClassId> AddBaseClass(
      const std::string& name, const std::vector<ClassId>& supers,
      const std::vector<schema::PropertySpec>& props) override;
  Result<ViewId> CreateView(
      const std::string& logical_name,
      const std::vector<view::ViewClassSpec>& classes) override;

  /// Text: per-shard sections; JSON: an array, one element per shard.
  Result<std::string> Stats(bool as_json) override;

  // --- Cluster-specific surface -----------------------------------------

  [[nodiscard]] size_t shard_count() const { return shards_.size(); }
  /// The shard an existing object lives on.
  [[nodiscard]] size_t ShardOf(Oid oid) const {
    return static_cast<size_t>(oid.value() % shards_.size());
  }
  /// Direct wire handle on one shard (tests and tooling; the escape
  /// hatch out of routing).
  [[nodiscard]] Client* shard(size_t i) { return shards_[i].get(); }

 private:
  Cluster(std::vector<std::unique_ptr<Client>> shards, std::string where)
      : shards_(std::move(shards)), where_(std::move(where)) {}

  /// Runs `op` on every shard; returns the first failure (after
  /// visiting every shard, so per-shard session state stays aligned).
  template <typename Fn>
  Status FanOut(Fn&& op);

  std::vector<std::unique_ptr<Client>> shards_;
  std::string where_;
  /// Round-robin cursor for Create.
  size_t next_create_ = 0;
};

}  // namespace tse

#endif  // TSE_CLUSTER_CLUSTER_H_
