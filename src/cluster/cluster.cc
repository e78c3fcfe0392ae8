#include "cluster/cluster.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace tse {

using objmodel::Value;

namespace cluster_internal {
// backend.cc
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& host_port);
}  // namespace cluster_internal

Result<std::unique_ptr<Cluster>> Cluster::Connect(
    const std::vector<std::string>& endpoints, ClientOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("cluster spec names no shards");
  }
  std::vector<std::unique_ptr<Client>> shards;
  shards.reserve(endpoints.size());
  uint64_t fleet_epoch = 0;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    TSE_ASSIGN_OR_RETURN(auto endpoint,
                         cluster_internal::ParseHostPort(endpoints[i]));
    TSE_ASSIGN_OR_RETURN(
        auto client,
        Client::Connect(endpoint.first, endpoint.second, options));
    // Fleet identity check: the server allocates oids strided by its
    // --shard-id/--shard-count, so a shard listed in the wrong slot
    // (or sized for a different fleet) would route every op wrong.
    TSE_ASSIGN_OR_RETURN(Client::ShardIdentity identity,
                         client->GetShardInfo());
    if (identity.shard_id != i || identity.shard_count != endpoints.size()) {
      return Status::FailedPrecondition(
          endpoints[i] + " reports shard " +
          std::to_string(identity.shard_id) + " of " +
          std::to_string(identity.shard_count) + ", expected shard " +
          std::to_string(i) + " of " + std::to_string(endpoints.size()));
    }
    // Catalog epochs count schema publications only, so shards that
    // executed the same DDL history agree; a divergent epoch means a
    // shard missed (or half-applied) a schema change — refuse before
    // the first op rather than serve a torn schema.
    if (i == 0) {
      fleet_epoch = identity.epoch;
    } else if (identity.epoch != fleet_epoch) {
      return Status::FailedPrecondition(
          endpoints[i] + " is at catalog epoch " +
          std::to_string(identity.epoch) + " but " + endpoints[0] +
          " is at " + std::to_string(fleet_epoch) +
          "; shard catalogs diverged");
    }
    shards.push_back(std::move(client));
  }
  std::string where = "cluster:";
  for (size_t i = 0; i < endpoints.size(); ++i) {
    if (i > 0) where += ',';
    where += endpoints[i];
  }
  return std::unique_ptr<Cluster>(new Cluster(std::move(shards),
                                              std::move(where)));
}

template <typename Fn>
Status Cluster::FanOut(Fn&& op) {
  TSE_COUNT("cluster.fanouts");
  Status first = Status::OK();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status status = op(shards_[i].get());
    if (!status.ok() && first.ok()) first = std::move(status);
  }
  return first;
}

Status Cluster::OpenSession(const std::string& view_name) {
  return FanOut([&](Client* c) { return c->OpenSession(view_name); });
}

Status Cluster::OpenSessionAt(ViewId view_id) {
  return FanOut([&](Client* c) { return c->OpenSessionAt(view_id); });
}

Status Cluster::Refresh() {
  return FanOut([](Client* c) { return c->Refresh(); });
}

// Catalog reads go to shard 0: Connect verified the fleet serves one
// conceptual schema.
Result<ClassId> Cluster::Resolve(const std::string& display_name) {
  return shards_[0]->Resolve(display_name);
}

Result<std::string> Cluster::ViewToString() {
  return shards_[0]->ViewToString();
}

Result<std::vector<std::string>> Cluster::ListClasses() {
  return shards_[0]->ListClasses();
}

Result<Value> Cluster::Get(Oid oid, const std::string& class_name,
                           const std::string& path) {
  TSE_COUNT("cluster.routed_ops");
  return shards_[ShardOf(oid)]->Get(oid, class_name, path);
}

namespace {

/// Unions one read over every shard. Shards hold disjoint oid residues,
/// so the union is a concatenation; sorting gives a deterministic,
/// deployment-independent order.
template <typename Handle, typename Read>
Result<std::vector<Oid>> UnionOver(
    const std::vector<std::unique_ptr<Handle>>& shards, Read read) {
  std::vector<Oid> all;
  for (const auto& shard : shards) {
    TSE_ASSIGN_OR_RETURN(std::vector<Oid> part, read(*shard));
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// Per-shard snapshot handles behind one union read surface. Each
/// shard's snapshot is internally consistent at its own data epoch;
/// the union is not a single cross-shard point in time.
class ClusterSnapshot final : public SnapshotHandle {
 public:
  ClusterSnapshot(std::vector<std::unique_ptr<SnapshotHandle>> snaps)
      : snaps_(std::move(snaps)) {}

  uint64_t epoch() const override { return snaps_[0]->epoch(); }
  std::string view_name() const override { return snaps_[0]->view_name(); }
  int view_version() const override { return snaps_[0]->view_version(); }

  Result<Value> Get(Oid oid, const std::string& class_name,
                    const std::string& path) override {
    return snaps_[oid.value() % snaps_.size()]->Get(oid, class_name, path);
  }
  Result<std::vector<Oid>> Extent(const std::string& class_name) override {
    return UnionOver(snaps_, [&](SnapshotHandle& snap) {
      return snap.Extent(class_name);
    });
  }
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const std::string& predicate) override {
    return UnionOver(snaps_, [&](SnapshotHandle& snap) {
      return snap.Select(class_name, predicate);
    });
  }

 private:
  std::vector<std::unique_ptr<SnapshotHandle>> snaps_;
};

}  // namespace

Result<std::vector<Oid>> Cluster::Extent(const std::string& class_name) {
  TSE_COUNT("cluster.fanouts");
  return UnionOver(shards_,
                   [&](Client& shard) { return shard.Extent(class_name); });
}

Result<std::vector<Oid>> Cluster::Select(const std::string& class_name,
                                         const std::string& predicate) {
  TSE_COUNT("cluster.fanouts");
  return UnionOver(shards_, [&](Client& shard) {
    return shard.Select(class_name, predicate);
  });
}

Result<std::unique_ptr<SnapshotHandle>> Cluster::GetSnapshot() {
  TSE_COUNT("cluster.fanouts");
  std::vector<std::unique_ptr<SnapshotHandle>> snaps;
  snaps.reserve(shards_.size());
  for (auto& shard : shards_) {
    TSE_ASSIGN_OR_RETURN(auto snap, shard->GetSnapshot());
    snaps.push_back(std::move(snap));
  }
  return std::unique_ptr<SnapshotHandle>(
      new ClusterSnapshot(std::move(snaps)));
}

Result<Oid> Cluster::Create(
    const std::string& class_name,
    const std::vector<update::Assignment>& assignments) {
  TSE_COUNT("cluster.routed_ops");
  // Any shard can create at any time: its strided allocator hands out
  // an oid with the shard's own residue, so the object routes back to
  // it by construction. Round-robin spreads the load.
  size_t target = next_create_++ % shards_.size();
  return shards_[target]->Create(class_name, assignments);
}

Status Cluster::Set(Oid oid, const std::string& class_name,
                    const std::string& attr, Value value) {
  TSE_COUNT("cluster.routed_ops");
  return shards_[ShardOf(oid)]->Set(oid, class_name, attr, std::move(value));
}

Status Cluster::Add(Oid oid, const std::string& class_name) {
  TSE_COUNT("cluster.routed_ops");
  return shards_[ShardOf(oid)]->Add(oid, class_name);
}

Status Cluster::Remove(Oid oid, const std::string& class_name) {
  TSE_COUNT("cluster.routed_ops");
  return shards_[ShardOf(oid)]->Remove(oid, class_name);
}

Status Cluster::Delete(Oid oid) {
  TSE_COUNT("cluster.routed_ops");
  return shards_[ShardOf(oid)]->Delete(oid);
}

Status Cluster::Begin() {
  return FanOut([](Client* c) { return c->Begin(); });
}

Status Cluster::Commit() {
  return FanOut([](Client* c) { return c->Commit(); });
}

Status Cluster::Rollback() {
  return FanOut([](Client* c) { return c->Rollback(); });
}

Result<ViewId> Cluster::Apply(const std::string& change_text) {
  TSE_LATENCY_US("cluster.schema_change_us");

  // Phase one: assemble the successor version on every shard, invisibly.
  std::vector<Client::Prepared> prepared;
  prepared.reserve(shards_.size());
  auto abort_prepared = [&]() {
    for (size_t i = 0; i < prepared.size(); ++i) {
      // Best-effort: a shard we cannot reach discards its prepare when
      // the connection drops anyway.
      (void)shards_[i]->SchemaAbort(prepared[i].token);
      TSE_COUNT("cluster.schema_aborts");
    }
  };
  for (auto& shard : shards_) {
    Result<Client::Prepared> p = shard->SchemaPrepare(change_text);
    if (!p.ok()) {
      // Nothing was ever visible anywhere: dropping the prepared
      // tokens is a complete rollback.
      abort_prepared();
      return p.status();
    }
    TSE_COUNT("cluster.schema_prepares");
    prepared.push_back(std::move(p).value());
  }
  // The fleet prepared from one conceptual schema (Connect verified
  // it, and every prepare re-captured its shard's catalog epoch), so
  // the successor versions must agree; a mismatch means a racing
  // coordinator or divergent shard slipped in between.
  for (size_t i = 1; i < prepared.size(); ++i) {
    if (prepared[i].new_version != prepared[0].new_version ||
        prepared[i].expected_epoch != prepared[0].expected_epoch) {
      abort_prepared();
      return Status::FailedPrecondition(
          "shards prepared divergent successor versions (a concurrent "
          "schema change raced this one); aborted");
    }
  }

  // Phase two: flip every shard's catalog epoch. Each flip re-checks
  // the epoch it prepared from, so a racing coordinator loses here and
  // the fleet either all flips from the same epoch or none does.
  Result<ViewId> flipped = Status::OK();
  for (size_t i = 0; i < shards_.size(); ++i) {
    flipped = shards_[i]->SchemaFlip(prepared[i].token);
    if (!flipped.ok()) {
      // Abort what has not flipped yet. Shards 0..i-1 already
      // published; reconnecting detects the divergence via the
      // connect-time epoch check until the change is re-applied.
      for (size_t j = i + 1; j < shards_.size(); ++j) {
        (void)shards_[j]->SchemaAbort(prepared[j].token);
        TSE_COUNT("cluster.schema_aborts");
      }
      return Status::FailedPrecondition(
          "schema flip failed on shard " + std::to_string(i) + " after " +
          std::to_string(i) + " shard(s) flipped: " +
          flipped.status().ToString());
    }
    TSE_COUNT("cluster.schema_flips");
  }
  return flipped;
}

Result<ClassId> Cluster::AddBaseClass(
    const std::string& name, const std::vector<ClassId>& supers,
    const std::vector<schema::PropertySpec>& props) {
  TSE_COUNT("cluster.fanouts");
  Result<ClassId> out = Status::FailedPrecondition("no shards");
  for (auto& shard : shards_) {
    out = shard->AddBaseClass(name, supers, props);
    TSE_RETURN_IF_ERROR(out.status());
  }
  return out;
}

Result<ViewId> Cluster::CreateView(
    const std::string& logical_name,
    const std::vector<view::ViewClassSpec>& classes) {
  TSE_COUNT("cluster.fanouts");
  Result<ViewId> out = Status::FailedPrecondition("no shards");
  for (auto& shard : shards_) {
    out = shard->CreateView(logical_name, classes);
    TSE_RETURN_IF_ERROR(out.status());
  }
  return out;
}

Result<std::string> Cluster::Stats(bool as_json) {
  TSE_COUNT("cluster.fanouts");
  std::ostringstream out;
  if (as_json) out << "[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    TSE_ASSIGN_OR_RETURN(std::string part, shards_[i]->Stats(as_json));
    if (as_json) {
      if (i > 0) out << ",";
      out << part;
    } else {
      out << "=== shard " << i << " ===\n" << part;
    }
  }
  if (as_json) out << "]";
  return out.str();
}

}  // namespace tse
