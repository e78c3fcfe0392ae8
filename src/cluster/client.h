#ifndef TSE_CLUSTER_CLIENT_H_
#define TSE_CLUSTER_CLIENT_H_

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/backend.h"
#include "common/ids.h"
#include "common/result.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "objmodel/value.h"

namespace tse {

/// Configuration for Client::Connect.
struct ClientOptions {
  /// TCP connect budget before giving up with kTimeout.
  std::chrono::milliseconds connect_timeout{2000};
  /// Per-request send+receive budget; an expired wait returns kTimeout
  /// and poisons the connection (the response may still be in flight).
  std::chrono::milliseconds request_timeout{5000};
  size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
};

/// A blocking wire-protocol client for a `tse_served` instance, and the
/// `tse::Backend` that `tse::Connect("tcp:HOST:PORT")` returns. The
/// surface mirrors `tse::Session` one-to-one — same names, same
/// Status/Result contract — plus the `tse::Db` DDL entry points the
/// server exposes, so code written against the embedded facade ports to
/// remote access by swapping the handle type. Each call is one row of
/// the opcode table (net/protocol.h).
///
/// One Client = one TCP connection = one server-side Session, strictly
/// request-response (no pipelining). Like a Session, a Client is a
/// single-thread handle; open one per thread. Any transport failure
/// (peer closed, timeout) poisons the client: every later call returns
/// kConnectionClosed and the server aborts whatever transaction the
/// connection had in flight.
class Client final : public Backend {
 public:
  /// Connects and performs the hello exchange. `host` may be an IP
  /// literal or a resolvable name.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 ClientOptions options = {});

  ~Client() override;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trips an empty frame; cheap liveness probe.
  Status Ping();

  // --- Backend: identity and session lifecycle --------------------------
  // The identity is cached from the last session-binding response.

  std::string Where() const override { return where_; }
  /// A fresh connection to the same server, with the same options.
  Result<std::unique_ptr<Backend>> Clone() override;
  std::string view_name() const override { return session_.view_name; }
  ViewId view_id() const override { return session_.view_id; }
  int view_version() const override { return session_.view_version; }

  Status OpenSession(const std::string& view_name) override;
  Status OpenSessionAt(ViewId view_id) override;
  Status Refresh() override;

  // --- Backend: reads ---------------------------------------------------

  Result<ClassId> Resolve(const std::string& display_name) override;
  Result<objmodel::Value> Get(Oid oid, const std::string& class_name,
                              const std::string& path) override;
  Result<std::vector<Oid>> Extent(const std::string& class_name) override;
  /// Evaluated server-side against live state (Session::Select).
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const std::string& predicate) override;
  Result<std::string> ViewToString() override;
  Result<std::vector<std::string>> ListClasses() override;

  // --- Snapshot reads (MVCC; DESIGN.md §13) -----------------------------

  /// A remote snapshot handle mirroring `tse::Snapshot`: a server-side
  /// (view-version, data-epoch) pair whose reads are repeatable and
  /// take no object locks on the server. Destroying the handle sends a
  /// best-effort close; the server also releases every snapshot when
  /// the connection drops. A Snapshot must not outlive its Client and
  /// shares the client's single-thread, request-response discipline.
  class Snapshot final : public SnapshotHandle {
   public:
    ~Snapshot() override;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    uint64_t epoch() const override { return info_.epoch; }
    std::string view_name() const override { return info_.view_name; }
    ViewId view_id() const override { return info_.view_id; }
    int view_version() const override {
      return static_cast<int>(info_.view_version);
    }

    Result<objmodel::Value> Get(Oid oid, const std::string& class_name,
                                const std::string& path) override;
    Result<std::vector<Oid>> Extent(const std::string& class_name) override;
    Result<std::vector<Oid>> Select(const std::string& class_name,
                                    const std::string& predicate) override;

   private:
    friend class Client;
    Snapshot(Client* client, net::SnapshotInfo info)
        : client_(client), info_(std::move(info)) {}

    Client* client_;
    net::SnapshotInfo info_;
  };

  /// The bound view at the current epoch (`Session::GetSnapshot`).
  Result<std::unique_ptr<SnapshotHandle>> GetSnapshot() override;
  /// The current version of `view_name` at the current epoch
  /// (`Db::OpenSnapshot`).
  Result<std::unique_ptr<Snapshot>> OpenSnapshot(const std::string& view_name);
  /// An explicit view version at an explicit epoch (`Db::OpenSnapshotAt`).
  Result<std::unique_ptr<Snapshot>> OpenSnapshotAt(ViewId view_id,
                                                   uint64_t epoch);

  // --- Backend: updates and transactions --------------------------------

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

  // --- Schema evolution -------------------------------------------------

  /// Applies a textual schema change to the bound view; the server-side
  /// session and this client's cached identity rebind to the new
  /// version.
  Result<ViewId> Apply(const std::string& change_text) override;

  /// Two-phase schema change (cluster coordination). Prepare assembles
  /// the successor version of the bound view server-side without
  /// publishing it; flip publishes it and rebinds this client; abort
  /// discards it.
  using Prepared = net::PreparedChange;
  Result<Prepared> SchemaPrepare(const std::string& change_text);
  Result<ViewId> SchemaFlip(uint64_t token);
  Status SchemaAbort(uint64_t token);

  // --- Cluster support, observability, global DDL -----------------------

  using ShardIdentity = net::ShardIdentity;
  Result<ShardIdentity> GetShardInfo();

  Result<std::string> Stats(bool as_json = false) override;

  /// Stored attributes only: methods travel as `add_method`
  /// schema-change text, not through DDL.
  Result<ClassId> AddBaseClass(
      const std::string& name, const std::vector<ClassId>& supers,
      const std::vector<schema::PropertySpec>& props) override;
  Result<ViewId> CreateView(
      const std::string& logical_name,
      const std::vector<view::ViewClassSpec>& classes) override;

  Client* client() override { return this; }

 private:
  Client(int fd, ClientOptions options, std::string where)
      : fd_(fd),
        options_(std::move(options)),
        reader_(options_.max_frame_bytes),
        where_(std::move(where)) {}

  /// One row's round trip: encodes `args` as the row's request fields,
  /// blocks for the response, and strictly decodes its payload.
  template <typename Row, typename... Args>
  Result<typename Row::Response> Call(const Args&... args);
  /// Sends one request frame and blocks for its response; returns the
  /// result payload (or the wire status). Transport errors poison the
  /// connection.
  Result<std::string> RoundTrip(net::Opcode op, const std::string& frame);
  Result<std::unique_ptr<Snapshot>> OpenSnapshotFor(
      const net::SnapshotTarget& target);
  /// Caches the bound-view identity a session-binding call returned.
  Status Bind(Result<net::SessionInfo> info);
  Status SendAll(const std::string& data);
  Status RecvFrame(net::Frame* out);
  Status Poison(Status status);

  int fd_ = -1;
  ClientOptions options_;
  net::FrameReader reader_;
  std::string where_;
  bool broken_ = false;
  net::SessionInfo session_;
};

}  // namespace tse

#endif  // TSE_CLUSTER_CLIENT_H_
