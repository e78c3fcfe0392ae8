// The embedded tse::Backend implementation, the value-literal parser
// the backends share with the shell, and tse::Connect — the one place a
// deployment spec is turned into a handle. The remote implementation is
// tse::Client (client.cc); the sharded one lives in cluster.cc.

#include "cluster/backend.h"

#include <sstream>
#include <utility>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "db/db.h"
#include "db/session.h"
#include "db/snapshot.h"
#include "obs/metrics.h"
#include "objmodel/expr_parser.h"

namespace tse {

using objmodel::Value;

// --- Backend defaults ----------------------------------------------------

Status Backend::SetFromText(Oid oid, const std::string& class_name,
                            const std::string& attr,
                            const std::string& expr_text) {
  TSE_ASSIGN_OR_RETURN(Value value, ParseValueLiteral(expr_text));
  return Set(oid, class_name, attr, std::move(value));
}

Result<std::unique_ptr<Backend>> Backend::Clone() {
  // Remote and cluster deployments clone by reconnecting the spec; the
  // embedded backend overrides this to share its in-process engine.
  return Connect(Where());
}

Status Backend::ResetStats() {
  return Status::InvalidArgument("stats reset is embedded-only");
}

Result<std::string> Backend::History() {
  return Status::InvalidArgument(
      "history needs the embedded engine; the wire protocol exposes only "
      "the bound view");
}

Result<std::string> Backend::Explain(const std::string&) {
  return Status::InvalidArgument(
      "explain needs the embedded engine; the wire protocol does not "
      "expose query plans");
}

Result<std::string> Backend::Layout(const std::string&, const std::string&) {
  return Status::InvalidArgument(
      "layout needs the embedded engine; the wire protocol does not "
      "expose physical tuning");
}

Result<Value> ParseValueLiteral(const std::string& raw) {
  size_t begin = raw.find_first_not_of(" \t");
  size_t end = raw.find_last_not_of(" \t");
  if (begin == std::string::npos) {
    return Status::InvalidArgument("empty value");
  }
  std::string text = raw.substr(begin, end - begin + 1);
  if (text == "true") return Value::Bool(true);
  if (text == "false") return Value::Bool(false);
  if (text == "null") return Value::Null();
  if (text.size() >= 2 && (text.front() == '"' || text.front() == '\'') &&
      text.back() == text.front()) {
    return Value::Str(text.substr(1, text.size() - 2));
  }
  try {
    size_t used = 0;
    if (text.find('.') != std::string::npos) {
      double real = std::stod(text, &used);
      if (used == text.size()) return Value::Real(real);
    } else {
      int64_t whole = std::stoll(text, &used);
      if (used == text.size()) return Value::Int(whole);
    }
  } catch (const std::exception&) {
  }
  return Status::InvalidArgument(
      "remote set takes a literal (int, real, true/false, 'string'); "
      "expressions evaluate only against the embedded engine");
}

namespace {

// --- Embedded deployment -------------------------------------------------

/// tse::Snapshot behind the deployment-agnostic handle.
class EmbeddedSnapshot final : public SnapshotHandle {
 public:
  explicit EmbeddedSnapshot(std::unique_ptr<Snapshot> snap)
      : snap_(std::move(snap)) {}

  uint64_t epoch() const override { return snap_->epoch(); }
  std::string view_name() const override { return snap_->view_name(); }
  int view_version() const override { return snap_->view_version(); }

  Result<Value> Get(Oid oid, const std::string& class_name,
                    const std::string& path) override {
    return snap_->Get(oid, class_name, path);
  }
  Result<Value> GetAttr(Oid oid, const std::string& class_name,
                        const std::string& attr) override {
    return snap_->GetAttr(oid, class_name, attr);
  }
  Result<std::vector<Oid>> Extent(const std::string& class_name) override {
    TSE_ASSIGN_OR_RETURN(std::set<Oid> extent, snap_->Extent(class_name));
    return std::vector<Oid>(extent.begin(), extent.end());
  }
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const std::string& predicate) override {
    return snap_->Select(class_name, predicate);
  }

 private:
  std::unique_ptr<Snapshot> snap_;
};

/// The in-process engine: a Db owned by the backend, one bound Session.
class EmbeddedBackend final : public Backend {
 public:
  EmbeddedBackend(std::shared_ptr<tse::Db> db, std::string where)
      : db_(std::move(db)), where_(std::move(where)) {}

  Result<std::unique_ptr<Backend>> Clone() override {
    // Same in-process engine, fresh handle — the embedded equivalent
    // of a second connection.
    return std::unique_ptr<Backend>(new EmbeddedBackend(db_, where_));
  }

  std::string Where() const override { return where_; }
  std::string view_name() const override {
    return session_ ? session_->view_name() : std::string();
  }
  ViewId view_id() const override {
    return session_ ? session_->view_id() : ViewId();
  }
  int view_version() const override {
    return session_ ? session_->view_version() : 0;
  }

  Status OpenSession(const std::string& view_name) override {
    TSE_ASSIGN_OR_RETURN(auto next, db_->OpenSession(view_name));
    session_ = std::move(next);
    return Status::OK();
  }
  Status OpenSessionAt(ViewId view_id) override {
    TSE_ASSIGN_OR_RETURN(auto next, db_->OpenSessionAt(view_id));
    session_ = std::move(next);
    return Status::OK();
  }
  Status Refresh() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Refresh();
  }

  Result<ClassId> Resolve(const std::string& display_name) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Resolve(display_name);
  }
  Result<Value> Get(Oid oid, const std::string& class_name,
                    const std::string& path) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Get(oid, class_name, path);
  }
  Result<Value> GetAttr(Oid oid, const std::string& class_name,
                        const std::string& attr) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->GetAttr(oid, class_name, attr);
  }
  Result<std::vector<Oid>> Extent(const std::string& class_name) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    TSE_ASSIGN_OR_RETURN(auto extent, session_->Extent(class_name));
    return std::vector<Oid>(extent->begin(), extent->end());
  }
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const std::string& predicate) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Select(class_name, predicate);
  }
  Result<std::string> ViewToString() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->ViewToString();
  }
  Result<std::vector<std::string>> ListClasses() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    TSE_ASSIGN_OR_RETURN(const view::ViewSchema* vs,
                         db_->views().GetView(session_->view_id()));
    std::vector<std::string> names;
    for (ClassId cls : vs->classes()) {
      TSE_ASSIGN_OR_RETURN(std::string name, vs->DisplayName(cls));
      names.push_back(std::move(name));
    }
    return names;
  }

  Result<std::unique_ptr<SnapshotHandle>> GetSnapshot() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    TSE_ASSIGN_OR_RETURN(auto snap, session_->GetSnapshot());
    return std::unique_ptr<SnapshotHandle>(
        new EmbeddedSnapshot(std::move(snap)));
  }

  Result<Oid> Create(
      const std::string& class_name,
      const std::vector<update::Assignment>& assignments) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Create(class_name, assignments);
  }
  Status Set(Oid oid, const std::string& class_name, const std::string& attr,
             Value value) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Set(oid, class_name, attr, std::move(value));
  }
  Status SetFromText(Oid oid, const std::string& class_name,
                     const std::string& attr,
                     const std::string& expr_text) override {
    // In-process we can evaluate the full expression language against
    // the target object, not just literals.
    TSE_RETURN_IF_ERROR(RequireSession());
    TSE_ASSIGN_OR_RETURN(ClassId cls, session_->Resolve(class_name));
    TSE_ASSIGN_OR_RETURN(auto expr, objmodel::ParseExpr(expr_text));
    TSE_ASSIGN_OR_RETURN(
        Value value,
        expr->Evaluate(oid, db_->engine().accessor().ResolverFor(oid, cls)));
    return session_->Set(oid, class_name, attr, std::move(value));
  }
  Status Add(Oid oid, const std::string& class_name) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Add(oid, class_name);
  }
  Status Remove(Oid oid, const std::string& class_name) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Remove(oid, class_name);
  }
  Status Delete(Oid oid) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Delete(oid);
  }

  Status Begin() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Begin();
  }
  Status Commit() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Commit();
  }
  Status Rollback() override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Rollback();
  }

  Result<ViewId> Apply(const std::string& change_text) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    return session_->Apply(change_text);
  }

  Result<ClassId> AddBaseClass(
      const std::string& name, const std::vector<ClassId>& supers,
      const std::vector<schema::PropertySpec>& props) override {
    return db_->AddBaseClass(name, supers, props);
  }
  Result<ViewId> CreateView(
      const std::string& logical_name,
      const std::vector<view::ViewClassSpec>& classes) override {
    return db_->CreateView(logical_name, classes);
  }

  Result<std::string> Stats(bool as_json) override {
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Instance().Snapshot();
    return as_json ? snapshot.ToJson() : snapshot.ToText();
  }
  Status ResetStats() override {
    obs::MetricsRegistry::Instance().ResetValues();
    return Status::OK();
  }

  Result<std::string> History() override {
    std::ostringstream out;
    for (const std::string& name : db_->views().ViewNames()) {
      out << name << ": " << db_->views().History(name).size()
          << " version(s)\n";
    }
    return out.str();
  }
  Result<std::string> Explain(const std::string& class_name) override {
    TSE_RETURN_IF_ERROR(RequireSession());
    TSE_ASSIGN_OR_RETURN(ClassId cls, session_->Resolve(class_name));
    TSE_ASSIGN_OR_RETURN(algebra::SelectPlan plan,
                         db_->extents().ExplainSelect(cls));
    std::ostringstream out;
    out << class_name << ": arm=" << algebra::PlanArmName(plan.arm)
        << ", est_selectivity=" << plan.est_selectivity
        << ", source_size=" << plan.source_size << "\n  " << plan.reason
        << "\n  epoch: visible=" << db_->visible_epoch() << "\n";
    return out.str();
  }
  Result<std::string> Layout(const std::string& action,
                             const std::string& class_name) override {
    if (action == "pin") {
      TSE_RETURN_IF_ERROR(db_->PinLayout(class_name).status());
    } else if (action == "unpin") {
      TSE_RETURN_IF_ERROR(db_->UnpinLayout(class_name));
    }
    TSE_ASSIGN_OR_RETURN(auto stats, db_->ExplainLayout(class_name));
    std::ostringstream out;
    out << class_name << ": state=" << stats.state
        << (stats.scan_complete ? " (scan-complete)" : "")
        << ", rows=" << stats.rows << ", columns=" << stats.columns
        << ", hits=" << stats.hits << "\n  window: point_reads="
        << stats.window_point_reads << ", scans=" << stats.window_scans
        << "\n";
    return out.str();
  }

  tse::Db* db() override { return db_.get(); }

 private:
  Status RequireSession() const {
    if (!session_) {
      return Status::FailedPrecondition("no session open; call OpenSession");
    }
    return Status::OK();
  }

  std::shared_ptr<tse::Db> db_;
  std::unique_ptr<Session> session_;
  std::string where_;
};

}  // namespace

namespace cluster_internal {

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& host_port) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return Status::InvalidArgument("expected HOST:PORT, got '" + host_port +
                                   "'");
  }
  int port = 0;
  try {
    port = std::stoi(host_port.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in '" + host_port + "'");
  }
  return std::make_pair(host_port.substr(0, colon),
                        static_cast<uint16_t>(port));
}

}  // namespace cluster_internal

Result<std::unique_ptr<Backend>> Connect(const std::string& spec) {
  if (spec == "embedded" || spec.rfind("embedded:", 0) == 0) {
    DbOptions options;
    options.closure_policy = update::ValueClosurePolicy::kAllow;
    if (spec.size() > 9) options.data_dir = spec.substr(9);
    TSE_ASSIGN_OR_RETURN(auto db, Db::Open(options));
    return std::unique_ptr<Backend>(
        new EmbeddedBackend(std::shared_ptr<tse::Db>(std::move(db)), spec));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    TSE_ASSIGN_OR_RETURN(auto endpoint,
                         cluster_internal::ParseHostPort(spec.substr(4)));
    TSE_ASSIGN_OR_RETURN(auto client,
                         Client::Connect(endpoint.first, endpoint.second));
    return std::unique_ptr<Backend>(std::move(client));
  }
  if (spec.rfind("cluster:", 0) == 0) {
    std::vector<std::string> endpoints;
    std::string rest = spec.substr(8);
    size_t start = 0;
    while (start <= rest.size()) {
      size_t comma = rest.find(',', start);
      if (comma == std::string::npos) comma = rest.size();
      if (comma > start) endpoints.push_back(rest.substr(start, comma - start));
      start = comma + 1;
    }
    TSE_ASSIGN_OR_RETURN(auto cluster, Cluster::Connect(endpoints));
    return std::unique_ptr<Backend>(std::move(cluster));
  }
  return Status::InvalidArgument(
      "unknown backend spec '" + spec +
      "'; expected embedded:[<data-dir>], tcp:HOST:PORT, or "
      "cluster:HOST:PORT,HOST:PORT,...");
}

}  // namespace tse
