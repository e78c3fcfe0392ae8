// The frozen public API surface: this test includes ONLY <tse/...>
// headers — never "src/..." paths — and walks every entry point an
// embedder or remote client is promised. If a public header stops
// re-exporting something used here, this file stops compiling, which
// is the point.

#include <gtest/gtest.h>

#include <algorithm>

#include <tse/backend.h>
#include <tse/client.h>
#include <tse/cluster.h>
#include <tse/db.h>
#include <tse/obs.h>
#include <tse/query.h>
#include <tse/schema_change.h>
#include <tse/server.h>
#include <tse/session.h>
#include <tse/snapshot.h>
#include <tse/status.h>
#include <tse/value.h>

namespace {

using tse::ClassId;
using tse::Oid;
using tse::Status;
using tse::objmodel::Value;
using tse::objmodel::ValueType;
using tse::schema::PropertySpec;

TEST(PublicApiTest, EmbeddedSurface) {
  // Db + DDL.
  tse::DbOptions options;
  options.closure_policy = tse::update::ValueClosurePolicy::kAllow;
  auto db = tse::Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString),
                        PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  db->CreateView("V", {{person, ""}}).value();

  // Session: reads, updates, transactions.
  auto session = db->OpenSession("V").value();
  EXPECT_EQ(session->view_version(), 1);
  Oid bob = session
                ->Create("Person", {{"name", Value::Str("bob")},
                                    {"age", Value::Int(30)}})
                .value();
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Set(bob, "Person", "age", Value::Int(31)).ok());
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(session->Get(bob, "Person", "age").value(), Value::Int(31));
  EXPECT_EQ(session->GetAttr(bob, "Person", "age").value(), Value::Int(31));
  EXPECT_EQ(session->Select("Person", "age >= 21").value().size(), 1u);

  // Schema evolution: textual and typed forms.
  ASSERT_TRUE(session->Apply("add_attribute zip:string to Person").ok());
  tse::evolution::AddMethod add_method;
  add_method.class_name = "Person";
  add_method.spec = PropertySpec::Method(
      "is_adult",
      tse::objmodel::MethodExpr::Ge(tse::objmodel::MethodExpr::Attr("age"),
                                    tse::objmodel::MethodExpr::Lit(
                                        Value::Int(18))),
      ValueType::kBool);
  ASSERT_TRUE(session->Apply(add_method).ok());
  EXPECT_EQ(session->view_version(), 3);
  EXPECT_EQ(session->Get(bob, "Person", "is_adult").value(),
            Value::Bool(true));

  // Snapshot reads: the preferred read path. Session::GetSnapshot pins
  // (view version, epoch); Db::OpenSnapshot / OpenSnapshotAt address
  // views explicitly. All reads are lock-free and repeatable.
  std::unique_ptr<tse::SnapshotHandle> pinned = session->GetSnapshot().value();
  EXPECT_EQ(pinned->view_id(), session->view_id());
  pinned.reset();
  std::unique_ptr<tse::Snapshot> snap = db->OpenSnapshot("V").value();
  EXPECT_EQ(snap->epoch(), db->visible_epoch());
  EXPECT_EQ(snap->view_name(), "V");
  EXPECT_EQ(snap->Get(bob, "Person", "age").value(), Value::Int(31));
  EXPECT_EQ(snap->GetAttr(bob, "Person", "age").value(), Value::Int(31));
  EXPECT_EQ(std::ranges::count(snap->Extent("Person").value(), bob), 1);
  EXPECT_EQ(snap->Select("Person", "age >= 21").value().size(), 1u);
  ASSERT_TRUE(snap->Resolve("Person").ok());
  ASSERT_TRUE(session->Set(bob, "Person", "age", Value::Int(40)).ok());
  EXPECT_EQ(snap->Get(bob, "Person", "age").value(), Value::Int(31));
  snap = db->OpenSnapshot("V").value();
  EXPECT_EQ(snap->Get(bob, "Person", "age").value(), Value::Int(40));
  snap = db->OpenSnapshotAt(session->view_id(), db->visible_epoch()).value();
  EXPECT_EQ(snap->view_id(), session->view_id());
  snap.reset();
  (void)db->VacuumVersions();
  ASSERT_TRUE(session->Set(bob, "Person", "age", Value::Int(31)).ok());

  // Query/expression surface.
  auto expr = tse::objmodel::ParseExpr("age >= 21");
  ASSERT_TRUE(expr.ok());

  // Status taxonomy, including the wire-protocol codes.
  EXPECT_TRUE(Status::Overloaded("x").IsOverloaded());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::ConnectionClosed("x").IsConnectionClosed());
  EXPECT_STREQ(tse::StatusCodeName(tse::StatusCode::kOverloaded),
               "overloaded");

  // Observability read side.
  auto snapshot = tse::obs::MetricsRegistry::Instance().Snapshot();
  EXPECT_FALSE(snapshot.ToText().empty());
}

TEST(PublicApiTest, RemoteSurface) {
  // Server + Client round trip through the public headers alone.
  auto db = tse::Db::Open(tse::DbOptions{}).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  db->CreateView("V", {{person, ""}}).value();

  tse::net::ServerOptions server_options;
  tse::net::Server server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  tse::ClientOptions client_options;
  auto client =
      tse::Client::Connect("127.0.0.1", server.port(), client_options)
          .value();
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->OpenSession("V").ok());
  Oid eve = client->Create("Person", {{"name", Value::Str("eve")}}).value();
  EXPECT_EQ(client->Get(eve, "Person", "name").value(), Value::Str("eve"));
  ASSERT_TRUE(client->Apply("add_attribute zip:string to Person").ok());
  EXPECT_EQ(client->view_version(), 2);

  // Remote snapshot handles mirror the embedded tse::Snapshot surface;
  // GetSnapshot is the Backend one, the by-name and explicit-epoch
  // opens return the concrete tse::Client::Snapshot.
  std::unique_ptr<tse::SnapshotHandle> snap = client->GetSnapshot().value();
  EXPECT_EQ(snap->view_name(), "V");
  EXPECT_EQ(snap->Get(eve, "Person", "name").value(), Value::Str("eve"));
  EXPECT_EQ(snap->GetAttr(eve, "Person", "name").value(), Value::Str("eve"));
  ASSERT_TRUE(client->Set(eve, "Person", "name", Value::Str("eva")).ok());
  EXPECT_EQ(snap->Get(eve, "Person", "name").value(), Value::Str("eve"));
  std::vector<Oid> extent = snap->Extent("Person").value();
  EXPECT_EQ(extent.size(), 1u);
  EXPECT_FALSE(snap->Select("Person", "name == \"eve\"").value().empty());
  uint64_t pinned = snap->epoch();
  std::unique_ptr<tse::Client::Snapshot> named =
      client->OpenSnapshot("V").value();
  EXPECT_GT(named->epoch(), pinned);
  EXPECT_EQ(named->Get(eve, "Person", "name").value(), Value::Str("eva"));
  named = client->OpenSnapshotAt(named->view_id(), named->epoch()).value();
  named.reset();
  snap.reset();

  // Live selects, shard identity, and the server stats snapshot.
  EXPECT_FALSE(client->Select("Person", "name == \"eva\"").value().empty());
  tse::Client::ShardIdentity identity = client->GetShardInfo().value();
  EXPECT_EQ(identity.shard_id, 0u);
  EXPECT_EQ(identity.shard_count, 1u);
  EXPECT_FALSE(client->Stats().value().empty());
  EXPECT_FALSE(client->Stats(/*as_json=*/true).value().empty());
  server.Stop();
}

TEST(PublicApiTest, BackendSurface) {
  // The deployment-agnostic access layer: one Connect spec decides the
  // deployment, everything after it is the same Backend surface.
  std::unique_ptr<tse::Backend> backend = tse::Connect("embedded:").value();
  EXPECT_EQ(backend->Where(), "embedded:");
  EXPECT_FALSE(tse::Connect("carrier-pigeon:coop").ok());
  // The embedded Backend is the Session itself, not an adaptor.
  EXPECT_NE(dynamic_cast<tse::Session*>(backend.get()), nullptr);

  ClassId person =
      backend
          ->AddBaseClass("Person", {},
                         {PropertySpec::Attribute("name", ValueType::kString),
                          PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  backend->CreateView("V", {{person, ""}}).value();
  ASSERT_TRUE(backend->OpenSession("V").ok());
  EXPECT_EQ(backend->view_name(), "V");
  EXPECT_EQ(backend->view_version(), 1);

  Oid bob = backend
                ->Create("Person", {{"name", Value::Str("bob")},
                                    {"age", Value::Int(30)}})
                .value();
  ASSERT_TRUE(backend->Set(bob, "Person", "age", Value::Int(31)).ok());
  ASSERT_TRUE(backend->SetFromText(bob, "Person", "name", "\"bobby\"").ok());
  EXPECT_EQ(backend->Get(bob, "Person", "name").value(), Value::Str("bobby"));
  EXPECT_EQ(backend->GetAttr(bob, "Person", "age").value(), Value::Int(31));
  EXPECT_EQ(backend->Extent("Person").value().size(), 1u);
  EXPECT_EQ(backend->Select("Person", "age >= 21").value().size(), 1u);
  ASSERT_TRUE(backend->Resolve("Person").ok());
  EXPECT_FALSE(backend->ViewToString().value().empty());
  EXPECT_EQ(backend->ListClasses().value().size(), 1u);

  ASSERT_TRUE(backend->Begin().ok());
  ASSERT_TRUE(backend->Set(bob, "Person", "age", Value::Int(99)).ok());
  ASSERT_TRUE(backend->Rollback().ok());
  EXPECT_EQ(backend->GetAttr(bob, "Person", "age").value(), Value::Int(31));

  // Clone: the deployment-agnostic second connection, same objects.
  std::unique_ptr<tse::Backend> other = backend->Clone().value();
  ASSERT_TRUE(other->OpenSession("V").ok());
  EXPECT_EQ(other->GetAttr(bob, "Person", "age").value(), Value::Int(31));

  // Schema evolution rebinds the handle; the clone refreshes to follow.
  backend->Apply("add_attribute zip:string to Person").value();
  EXPECT_EQ(backend->view_version(), 2);
  ASSERT_TRUE(other->Refresh().ok());
  EXPECT_EQ(other->view_version(), 2);

  // SnapshotHandle: the normalized pinned-read surface.
  std::unique_ptr<tse::SnapshotHandle> snap = backend->GetSnapshot().value();
  EXPECT_NE(dynamic_cast<tse::Snapshot*>(snap.get()), nullptr);
  EXPECT_EQ(snap->view_name(), "V");
  EXPECT_EQ(snap->view_version(), 2);
  ASSERT_TRUE(backend->Set(bob, "Person", "age", Value::Int(40)).ok());
  EXPECT_EQ(snap->GetAttr(bob, "Person", "age").value(), Value::Int(31));
  EXPECT_EQ(snap->Extent("Person").value().size(), 1u);
  EXPECT_EQ(snap->Select("Person", "age >= 21").value().size(), 1u);
  snap.reset();

  // Observability + embedded-engine extras through the same surface.
  EXPECT_FALSE(backend->Stats(/*as_json=*/true).value().empty());
  EXPECT_TRUE(backend->ResetStats().ok());
  EXPECT_FALSE(backend->History().value().empty());
  // Explain reaches the embedded planner (which rejects a base class),
  // not the remote backends' "needs the embedded engine" stub.
  EXPECT_NE(backend->Explain("Person").status().message().find("not a select"),
            std::string::npos);
  ASSERT_NE(backend->db(), nullptr);
  EXPECT_EQ(backend->client(), nullptr);

  ASSERT_TRUE(backend->Delete(bob).ok());
  EXPECT_TRUE(backend->Extent("Person").value().empty());

  // A clone shares ownership of the embedded engine: it stays fully
  // usable after every other handle on it is gone.
  std::unique_ptr<tse::Backend> survivor = backend->Clone().value();
  backend.reset();
  other.reset();
  ASSERT_TRUE(survivor->OpenSession("V").ok());
  Oid ann = survivor->Create("Person", {{"name", Value::Str("ann")}}).value();
  EXPECT_EQ(survivor->Extent("Person").value(), std::vector<Oid>{ann});
  ASSERT_TRUE(survivor->Apply("add_attribute city:string to Person").ok());
  EXPECT_EQ(survivor->GetSnapshot().value()->GetAttr(ann, "Person", "name")
                .value(),
            Value::Str("ann"));
  survivor.reset();

  // The same surface over the wire, plus the cluster coordinator: a
  // one-shard fleet is a degenerate but fully exercised cluster.
  auto db = tse::Db::Open(tse::DbOptions{}).value();
  tse::net::Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  const std::string host_port = "127.0.0.1:" + std::to_string(server.port());

  std::unique_ptr<tse::Backend> remote = tse::Connect("tcp:" + host_port)
                                             .value();
  ClassId r_person =
      remote
          ->AddBaseClass("Person", {},
                         {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  remote->CreateView("V", {{r_person, ""}}).value();
  ASSERT_TRUE(remote->OpenSession("V").ok());
  ASSERT_NE(remote->client(), nullptr);

  std::unique_ptr<tse::Backend> fleet =
      tse::Connect("cluster:" + host_port).value();
  tse::Cluster* cluster = dynamic_cast<tse::Cluster*>(fleet.get());
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->shard_count(), 1u);
  ASSERT_TRUE(fleet->OpenSession("V").ok());
  Oid eve = fleet->Create("Person", {{"name", Value::Str("eve")}}).value();
  EXPECT_EQ(cluster->ShardOf(eve), 0u);
  EXPECT_EQ(fleet->GetAttr(eve, "Person", "name").value(), Value::Str("eve"));
  fleet->Apply("add_attribute zip:string to Person").value();
  EXPECT_EQ(fleet->view_version(), 2);
  EXPECT_FALSE(fleet->Stats(/*as_json=*/true).value().empty());
  server.Stop();
}

}  // namespace
