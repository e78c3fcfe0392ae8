#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include <tse/db.h>
#include <tse/obs.h>
#include <tse/session.h>

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

std::unique_ptr<Db> MakeDb(DbOptions options = {}) {
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  db->CreateView("People", {{person, "Person"}}).value();
  return db;
}

TEST(SessionLifecycleTest, CloseWithOpenTransactionRollsBack) {
  auto db = MakeDb();
  Oid ghost;
  {
    auto session = db->OpenSession("People").value();
    ASSERT_TRUE(session->Begin().ok());
    ghost = session->Create("Person", {{"name", Value::Str("ghost")}}).value();
    EXPECT_TRUE(db->store().Exists(ghost));
    // Session destroyed with the transaction still open.
  }
  // The uncommitted create was rolled back.
  EXPECT_FALSE(db->store().Exists(ghost));
  auto checker = db->OpenSession("People").value();
  EXPECT_EQ(std::ranges::count(checker->Extent("Person").value(), ghost), 0);
}

TEST(SessionLifecycleTest, OpenSessionOnUnknownViewIsNotFound) {
  auto db = MakeDb();
  auto result = db->OpenSession("NoSuchView");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  // Unknown explicit version ids as well.
  EXPECT_TRUE(db->OpenSessionAt(ViewId(424242)).status().IsNotFound());
}

TEST(SessionLifecycleTest, SessionsOnDifferentVersionsSeeDisjointChanges) {
  auto db = MakeDb();
  // Two sessions fork the same logical view into disjoint version
  // lines: each sees its own change and not the other's.
  auto a = db->OpenSession("People").value();
  auto b = db->OpenSession("People").value();
  a->Apply("add_attribute office:string to Person").value();
  b->Apply("add_attribute badge:int to Person").value();
  ASSERT_NE(a->view_id(), b->view_id());

  Oid kim = a->Create("Person", {{"name", Value::Str("kim")}}).value();
  ASSERT_TRUE(a->Set(kim, "Person", "office", Value::Str("b42")).ok());
  ASSERT_TRUE(b->Set(kim, "Person", "badge", Value::Int(7)).ok());

  // a sees office but not badge; b sees badge but not office.
  EXPECT_TRUE(a->Get(kim, "Person", "office").ok());
  EXPECT_FALSE(a->Get(kim, "Person", "badge").ok());
  EXPECT_TRUE(b->Get(kim, "Person", "badge").ok());
  EXPECT_FALSE(b->Get(kim, "Person", "office").ok());
}

TEST(SessionLifecycleTest, DoubleBeginAndStrayCommitAreRejected) {
  auto db = MakeDb();
  auto session = db->OpenSession("People").value();
  EXPECT_FALSE(session->Commit().ok());
  EXPECT_FALSE(session->Rollback().ok());
  ASSERT_TRUE(session->Begin().ok());
  EXPECT_FALSE(session->Begin().ok());
  ASSERT_TRUE(session->Rollback().ok());
  // A fresh transaction works after the rollback.
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Commit().ok());
}

TEST(SessionLifecycleTest, SchemaChangeRejectedInsideTransaction) {
  auto db = MakeDb();
  auto session = db->OpenSession("People").value();
  ASSERT_TRUE(session->Begin().ok());
  auto result = session->Apply("add_attribute office:string to Person");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session->Rollback().ok());
  EXPECT_TRUE(session->Apply("add_attribute office:string to Person").ok());
}

uint64_t Counter(const std::string& name) {
  obs::MetricsSnapshot now = obs::MetricsRegistry::Instance().Snapshot();
  auto it = now.counters.find(name);
  return it == now.counters.end() ? 0 : it->second;
}

TEST(SessionLifecycleTest, LockWaitHoldsNoLatch) {
  // A transactional write waiting for a 2PL object lock must hold no Db
  // latch while it waits: other sessions keep writing, and the lock
  // holder can still commit, which hands the lock to the waiter.
  DbOptions options;
  options.lock_timeout = std::chrono::seconds(5);
  auto db = MakeDb(options);
  auto a = db->OpenSession("People").value();
  auto b = db->OpenSession("People").value();
  auto c = db->OpenSession("People").value();
  Oid o1 = a->Create("Person", {{"name", Value::Str("one")}}).value();
  Oid o2 = a->Create("Person", {{"name", Value::Str("two")}}).value();

  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(a->Set(o1, "Person", "name", Value::Str("a")).ok());
  ASSERT_TRUE(b->Begin().ok());
  const uint64_t waits = Counter("storage.lock.waits");
  auto b_set = std::async(std::launch::async, [&] {
    return b->Set(o1, "Person", "name", Value::Str("b"));
  });
  // Wait until B is parked on A's lock (bounded, in case counters are
  // compiled out).
  for (int i = 0; i < 200 && Counter("storage.lock.waits") == waits; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(b_set.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);

  auto c_set = std::async(std::launch::async, [&] {
    return c->Set(o2, "Person", "name", Value::Str("c"));
  });
  EXPECT_EQ(c_set.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "an autocommit write stalled behind a transaction's lock wait";
  EXPECT_TRUE(c_set.get().ok());
  EXPECT_EQ(b_set.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  ASSERT_TRUE(a->Commit().ok());
  Status b_status = b_set.get();
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  ASSERT_TRUE(b->Commit().ok());
  EXPECT_EQ(c->Get(o1, "Person", "name").value(), Value::Str("b"));
  EXPECT_EQ(c->Get(o2, "Person", "name").value(), Value::Str("c"));
}

TEST(SessionLifecycleTest, RebindRollsBackAndReleasesLocks) {
  auto db = MakeDb();
  auto a = db->OpenSession("People").value();
  Oid kim = a->Create("Person", {{"name", Value::Str("kim")}}).value();
  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(a->Set(kim, "Person", "name", Value::Str("pending")).ok());

  ASSERT_TRUE(a->OpenSession("People").ok());
  EXPECT_FALSE(a->in_transaction());
  EXPECT_EQ(a->Get(kim, "Person", "name").value(), Value::Str("kim"));

  // The exclusive lock went with the rollback.
  auto b = db->OpenSession("People").value();
  ASSERT_TRUE(b->Begin().ok());
  EXPECT_TRUE(b->Set(kim, "Person", "name", Value::Str("lee")).ok());
  ASSERT_TRUE(b->Commit().ok());

  // A failed rebind keeps the binding and its transaction.
  ASSERT_TRUE(a->Begin().ok());
  EXPECT_TRUE(a->OpenSession("NoSuchView").IsNotFound());
  EXPECT_TRUE(a->in_transaction());
  EXPECT_EQ(a->view_name(), "People");
  ASSERT_TRUE(a->Rollback().ok());
}

TEST(SessionLifecycleTest, UnboundSessionNeedsOpenSession) {
  auto db = MakeDb();
  Oid kim;
  {
    auto seed = db->OpenSession("People").value();
    kim = seed->Create("Person", {{"name", Value::Str("kim")}}).value();
  }
  Session unbound(db.get());
  EXPECT_FALSE(unbound.bound());
  EXPECT_EQ(unbound.view_name(), "");
  EXPECT_EQ(unbound.view_version(), 0);
  EXPECT_EQ(unbound.Where(), "embedded:");

  std::vector<Status> statuses = {
      unbound.Refresh(),
      unbound.Resolve("Person").status(),
      unbound.Get(kim, "Person", "name").status(),
      unbound.GetAttr(kim, "Person", "name").status(),
      unbound.Extent("Person").status(),
      unbound.Select("Person", "name = 'kim'").status(),
      unbound.ViewToString().status(),
      unbound.ListClasses().status(),
      unbound.GetSnapshot().status(),
      unbound.Create("Person", {}).status(),
      unbound.Set(kim, "Person", "name", Value::Str("x")),
      unbound.SetFromText(kim, "Person", "name", "'x'"),
      unbound.Add(kim, "Person"),
      unbound.Remove(kim, "Person"),
      unbound.Delete(kim),
      unbound.Begin(),
      unbound.Commit(),
      unbound.Rollback(),
      unbound.Apply("add_attribute zip:string to Person").status(),
      unbound.Prepare("add_attribute zip:string to Person").status(),
      unbound.Explain("Person").status(),
  };
  for (size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i].code(), StatusCode::kFailedPrecondition)
        << "method #" << i << ": " << statuses[i].ToString();
  }
  EXPECT_EQ(unbound.Get(kim, "Person", "name").status().message(),
            "no session open; call OpenSession");
  // The object survived every rejected mutation.
  EXPECT_TRUE(db->store().Exists(kim));

  // Global DDL, history and stats need no binding; binding then works.
  EXPECT_TRUE(unbound.History().ok());
  EXPECT_TRUE(unbound.Stats().ok());
  ASSERT_TRUE(unbound.OpenSession("People").ok());
  EXPECT_EQ(unbound.Get(kim, "Person", "name").value(), Value::Str("kim"));
}

#ifndef TSE_OBS_DISABLE  // the counters compile away
TEST(SessionLifecycleTest, OpenAndCloseCountBindings) {
  auto db = MakeDb();
  const uint64_t opens = Counter("db.session.opens");
  const uint64_t closes = Counter("db.session.closes");
  {
    Session never_bound(db.get());
    EXPECT_FALSE(never_bound.OpenSession("NoSuchView").ok());
  }
  EXPECT_EQ(Counter("db.session.opens"), opens);
  EXPECT_EQ(Counter("db.session.closes"), closes);

  auto session = db->OpenSession("People").value();
  EXPECT_EQ(Counter("db.session.opens"), opens + 1);
  ASSERT_TRUE(session->OpenSession("People").ok());  // rebind
  EXPECT_EQ(Counter("db.session.opens"), opens + 2);
  EXPECT_EQ(Counter("db.session.closes"), closes + 1);
  session.reset();
  EXPECT_EQ(Counter("db.session.closes"), closes + 2);
}
#endif

}  // namespace
}  // namespace tse
