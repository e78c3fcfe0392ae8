// End-to-end tests for the wire protocol: a real Server on a loopback
// ephemeral port, driven by tse::Client and by raw sockets (for the
// abuse cases a well-behaved client cannot produce).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <tse/client.h>
#include <tse/db.h>
#include <tse/server.h>
#include <tse/session.h>

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

DbOptions InMemory() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  return options;
}

/// Person <- Student <- TA with a "Main" view — the running example.
std::unique_ptr<Db> MakeUniversity() {
  auto db = Db::Open(InMemory()).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString),
                        PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ClassId student =
      db->AddBaseClass("Student", {person},
                       {PropertySpec::Attribute("major", ValueType::kString)})
          .value();
  ClassId ta = db->AddBaseClass("TA", {student}, {}).value();
  db->CreateView("Main", {{person, ""}, {student, ""}, {ta, ""}}).value();
  return db;
}

class ServerClientTest : public ::testing::Test {
 protected:
  void StartServer(net::ServerOptions options = {}) {
    db_ = MakeUniversity();
    options.port = 0;
    server_ = std::make_unique<net::Server>(db_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<Client> Connect() {
    return Client::Connect("127.0.0.1", server_->port()).value();
  }

  std::unique_ptr<Db> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ServerClientTest, FullSessionSurfaceOverTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client->Ping().ok());

  ASSERT_TRUE(client->OpenSession("Main").ok());
  EXPECT_EQ(client->view_name(), "Main");
  EXPECT_EQ(client->view_version(), 1);

  EXPECT_TRUE(client->Resolve("Student").ok());
  EXPECT_TRUE(client->Resolve("Professor").status().IsNotFound());

  Oid alice = client
                  ->Create("Student", {{"name", Value::Str("alice")},
                                       {"age", Value::Int(20)}})
                  .value();
  EXPECT_EQ(client->Get(alice, "Student", "name").value(),
            Value::Str("alice"));
  ASSERT_TRUE(
      client->Set(alice, "Student", "age", Value::Int(21)).ok());
  EXPECT_EQ(client->Get(alice, "Student", "age").value(), Value::Int(21));

  auto extent = client->Extent("Student").value();
  ASSERT_EQ(extent.size(), 1u);
  EXPECT_EQ(extent[0], alice);

  auto classes = client->ListClasses().value();
  EXPECT_EQ(classes.size(), 3u);
  EXPECT_NE(client->ViewToString().value().find("Student"),
            std::string::npos);

  // Transactions round-trip.
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Set(alice, "Student", "major",
                          Value::Str("databases"))
                  .ok());
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_EQ(client->Get(alice, "Student", "major").value(),
            Value::Str("databases"));

  // Rollback really rolls back.
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Set(alice, "Student", "age", Value::Int(99)).ok());
  ASSERT_TRUE(client->Rollback().ok());
  EXPECT_EQ(client->Get(alice, "Student", "age").value(), Value::Int(21));

  // Transparent schema evolution: the server-side session rebinds and
  // the client identity follows.
  ASSERT_TRUE(client->Apply("add_attribute register:bool to Student").ok());
  EXPECT_EQ(client->view_version(), 2);
  EXPECT_TRUE(client->Set(alice, "Student", "register", Value::Bool(true))
                  .ok());

  // Server stats come back as text (empty under TSE_OBS_DISABLE).
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
#ifndef TSE_OBS_DISABLE
  EXPECT_NE(stats.value().find("net.server.requests"), std::string::npos);
#endif
}

TEST_F(ServerClientTest, BootstrapFreshDatabaseOverTheWire) {
  // An empty Db: every view and class must be creatable remotely.
  db_ = Db::Open(InMemory()).value();
  server_ = std::make_unique<net::Server>(db_.get(), net::ServerOptions{});
  ASSERT_TRUE(server_->Start().ok());

  auto client = Connect();
  ClassId person =
      client
          ->AddBaseClass("Person", {},
                         {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  ASSERT_TRUE(client->CreateView("Boot", {{person, ""}}).ok());
  ASSERT_TRUE(client->OpenSession("Boot").ok());
  Oid oid = client->Create("Person", {{"name", Value::Str("eve")}}).value();
  EXPECT_EQ(client->Get(oid, "Person", "name").value(), Value::Str("eve"));
}

TEST_F(ServerClientTest, PinnedSessionSurvivesSchemaChangeUntilRefresh) {
  StartServer();
  auto reader = Connect();
  ASSERT_TRUE(reader->OpenSession("Main").ok());
  const ViewId v1 = reader->view_id();

  auto evolver = Connect();
  ASSERT_TRUE(evolver->OpenSession("Main").ok());
  ASSERT_TRUE(evolver->Apply("add_attribute gpa:real to Student").ok());
  EXPECT_EQ(evolver->view_version(), 2);

  // The reader stays pinned at version 1 — the paper's transparency
  // contract, preserved across the wire.
  EXPECT_EQ(reader->view_version(), 1);
  EXPECT_TRUE(
      reader->Resolve("Student").ok());

  // Refresh rebinds to the current version.
  ASSERT_TRUE(reader->Refresh().ok());
  EXPECT_EQ(reader->view_version(), 2);

  // And an explicit historical open returns to the old schema.
  auto historian = Connect();
  ASSERT_TRUE(historian->OpenSessionAt(v1).ok());
  EXPECT_EQ(historian->view_version(), 1);
}

TEST_F(ServerClientTest, OnlineSchemaChangeMidPipelineDrainsNoConnection) {
  StartServer();  // online schema change is the DbOptions default

  // A writer holds an open strict-2PL transaction at version 1.
  auto writer = Connect();
  ASSERT_TRUE(writer->OpenSession("Main").ok());
  Oid oid = writer->Create("Student", {{"name", Value::Str("w")}}).value();
  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Set(oid, "Student", "age", Value::Int(30)).ok());
  const size_t conns_before = server_->active_connections();

  // Another connection evolves the view mid-pipeline. The online path
  // publishes without draining: the apply returns while the writer's
  // transaction still holds its object lock.
  auto evolver = Connect();
  ASSERT_TRUE(evolver->OpenSession("Main").ok());
  const uint64_t epoch_before = db_->epoch();
  ASSERT_TRUE(evolver->Apply("add_attribute gpa:real to Student").ok());
  EXPECT_EQ(evolver->view_version(), 2);
  EXPECT_GT(db_->epoch(), epoch_before);

  // No connection was dropped or drained by the change.
  EXPECT_EQ(server_->active_connections(), conns_before + 1);

  // The old-version client completes its open transaction untouched,
  // still pinned at version 1 — where the new attribute does not exist.
  EXPECT_EQ(writer->view_version(), 1);
  ASSERT_TRUE(writer->Set(oid, "Student", "age", Value::Int(31)).ok());
  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_EQ(writer->Get(oid, "Student", "age").value(), Value::Int(31));
  EXPECT_FALSE(writer->Set(oid, "Student", "gpa", Value::Real(3.5)).ok());

  // The evolved session reads the lazy default and can write through.
  EXPECT_TRUE(evolver->Get(oid, "Student", "gpa").value().is_null());
  ASSERT_TRUE(evolver->Set(oid, "Student", "gpa", Value::Real(3.5)).ok());
  EXPECT_EQ(evolver->Get(oid, "Student", "gpa").value(), Value::Real(3.5));

  // The online schema-change counters surface over the wire.
  auto stats = evolver->Stats();
  ASSERT_TRUE(stats.ok());
#ifndef TSE_OBS_DISABLE
  EXPECT_NE(stats.value().find("db.schema_change.online.publishes"),
            std::string::npos);
#endif
}

TEST_F(ServerClientTest, DisconnectMidTransactionReleasesLocks) {
  StartServer();
  auto writer = Connect();
  ASSERT_TRUE(writer->OpenSession("Main").ok());
  Oid victim = writer->Create("Student", {{"name", Value::Str("v")}}).value();

  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Set(victim, "Student", "age", Value::Int(1)).ok());

  // While the transaction holds its 2PL write lock, another session
  // cannot touch the object.
  auto rival = Connect();
  ASSERT_TRUE(rival->OpenSession("Main").ok());
  ASSERT_TRUE(rival->Begin().ok());
  Status blocked = rival->Set(victim, "Student", "age", Value::Int(2));
  EXPECT_FALSE(blocked.ok());
  ASSERT_TRUE(rival->Rollback().ok());

  // Kill the writer mid-transaction: the server must roll back and
  // release the locks without any explicit rollback message.
  writer.reset();

  // Close is asynchronous (the I/O thread notices EOF); poll until the
  // lock is free, bounded so a leak fails loudly instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Status freed = Status::Internal("never tried");
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(rival->Begin().ok());
    freed = rival->Set(victim, "Student", "age", Value::Int(3));
    if (freed.ok()) {
      ASSERT_TRUE(rival->Commit().ok());
      break;
    }
    ASSERT_TRUE(rival->Rollback().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(freed.ok())
      << "lock leaked after client disconnect: " << freed.ToString();
  EXPECT_EQ(rival->Get(victim, "Student", "age").value(), Value::Int(3));

  // The dead connection is fully torn down (bounded wait: the counter
  // drops just after the lock release).
  while (server_->active_connections() != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->active_connections(), 1u);
}

// --- Raw-socket abuse (what a correct client never sends) -------------------

/// A hand-rolled blocking connection speaking raw frames.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    timeval tv = {5, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  void SendRaw(const std::string& bytes) {
    ASSERT_EQ(send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void SendHello() {
    SendRaw(net::EncodeRequest<net::op::Hello>(net::kMagic,
                                               net::kProtoVersion));
    net::Response response;
    ASSERT_TRUE(RecvResponse(&response));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }

  /// Reads one response frame; false on EOF/timeout.
  bool RecvResponse(net::Response* out) {
    net::Frame frame;
    if (!RecvFrame(&frame)) return false;
    auto response = net::DecodeResponse(frame.body);
    if (!response.ok()) return false;
    *out = std::move(response).value();
    return true;
  }

  bool RecvFrame(net::Frame* out) {
    while (!reader_.Next(out)) {
      char buf[4096];
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      if (!reader_.Feed(buf, static_cast<size_t>(n)).ok()) return false;
    }
    return true;
  }

  /// True when the server closed its end (EOF after draining).
  bool AtEof() {
    char byte;
    ssize_t n = recv(fd_, &byte, 1, 0);
    while (n > 0) n = recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  net::FrameReader reader_;
};

TEST_F(ServerClientTest, GarbageOpcodeGetsErrorButConnectionSurvives) {
  StartServer();
  RawConn conn(server_->port());
  conn.SendHello();

  std::string frame;
  net::AppendU32(&frame, 1);
  net::AppendU8(&frame, 0xee);  // not an opcode
  conn.SendRaw(frame);
  net::Response response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  // The connection is still serviceable.
  conn.SendRaw(net::EncodeFrame(net::Opcode::kPing, ""));
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_TRUE(response.status.ok());
}

TEST_F(ServerClientTest, NonHelloFirstFrameForfeitsConnection) {
  StartServer();
  RawConn conn(server_->port());
  conn.SendRaw(net::EncodeFrame(net::Opcode::kPing, ""));
  net::Response response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(conn.AtEof());
}

TEST_F(ServerClientTest, BadMagicForfeitsConnection) {
  StartServer();
  RawConn conn(server_->port());
  conn.SendRaw(net::EncodeRequest<net::op::Hello>(uint32_t{0x0BADF00D},
                                                  net::kProtoVersion));
  net::Response response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.AtEof());
}

TEST_F(ServerClientTest, OversizedFrameAnnouncementClosesConnection) {
  net::ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  RawConn conn(server_->port());
  conn.SendHello();

  std::string header;
  net::AppendU32(&header, 1 << 20);  // 1 MiB announcement, 1 KiB limit
  conn.SendRaw(header);
  net::Response response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.AtEof());

  // The server itself is unharmed: fresh clients still work.
  auto client = Connect();
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerClientTest, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  StartServer();
  {
    RawConn conn(server_->port());
    conn.SendHello();
    std::string partial;
    net::AppendU32(&partial, 100);  // announce 100 bytes...
    net::AppendU8(&partial, static_cast<uint8_t>(net::Opcode::kSet));
    conn.SendRaw(partial);  // ...deliver 1, then vanish
  }
  auto client = Connect();
  ASSERT_TRUE(client->OpenSession("Main").ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerClientTest, TruncatedBodyFieldGetsCorruptionNotCrash) {
  StartServer();
  RawConn conn(server_->port());
  conn.SendHello();
  // kOpenSession whose string announces more bytes than the body holds.
  std::string body;
  net::AppendU32(&body, 500);
  body += "Ma";
  conn.SendRaw(net::EncodeFrame(net::Opcode::kOpenSession, body));
  net::Response response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_TRUE(response.status.IsCorruption());

  // List counts are the peer's claim: an empty name then a count of
  // 2^32-1 must be refused before anything is allocated (create_view's
  // frame is 13 bytes), and so must a body with a byte left over after
  // its last field. The connection keeps serving either way.
  std::string huge_list;
  net::AppendString(&huge_list, "");
  net::AppendU32(&huge_list, 0xFFFFFFFF);
  const std::vector<std::string> abuse = {
      net::EncodeFrame(net::Opcode::kCreateView, huge_list),
      net::EncodeFrame(net::Opcode::kAddBaseClass, huge_list),
      net::EncodeFrame(net::Opcode::kCreate, huge_list),
      net::EncodeFrame(net::Opcode::kPing, std::string(1, '\0')),
  };
  EXPECT_EQ(abuse[0].size(), 13u);
  for (const std::string& frame : abuse) {
    conn.SendRaw(frame);
    ASSERT_TRUE(conn.RecvResponse(&response));
    EXPECT_TRUE(response.status.IsCorruption()) << response.status.ToString();
    conn.SendRaw(net::EncodeFrame(net::Opcode::kPing, ""));
    ASSERT_TRUE(conn.RecvResponse(&response));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST_F(ServerClientTest, PipelineDepthOverloadIsExplicit) {
  net::ServerOptions options;
  options.workers = 1;
  options.max_pending_per_conn = 1;
  options.debug_handler_delay = std::chrono::milliseconds(100);
  options.request_timeout = std::chrono::milliseconds(10000);
  StartServer(options);

  RawConn conn(server_->port());
  conn.SendHello();

  // Blast pings without reading: 1 goes in flight, 1 buffers, the rest
  // must be refused loudly — never silently stalled.
  const int kSent = 5;
  for (int i = 0; i < kSent; ++i) {
    conn.SendRaw(net::EncodeFrame(net::Opcode::kPing, ""));
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kSent; ++i) {
    net::Response response;
    ASSERT_TRUE(conn.RecvResponse(&response)) << "response " << i;
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(response.status.IsOverloaded())
          << response.status.ToString();
      ++overloaded;
    }
  }
  EXPECT_GE(ok, 2);          // the in-flight one + the buffered one
  EXPECT_GE(overloaded, 1);  // everything past the pipeline depth
  EXPECT_EQ(ok + overloaded, kSent);
}

TEST_F(ServerClientTest, QueueWaitBeyondDeadlineTimesOut) {
  net::ServerOptions options;
  options.workers = 1;
  options.request_timeout = std::chrono::milliseconds(50);
  options.debug_handler_delay = std::chrono::milliseconds(200);
  StartServer(options);

  // The debug delay makes every request wait past its deadline between
  // enqueue and execution — the worker must answer kTimeout without
  // running the handler.
  RawConn conn(server_->port());
  conn.SendRaw(
      net::EncodeRequest<net::op::Hello>(net::kMagic, net::kProtoVersion));
  net::Response response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_TRUE(response.status.IsTimeout()) << response.status.ToString();
}

TEST_F(ServerClientTest, IdleConnectionsAreReaped) {
  net::ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  StartServer(options);

  auto client = Connect();
  ASSERT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->active_connections(), 1u);

  // Sit idle past the timeout; the I/O thread reaps on its next tick.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server_->active_connections(), 0u);

  // The poisoned client reports the closed transport, not a hang.
  Status dead = client->Ping();
  EXPECT_FALSE(dead.ok());
}

TEST_F(ServerClientTest, ClientPoisonsAfterServerStops) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client->OpenSession("Main").ok());
  server_->Stop();
  Status first = client->Ping();
  EXPECT_FALSE(first.ok());
  // Once poisoned, every call reports kConnectionClosed immediately.
  Status second = client->Ping();
  EXPECT_TRUE(second.IsConnectionClosed()) << second.ToString();
}

TEST_F(ServerClientTest, ConnectToDeadPortFailsCleanly) {
  StartServer();
  const uint16_t port = server_->port();
  server_->Stop();
  auto attempt = Client::Connect("127.0.0.1", port);
  EXPECT_FALSE(attempt.ok());
}

TEST_F(ServerClientTest, ManyConcurrentClients) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kOpsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server_->port()).value();
      if (!client->OpenSession("Main").ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsEach; ++i) {
        auto oid = client->Create(
            "Student", {{"name", Value::Str("s" + std::to_string(t) + "_" +
                                            std::to_string(i))}});
        if (!oid.ok() ||
            !client->Get(oid.value(), "Student", "name").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto client = Connect();
  ASSERT_TRUE(client->OpenSession("Main").ok());
  EXPECT_EQ(client->Extent("Student").value().size(),
            static_cast<size_t>(kClients * kOpsEach));
}

}  // namespace
}  // namespace tse
