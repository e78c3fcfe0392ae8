#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "db/db.h"
#include "db/session.h"
#include "db/snapshot.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "view/view_schema.h"

namespace tse::net {

using objmodel::Value;

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Connection::Connection(int fd, size_t max_frame, Db* db)
    : fd(fd), reader(max_frame), session(std::make_unique<Session>(db)) {}

Server::Connection::~Connection() = default;

Server::Server(Db* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse listen host " +
                                   options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IOError("bind " + options_.host + ":" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, 128) != 0) {
    Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || epoll_fd_ < 0) {
    Stop();
    return Status::IOError("cannot create epoll/eventfd");
  }
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stopping_.store(false, std::memory_order_release);
  started_ = true;
  io_thread_ = std::thread([this] { IoLoop(); });
  const int workers = options_.workers > 0 ? options_.workers : 1;
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;

  uint64_t ping = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &ping, sizeof(ping));
  {
    // Notify under the queue mutex: a worker that tested stopping_ but
    // has not started waiting yet would otherwise miss the wake-up and
    // block Stop's join forever.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  io_thread_.join();

  // Single-threaded from here: abort whatever each surviving connection
  // had in flight (Session teardown rolls back and releases locks).
  for (auto& [fd, conn] : connections_) {
    conn->session.reset();
    close(conn->fd);
    TSE_COUNT("net.server.connections_closed");
  }
  connections_.clear();
  active_connections_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();
  }

  close(epoll_fd_);
  close(wake_fd_);
  close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
  started_ = false;
}

// --- I/O thread --------------------------------------------------------------

void Server::IoLoop() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epoll_fd_, events, 64, 200);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n && !stopping_.load(std::memory_order_acquire);
         ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        while (true) {
          int conn_fd = accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (conn_fd < 0) break;
          int one = 1;
          setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_shared<Connection>(
              conn_fd, options_.max_frame_bytes, db_);
          conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
          connections_.emplace(conn_fd, conn);
          epoll_event ev = {};
          ev.events = EPOLLIN;
          ev.data.fd = conn_fd;
          epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn_fd, &ev);
          active_connections_.fetch_add(1, std::memory_order_relaxed);
          TSE_COUNT("net.server.connections_accepted");
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        BeginClose(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
    }
    ReapIdle();
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      TSE_COUNT_N("net.server.bytes_read", static_cast<uint64_t>(n));
      conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
      Status fed = conn->reader.Feed(buf, static_cast<size_t>(n));
      if (!fed.ok()) {
        // Framing abuse (oversized announcement, malformed header):
        // tell the peer once, then drop it.
        TSE_COUNT("net.server.bad_frames");
        WriteResponse(conn, EncodeResponse(Opcode::kHello,
                                           Status::InvalidArgument(
                                               fed.message())));
        BeginClose(conn);
        return;
      }
      continue;
    }
    if (n == 0) {
      BeginClose(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    BeginClose(conn);
    return;
  }
  Frame frame;
  while (conn->reader.Next(&frame)) ScheduleFrame(conn, std::move(frame));
}

void Server::ScheduleFrame(const std::shared_ptr<Connection>& conn,
                           Frame frame) {
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closing) return;
    if (conn->busy || !conn->pending.empty()) {
      if (conn->pending.size() >= options_.max_pending_per_conn) {
        overloaded = true;
      } else {
        conn->pending.push_back(std::move(frame));
        return;
      }
    } else {
      conn->busy = true;
    }
  }
  if (overloaded) {
    TSE_COUNT("net.server.overloaded");
    WriteResponse(conn,
                  EncodeResponse(frame.opcode,
                                 Status::Overloaded(
                                     "connection pipeline depth exceeded")));
    return;
  }
  Request request{conn, std::move(frame), std::chrono::steady_clock::now()};
  if (!TryEnqueue(std::move(request))) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->busy = false;
  }
}

bool Server::TryEnqueue(Request request) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.load(std::memory_order_acquire)) return false;
    if (queue_.size() < options_.max_queue) {
      queue_.push_back(std::move(request));
      queue_cv_.notify_one();
      return true;
    }
  }
  // Queue full: explicit backpressure, never a silent stall.
  TSE_COUNT("net.server.overloaded");
  WriteResponse(request.conn,
                EncodeResponse(request.frame.opcode,
                               Status::Overloaded("server request queue full")));
  return false;
}

void Server::ReapIdle() {
  if (options_.idle_timeout.count() <= 0) return;
  const int64_t cutoff = NowMs() - options_.idle_timeout.count();
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : connections_) {
    if (conn->last_active_ms.load(std::memory_order_relaxed) < cutoff) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : idle) {
    TSE_COUNT("net.server.idle_reaped");
    BeginClose(conn);
  }
}

void Server::BeginClose(const std::shared_ptr<Connection>& conn) {
  // I/O-thread only. Detach from epoll *before* publishing `closing`:
  // once a busy worker can observe the flag it may FinishClose — and
  // close(fd) — concurrently, leaving epoll_ctl aimed at a dead
  // (possibly recycled) descriptor.
  if (conn->io_detached) return;
  conn->io_detached = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  connections_.erase(conn->fd);
  bool finish_now;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closing = true;
    finish_now = !conn->busy;
  }
  if (finish_now) FinishClose(conn);
}

void Server::FinishClose(const std::shared_ptr<Connection>& conn) {
  {
    // Destroying the session rolls back any open transaction and
    // releases its 2PL locks — a dead client never wedges the rest.
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->session.reset();
  }
  close(conn->fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  TSE_COUNT("net.server.connections_closed");
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           const std::string& response) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t sent = 0;
  int stalls = 0;
  while (sent < response.size()) {
    ssize_t n = send(conn->fd, response.data() + sent, response.size() - sent,
                     MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Short-write handling: wait for the socket to drain, bounded so
      // a dead peer cannot pin a worker. Give up after ~2s and let the
      // I/O thread reap the connection.
      if (++stalls > 20) {
        shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      pollfd pfd = {conn->fd, POLLOUT, 0};
      poll(&pfd, 1, 100);
      continue;
    }
    // Peer vanished mid-write; the I/O thread will observe HUP.
    shutdown(conn->fd, SHUT_RDWR);
    return;
  }
  TSE_COUNT_N("net.server.bytes_written", response.size());
}

// --- Workers -----------------------------------------------------------------

void Server::WorkerLoop() {
  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      request = std::move(queue_.front());
      queue_.pop_front();
    }

    if (options_.debug_handler_delay.count() > 0) {
      std::this_thread::sleep_for(options_.debug_handler_delay);
    }

    const auto waited = std::chrono::steady_clock::now() - request.enqueued;
    std::string response;
    bool close_after = false;
    if (waited > options_.request_timeout) {
      TSE_COUNT("net.server.timeouts");
      response = EncodeResponse(
          request.frame.opcode,
          Status::Timeout("request waited " +
                          std::to_string(
                              std::chrono::duration_cast<
                                  std::chrono::milliseconds>(waited)
                                  .count()) +
                          " ms in queue, over the " +
                          std::to_string(options_.request_timeout.count()) +
                          " ms budget"));
    } else {
      response = Dispatch(*request.conn, request.frame, &close_after);
    }

    WriteResponse(request.conn, response);
    request.conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    if (close_after) shutdown(request.conn->fd, SHUT_RDWR);

    // Hand the connection back: either finish a close the I/O thread
    // started while we were executing, or schedule the next pipelined
    // frame.
    bool finish = false;
    bool have_next = false;
    Frame next;
    {
      std::lock_guard<std::mutex> lock(request.conn->mu);
      request.conn->busy = false;
      if (request.conn->closing) {
        finish = true;
      } else if (!request.conn->pending.empty()) {
        next = std::move(request.conn->pending.front());
        request.conn->pending.pop_front();
        request.conn->busy = true;
        have_next = true;
      }
    }
    if (finish) {
      FinishClose(request.conn);
    } else if (have_next) {
      Request follow{request.conn, std::move(next),
                     std::chrono::steady_clock::now()};
      if (!TryEnqueue(std::move(follow))) {
        std::lock_guard<std::mutex> lock(request.conn->mu);
        request.conn->busy = false;
      }
    }
  }
}

// --- Request dispatch --------------------------------------------------------

/// The server half of the opcode table (net/protocol.h): one
/// `Serve(ctx, Row{}, fields...)` overload per row, each a straight
/// transcription of the public surface. Rows without a response
/// payload return a bare Status.
struct Server::Handlers {
  /// What a handler may touch; `session` is bound whenever the row
  /// needs it (Run checks before calling the handler).
  struct Ctx {
    Db* db;
    Connection& conn;
    Session* session;
  };

  /// Decodes the body strictly, applies the row's session gate, runs
  /// the handler, and encodes the response frame.
  template <typename Row>
  static std::string Run(Ctx& ctx, const std::string& body) {
    auto fields = DecodeBody<typename Row::Request>(body);
    if (!fields.ok()) return EncodeResponse(Row::kOpcode, fields.status());
    if (Row::kNeedsSession && !ctx.session->bound()) {
      return EncodeResponse(
          Row::kOpcode,
          Status::FailedPrecondition(
              std::string("no session open; send open_session before ") +
              Row::kName));
    }
    auto result = std::apply(
        [&](auto&... field) { return Serve(ctx, Row{}, std::move(field)...); },
        fields.value());
    if constexpr (std::is_same_v<decltype(result), Status>) {
      return EncodeResponse(Row::kOpcode, result);
    } else {
      if (!result.ok()) return EncodeResponse(Row::kOpcode, result.status());
      std::string payload;
      Codec<typename Row::Response>::Write(&payload, result.value());
      return EncodeResponse(Row::kOpcode, Status::OK(), payload);
    }
  }

  static SessionInfo InfoOf(const Session& s) {
    return {s.view_name(), s.view_id(), s.view_version()};
  }
  static Result<SessionInfo> Bound(Ctx& c, Status bind) {
    TSE_RETURN_IF_ERROR(bind);
    TSE_COUNT("net.server.sessions_opened");
    return InfoOf(*c.session);
  }
  static Result<SnapshotHandle*> FindSnapshot(Ctx& c, uint64_t id) {
    auto it = c.conn.snapshots.find(id);
    if (it == c.conn.snapshots.end()) {
      return Status::NotFound("no such snapshot id");
    }
    return it->second.get();
  }
  static Result<PreparedSchemaChange> TakePrepared(Ctx& c, uint64_t token) {
    auto it = c.conn.prepared.find(token);
    if (it == c.conn.prepared.end()) {
      return Status::NotFound("no such prepared change");
    }
    PreparedSchemaChange prepared = std::move(it->second);
    c.conn.prepared.erase(it);
    return prepared;
  }

  // --- Connection and session lifecycle -------------------------------------

  static Result<uint16_t> Serve(Ctx& c, op::Hello, uint32_t magic,
                                uint16_t version) {
    if (c.conn.hello_done) return kProtoVersion;
    if (magic != kMagic) {
      TSE_COUNT("net.server.bad_frames");
      return Status::InvalidArgument("bad hello magic");
    }
    if (version != kProtoVersion) {
      return Status::InvalidArgument(
          "protocol version " + std::to_string(version) +
          " unsupported; server speaks " + std::to_string(kProtoVersion));
    }
    c.conn.hello_done = true;
    return kProtoVersion;
  }
  static Status Serve(Ctx&, op::Ping) { return Status::OK(); }
  static Result<SessionInfo> Serve(Ctx& c, op::OpenSession, std::string name) {
    return Bound(c, c.session->OpenSession(name));
  }
  static Result<SessionInfo> Serve(Ctx& c, op::OpenSessionAt, ViewId view) {
    return Bound(c, c.session->OpenSessionAt(view));
  }
  static Result<SessionInfo> Serve(Ctx& c, op::SessionInfo) {
    return InfoOf(*c.session);
  }

  // --- Session reads and updates --------------------------------------------

  static Result<ClassId> Serve(Ctx& c, op::Resolve, std::string name) {
    return c.session->Resolve(name);
  }
  static Result<Value> Serve(Ctx& c, op::Get, Oid oid, std::string cls,
                             std::string path) {
    return c.session->Get(oid, cls, path);
  }
  static Result<std::vector<Oid>> Serve(Ctx& c, op::Extent, std::string cls) {
    return c.session->Extent(cls);
  }
  static Result<std::vector<Oid>> Serve(Ctx& c, op::Select, std::string cls,
                                        std::string predicate) {
    return c.session->Select(cls, predicate);
  }
  static Result<std::string> Serve(Ctx& c, op::ViewToString) {
    return c.session->ViewToString();
  }
  static Result<std::vector<std::string>> Serve(Ctx& c, op::ListClasses) {
    return c.session->ListClasses();
  }
  static Result<Oid> Serve(Ctx& c, op::Create, std::string cls,
                           std::vector<update::Assignment> values) {
    return c.session->Create(cls, values);
  }
  static Status Serve(Ctx& c, op::Set, Oid oid, std::string cls,
                      std::string attr, Value value) {
    return c.session->Set(oid, cls, attr, std::move(value));
  }
  static Status Serve(Ctx& c, op::Add, Oid oid, std::string cls) {
    return c.session->Add(oid, cls);
  }
  static Status Serve(Ctx& c, op::Remove, Oid oid, std::string cls) {
    return c.session->Remove(oid, cls);
  }
  static Status Serve(Ctx& c, op::Delete, Oid oid) {
    return c.session->Delete(oid);
  }
  static Status Serve(Ctx& c, op::Begin) { return c.session->Begin(); }
  static Status Serve(Ctx& c, op::Commit) { return c.session->Commit(); }
  static Status Serve(Ctx& c, op::Rollback) { return c.session->Rollback(); }

  // --- Schema evolution -----------------------------------------------------
  // Prepared changes live on the connection, so a disconnect discards
  // them.

  static Result<SessionInfo> Serve(Ctx& c, op::Apply, std::string change) {
    TSE_RETURN_IF_ERROR(c.session->Apply(change).status());
    TSE_COUNT("net.server.schema_changes");
    return InfoOf(*c.session);
  }
  static Result<SessionInfo> Serve(Ctx& c, op::Refresh) {
    TSE_RETURN_IF_ERROR(c.session->Refresh());
    return InfoOf(*c.session);
  }
  static Result<PreparedChange> Serve(Ctx& c, op::SchemaPrepare,
                                      std::string change) {
    TSE_ASSIGN_OR_RETURN(PreparedSchemaChange prepared,
                         c.session->Prepare(change));
    const uint64_t token = c.conn.next_prepared_id++;
    PreparedChange out{token, prepared.new_view,
                       static_cast<int32_t>(prepared.schema->version()),
                       prepared.expected_epoch};
    c.conn.prepared.emplace(token, std::move(prepared));
    TSE_COUNT("net.server.schema_prepares");
    return out;
  }
  static Result<SessionInfo> Serve(Ctx& c, op::SchemaFlip, uint64_t token) {
    TSE_ASSIGN_OR_RETURN(PreparedSchemaChange prepared,
                         TakePrepared(c, token));
    TSE_RETURN_IF_ERROR(c.session->CommitPrepared(prepared).status());
    TSE_COUNT("net.server.schema_changes");
    return InfoOf(*c.session);
  }
  static Status Serve(Ctx& c, op::SchemaAbort, uint64_t token) {
    TSE_ASSIGN_OR_RETURN(PreparedSchemaChange prepared,
                         TakePrepared(c, token));
    return c.session->AbortPrepared(prepared);
  }

  // --- Observability, global DDL, shard identity ----------------------------

  static Result<std::string> Serve(Ctx& c, op::Stats, bool as_json) {
    return c.session->Stats(as_json);
  }
  static Result<ClassId> Serve(Ctx& c, op::AddBaseClass, std::string name,
                               std::vector<ClassId> supers,
                               std::vector<schema::PropertySpec> props) {
    for (const schema::PropertySpec& prop : props) {
      if (prop.value_type > objmodel::ValueType::kRef) {
        return Status::InvalidArgument(
            "unknown value type " +
            std::to_string(static_cast<int>(prop.value_type)) +
            " for attribute " + prop.name);
      }
    }
    return c.session->AddBaseClass(name, supers, props);
  }
  static Result<ViewId> Serve(Ctx& c, op::CreateView, std::string name,
                              std::vector<view::ViewClassSpec> classes) {
    return c.session->CreateView(name, classes);
  }
  static Result<ShardIdentity> Serve(Ctx& c, op::ShardInfo) {
    return ShardIdentity{c.db->options().shard_id,
                         c.db->options().shard_count, c.db->epoch()};
  }

  // --- Snapshot reads (MVCC; DESIGN.md §13) ---------------------------------

  static Result<SnapshotInfo> Serve(Ctx& c, op::SnapshotOpen,
                                    SnapshotTarget target) {
    std::unique_ptr<SnapshotHandle> snap;
    if (const auto* name = std::get_if<std::string>(&target)) {
      TSE_ASSIGN_OR_RETURN(snap, c.db->OpenSnapshot(*name));
    } else if (const auto* at =
                   std::get_if<std::tuple<ViewId, uint64_t>>(&target)) {
      TSE_ASSIGN_OR_RETURN(
          snap, c.db->OpenSnapshotAt(std::get<0>(*at), std::get<1>(*at)));
    } else if (!c.session->bound()) {
      return Status::FailedPrecondition(
          "snapshot_open mode 2 needs an open session");
    } else {
      TSE_ASSIGN_OR_RETURN(snap, c.session->GetSnapshot());
    }
    const uint64_t id = c.conn.next_snapshot_id++;
    SnapshotInfo info{id, snap->epoch(), snap->view_id(),
                      static_cast<uint32_t>(snap->view_version()),
                      snap->view_name()};
    c.conn.snapshots.emplace(id, std::move(snap));
    return info;
  }
  static Result<Value> Serve(Ctx& c, op::SnapshotGet, uint64_t id, Oid oid,
                             std::string cls, std::string path) {
    TSE_ASSIGN_OR_RETURN(SnapshotHandle* snap, FindSnapshot(c, id));
    return snap->Get(oid, cls, path);
  }
  static Result<std::vector<Oid>> Serve(Ctx& c, op::SnapshotExtent,
                                        uint64_t id, std::string cls) {
    TSE_ASSIGN_OR_RETURN(SnapshotHandle* snap, FindSnapshot(c, id));
    return snap->Extent(cls);
  }
  static Result<std::vector<Oid>> Serve(Ctx& c, op::SnapshotSelect,
                                        uint64_t id, std::string cls,
                                        std::string predicate) {
    TSE_ASSIGN_OR_RETURN(SnapshotHandle* snap, FindSnapshot(c, id));
    return snap->Select(cls, predicate);
  }
  static Status Serve(Ctx& c, op::SnapshotClose, uint64_t id) {
    if (c.conn.snapshots.erase(id) == 0) {
      return Status::NotFound("no such snapshot id");
    }
    return Status::OK();
  }
};

std::string Server::Dispatch(Connection& conn, const Frame& frame,
                             bool* close_after) {
  TSE_LATENCY_US("net.server.request_us");
  TSE_TRACE_SPAN("net.server.request");
  TSE_COUNT("net.server.requests");
  const Opcode op = frame.opcode;
  if (!IsKnownOpcode(static_cast<uint8_t>(op))) {
    TSE_COUNT("net.server.bad_frames");
    return EncodeResponse(
        op, Status::InvalidArgument(
                "unknown opcode " +
                std::to_string(static_cast<int>(frame.opcode))));
  }

  // The hello exchange gates everything: a peer that speaks first with
  // anything else (wrong magic, random bytes that framed by accident)
  // is not a TSE client and forfeits the connection.
  if (!conn.hello_done && op != Opcode::kHello) {
    *close_after = true;
    TSE_COUNT("net.server.bad_frames");
    return EncodeResponse(
        op, Status::FailedPrecondition("hello required before any request"));
  }
  Handlers::Ctx ctx{db_, conn, conn.session.get()};
  std::string response;
  ForEachRpc([&]<typename Row>() {
    if (op == Row::kOpcode) response = Handlers::Run<Row>(ctx, frame.body);
  });
  if (!conn.hello_done) *close_after = true;  // the hello itself failed
  return response;
}

}  // namespace tse::net
