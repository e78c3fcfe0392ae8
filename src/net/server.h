#ifndef TSE_NET_SERVER_H_
#define TSE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/session.h"
#include "net/wire.h"

namespace tse {
class Db;
}  // namespace tse

namespace tse::net {

/// Configuration for Server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with Server::port().
  uint16_t port = 0;
  /// Worker threads executing requests against sessions.
  int workers = 4;
  /// Bounded request queue: a frame arriving while the queue is full is
  /// answered immediately with kOverloaded (explicit backpressure, no
  /// silent stall).
  size_t max_queue = 256;
  /// Frames a single connection may have buffered behind its in-flight
  /// request (pipelining depth) before it too sees kOverloaded.
  size_t max_pending_per_conn = 8;
  /// A request that waits in the queue longer than this is answered
  /// with kTimeout instead of being executed.
  std::chrono::milliseconds request_timeout{2000};
  /// Connections silent for longer than this are reaped.
  std::chrono::milliseconds idle_timeout{300000};
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Test hook: sleep this long in the worker before executing each
  /// request, to make overload/timeout windows deterministic.
  std::chrono::milliseconds debug_handler_delay{0};
};

/// The wire-protocol server: serves one `tse::Db` over TCP, mapping
/// each connection to a `tse::Session` pinned to the view version the
/// client requested — the paper's per-user schema transparency, over a
/// socket.
///
/// ## Threading
///
///   - One I/O thread owns the listener and every socket read (epoll,
///     edge-level default): it frames incoming bytes and feeds complete
///     requests to a bounded queue.
///   - N worker threads pop requests, execute them against the
///     connection's session, and write the response. A connection has
///     at most one request in flight (the `busy` flag), so its session
///     — a single-client handle — is only ever touched by one worker
///     at a time; concurrency across connections is the Db facade's
///     session-level concurrency.
///   - A client disconnect (or idle reaping) destroys the server-side
///     session, which rolls back any open transaction and releases its
///     2PL locks — other connections never see a stuck lock.
///
/// Stop() (and the destructor) drains cleanly: stops accepting, joins
/// the workers, aborts in-flight transactions, closes every socket.
class Server {
 public:
  /// `db` must outlive the server. The server opens sessions on it on
  /// behalf of clients; run DDL either before Start() or through the
  /// wire like any other client.
  explicit Server(Db* db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O + worker threads.
  Status Start();

  /// Idempotent clean shutdown; see class comment.
  void Stop();

  /// The bound port (resolves option `port == 0`); valid after Start().
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Live connection count (accepted minus closed).
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state. Reads and framing belong to the I/O thread;
  /// `session` belongs to whichever worker holds `busy`; `mu` guards
  /// the handoff (busy/closing/pending), `write_mu` serializes writes.
  struct Connection {
    // Defined in server.cc: the unique_ptr<Session> member needs the
    // complete Session type to destroy.
    Connection(int fd, size_t max_frame, Db* db);
    ~Connection();

    const int fd;
    FrameReader reader;
    // I/O-thread private: set once the fd has left the epoll set, so a
    // second BeginClose is a no-op without touching `mu`.
    bool io_detached = false;

    std::mutex mu;
    bool busy = false;
    bool closing = false;
    bool hello_done = false;
    std::deque<Frame> pending;

    std::mutex write_mu;
    /// Unbound until open_session; reset (rolling back any open
    /// transaction) when the connection closes.
    std::unique_ptr<Session> session;
    /// Snapshot handles opened over this connection, keyed by the wire
    /// snapshot id. Owned here so a disconnect (or idle reap) releases
    /// every pinned epoch exactly like it rolls back the session. Only
    /// the worker holding `busy` touches the map.
    std::unordered_map<uint64_t, std::unique_ptr<SnapshotHandle>> snapshots;
    uint64_t next_snapshot_id = 1;
    /// Prepared (phase-one) schema changes awaiting flip or abort,
    /// keyed by the wire token. Dropping the connection discards them —
    /// an unflipped prepare is a clean rollback by construction. Only
    /// the worker holding `busy` touches the map.
    std::unordered_map<uint64_t, PreparedSchemaChange> prepared;
    uint64_t next_prepared_id = 1;
    std::atomic<int64_t> last_active_ms{0};
  };

  struct Request {
    std::shared_ptr<Connection> conn;
    Frame frame;
    std::chrono::steady_clock::time_point enqueued;
  };

  void IoLoop();
  void WorkerLoop();

  /// Drains readable bytes, frames them, and schedules requests.
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Schedules one frame: marks the connection busy and enqueues, or
  /// buffers it behind the in-flight request, or answers kOverloaded.
  void ScheduleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  /// Pushes to the bounded queue; false + kOverloaded reply when full.
  bool TryEnqueue(Request request);

  /// One handler per opcode-table row (net/protocol.h); server.cc.
  struct Handlers;

  /// Executes one request against the connection (I/O-free), returning
  /// the encoded response frame. Sets `*close_after` for protocol
  /// violations that forfeit the connection (bad hello, framing abuse).
  std::string Dispatch(Connection& conn, const Frame& frame,
                       bool* close_after);

  /// Best-effort response write (short-write safe, bounded wait).
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const std::string& response);

  /// I/O-thread-side teardown for EOF / error / idle / shutdown: the
  /// session dies here (rolling back) unless a worker still owns the
  /// connection, in which case the worker finishes the job.
  void BeginClose(const std::shared_ptr<Connection>& conn);
  /// Final teardown once no worker owns the connection.
  void FinishClose(const std::shared_ptr<Connection>& conn);

  void ReapIdle();

  Db* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int wake_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;

  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Owned by the I/O thread while running (touched elsewhere only
  /// after threads are joined).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;

  std::atomic<size_t> active_connections_{0};
};

}  // namespace tse::net

#endif  // TSE_NET_SERVER_H_
