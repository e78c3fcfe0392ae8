#include "cluster/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <tuple>

#include "obs/metrics.h"

namespace tse {

namespace {

/// Applies `timeout` to both socket directions so every read/write
/// blocks at most that long.
void SetSocketTimeouts(int fd, std::chrono::milliseconds timeout) {
  timeval tv;
  tv.tv_sec = timeout.count() / 1000;
  tv.tv_usec = (timeout.count() % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Non-blocking connect bounded by `timeout`; returns the connected fd.
Result<int> ConnectWithTimeout(const std::string& host, uint16_t port,
                               std::chrono::milliseconds timeout) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  int rc = getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + host + ": " +
                                   gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    int fd = socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                    ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    fcntl(fd, F_SETFL, O_NONBLOCK);
    rc = connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd = {fd, POLLOUT, 0};
      rc = poll(&pfd, 1, static_cast<int>(timeout.count()));
      if (rc == 0) {
        close(fd);
        freeaddrinfo(addrs);
        return Status::Timeout("connect to " + host + ":" + service +
                               " timed out");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
      errno = err;
    }
    if (rc != 0) {
      last = Status::IOError("connect " + host + ":" + service + ": " +
                             std::strerror(errno));
      close(fd);
      continue;
    }
    // Back to blocking; per-request deadlines come from SO_*TIMEO.
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    freeaddrinfo(addrs);
    return fd;
  }
  freeaddrinfo(addrs);
  return last;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ClientOptions options) {
  TSE_ASSIGN_OR_RETURN(int fd,
                       ConnectWithTimeout(host, port, options.connect_timeout));
  SetSocketTimeouts(fd, options.request_timeout);
  std::unique_ptr<Client> client(
      new Client(fd, std::move(options),
                 "tcp:" + host + ":" + std::to_string(port)));
  TSE_RETURN_IF_ERROR(
      client->Call<net::op::Hello>(net::kMagic, net::kProtoVersion).status());
  return client;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Status Client::Poison(Status status) {
  broken_ = true;
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  return status;
}

Status Client::SendAll(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Poison(Status::Timeout("send timed out"));
    }
    return Poison(
        Status::ConnectionClosed(std::string("send: ") + std::strerror(errno)));
  }
  TSE_COUNT_N("net.client.bytes_sent", data.size());
  return Status::OK();
}

Status Client::RecvFrame(net::Frame* out) {
  char buf[4096];
  while (true) {
    if (reader_.Next(out)) return Status::OK();
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      TSE_COUNT_N("net.client.bytes_received", static_cast<uint64_t>(n));
      Status fed = reader_.Feed(buf, static_cast<size_t>(n));
      if (!fed.ok()) return Poison(fed);
      continue;
    }
    if (n == 0) {
      return Poison(Status::ConnectionClosed("server closed the connection"));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Poison(Status::Timeout("no response within request_timeout"));
    }
    return Poison(
        Status::ConnectionClosed(std::string("recv: ") + std::strerror(errno)));
  }
}

Result<std::string> Client::RoundTrip(net::Opcode op,
                                      const std::string& frame) {
  TSE_LATENCY_US("net.client.request_us");
  TSE_COUNT("net.client.requests");
  if (broken_ || fd_ < 0) {
    return Status::ConnectionClosed("client connection is closed");
  }
  TSE_RETURN_IF_ERROR(SendAll(frame));
  net::Frame response_frame;
  TSE_RETURN_IF_ERROR(RecvFrame(&response_frame));
  if (response_frame.opcode != op) {
    return Poison(Status::Corruption(
        std::string("response opcode mismatch: sent ") + net::OpcodeName(op) +
        ", got " + net::OpcodeName(response_frame.opcode)));
  }
  auto response = net::DecodeResponse(response_frame.body);
  if (!response.ok()) return Poison(response.status());
  if (!response.value().status.ok()) return response.value().status;
  return std::move(response).value().payload;
}

template <typename Row, typename... Args>
Result<typename Row::Response> Client::Call(const Args&... args) {
  TSE_ASSIGN_OR_RETURN(
      std::string payload,
      RoundTrip(Row::kOpcode, net::EncodeRequest<Row>(args...)));
  return net::DecodeBody<typename Row::Response>(payload);
}

Status Client::Bind(Result<net::SessionInfo> info) {
  TSE_ASSIGN_OR_RETURN(session_, std::move(info));
  return Status::OK();
}

// --- One table row per call -------------------------------------------------

Status Client::Ping() { return Call<net::op::Ping>().status(); }

Status Client::OpenSession(const std::string& view_name) {
  return Bind(Call<net::op::OpenSession>(view_name));
}

Status Client::OpenSessionAt(ViewId view_id) {
  return Bind(Call<net::op::OpenSessionAt>(view_id));
}

Status Client::Refresh() { return Bind(Call<net::op::Refresh>()); }

Result<ClassId> Client::Resolve(const std::string& display_name) {
  return Call<net::op::Resolve>(display_name);
}

Result<objmodel::Value> Client::Get(Oid oid, const std::string& class_name,
                                    const std::string& path) {
  return Call<net::op::Get>(oid, class_name, path);
}

Result<std::vector<Oid>> Client::Extent(const std::string& class_name) {
  return Call<net::op::Extent>(class_name);
}

Result<std::vector<Oid>> Client::Select(const std::string& class_name,
                                        const std::string& predicate) {
  return Call<net::op::Select>(class_name, predicate);
}

Result<std::string> Client::ViewToString() {
  return Call<net::op::ViewToString>();
}

Result<std::vector<std::string>> Client::ListClasses() {
  return Call<net::op::ListClasses>();
}

Result<std::unique_ptr<Client::Snapshot>> Client::OpenSnapshotFor(
    const net::SnapshotTarget& target) {
  TSE_ASSIGN_OR_RETURN(net::SnapshotInfo info,
                       Call<net::op::SnapshotOpen>(target));
  return std::unique_ptr<Snapshot>(new Snapshot(this, std::move(info)));
}

Result<std::unique_ptr<SnapshotHandle>> Client::GetSnapshot() {
  TSE_ASSIGN_OR_RETURN(auto snap, OpenSnapshotFor(std::tuple<>()));
  return std::unique_ptr<SnapshotHandle>(std::move(snap));
}

Result<std::unique_ptr<Client::Snapshot>> Client::OpenSnapshot(
    const std::string& view_name) {
  return OpenSnapshotFor(view_name);
}

Result<std::unique_ptr<Client::Snapshot>> Client::OpenSnapshotAt(
    ViewId view_id, uint64_t epoch) {
  return OpenSnapshotFor(std::tuple(view_id, epoch));
}

Client::Snapshot::~Snapshot() {
  // Best-effort close; on a poisoned connection the server releases the
  // snapshot with the connection itself.
  (void)client_->Call<net::op::SnapshotClose>(info_.id);
}

Result<objmodel::Value> Client::Snapshot::Get(Oid oid,
                                              const std::string& class_name,
                                              const std::string& path) {
  return client_->Call<net::op::SnapshotGet>(info_.id, oid, class_name, path);
}

Result<std::vector<Oid>> Client::Snapshot::Extent(
    const std::string& class_name) {
  return client_->Call<net::op::SnapshotExtent>(info_.id, class_name);
}

Result<std::vector<Oid>> Client::Snapshot::Select(
    const std::string& class_name, const std::string& predicate) {
  return client_->Call<net::op::SnapshotSelect>(info_.id, class_name,
                                                predicate);
}

Result<Oid> Client::Create(const std::string& class_name,
                           const std::vector<update::Assignment>& assignments) {
  return Call<net::op::Create>(class_name, assignments);
}

Status Client::Set(Oid oid, const std::string& class_name,
                   const std::string& attr, objmodel::Value value) {
  return Call<net::op::Set>(oid, class_name, attr, value).status();
}

Status Client::Add(Oid oid, const std::string& class_name) {
  return Call<net::op::Add>(oid, class_name).status();
}

Status Client::Remove(Oid oid, const std::string& class_name) {
  return Call<net::op::Remove>(oid, class_name).status();
}

Status Client::Delete(Oid oid) { return Call<net::op::Delete>(oid).status(); }

Status Client::Begin() { return Call<net::op::Begin>().status(); }
Status Client::Commit() { return Call<net::op::Commit>().status(); }
Status Client::Rollback() { return Call<net::op::Rollback>().status(); }

Result<ViewId> Client::Apply(const std::string& change_text) {
  TSE_RETURN_IF_ERROR(Bind(Call<net::op::Apply>(change_text)));
  return session_.view_id;
}

Result<Client::Prepared> Client::SchemaPrepare(const std::string& change_text) {
  return Call<net::op::SchemaPrepare>(change_text);
}

Result<ViewId> Client::SchemaFlip(uint64_t token) {
  TSE_RETURN_IF_ERROR(Bind(Call<net::op::SchemaFlip>(token)));
  return session_.view_id;
}

Status Client::SchemaAbort(uint64_t token) {
  return Call<net::op::SchemaAbort>(token).status();
}

Result<Client::ShardIdentity> Client::GetShardInfo() {
  return Call<net::op::ShardInfo>();
}

Result<std::string> Client::Stats(bool as_json) {
  return Call<net::op::Stats>(as_json);
}

Result<ClassId> Client::AddBaseClass(
    const std::string& name, const std::vector<ClassId>& supers,
    const std::vector<schema::PropertySpec>& props) {
  for (const schema::PropertySpec& spec : props) {
    if (spec.kind != schema::PropertyKind::kStoredAttribute) {
      return Status::InvalidArgument(
          "remote AddBaseClass carries stored attributes only; add methods "
          "with the add_method schema-change text");
    }
  }
  return Call<net::op::AddBaseClass>(name, supers, props);
}

Result<ViewId> Client::CreateView(
    const std::string& logical_name,
    const std::vector<view::ViewClassSpec>& classes) {
  return Call<net::op::CreateView>(logical_name, classes);
}

}  // namespace tse
