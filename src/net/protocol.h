#ifndef TSE_NET_PROTOCOL_H_
#define TSE_NET_PROTOCOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "net/wire.h"
#include "objmodel/value.h"
#include "schema/property.h"
#include "update/update_engine.h"
#include "view/view_manager.h"

namespace tse::net {

/// The TSE1 opcode table: each request kind described once — opcode,
/// wire name, whether it needs an open session, request field types,
/// response type — plus the one field codec that encodes and decodes
/// those types. The server dispatches through it (one handler per row),
/// the client builds every call from it, and wire_test iterates it.
/// Adding an opcode means appending to `Opcode`, adding a row, and
/// writing the row's server handler; the server does not compile
/// without one.

// --- Field codec -------------------------------------------------------------

/// `Write` appends a T; `Read` decodes one, failing with kCorruption
/// rather than reading past the end; `kMinBytes` is the shortest
/// encoding of a T, which bounds any element count a peer announces.
template <typename T>
struct Codec;

/// Small structs travel as their fields in order; specialize with
/// `static constexpr auto kFields = std::tuple{&T::a, &T::b, ...}`.
template <typename T>
struct WireFields;

template <std::integral T>
struct Codec<T> {
  static constexpr size_t kMinBytes = sizeof(T);
  static void Write(std::string* out, T v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  static Status Read(Cursor& in, T* v) {
    if constexpr (std::is_same_v<T, bool>) {
      TSE_ASSIGN_OR_RETURN(uint8_t raw, in.U8());
      *v = raw != 0;
      return Status::OK();
    }
    return in.Copy(v, sizeof(T));
  }
};

template <typename T>
  requires std::is_enum_v<T>
struct Codec<T> {
  using Raw = std::underlying_type_t<T>;
  static constexpr size_t kMinBytes = sizeof(Raw);
  static void Write(std::string* out, T v) {
    Codec<Raw>::Write(out, static_cast<Raw>(v));
  }
  static Status Read(Cursor& in, T* v) { return in.Copy(v, sizeof(Raw)); }
};

template <typename Tag>
struct Codec<Id<Tag>> {
  static constexpr size_t kMinBytes = 8;
  static void Write(std::string* out, Id<Tag> id) {
    AppendU64(out, id.value());
  }
  static Status Read(Cursor& in, Id<Tag>* id) {
    TSE_ASSIGN_OR_RETURN(uint64_t raw, in.U64());
    *id = Id<Tag>(raw);
    return Status::OK();
  }
};

template <>
struct Codec<std::string> {
  static constexpr size_t kMinBytes = 4;
  static void Write(std::string* out, const std::string& s) {
    AppendString(out, s);
  }
  static Status Read(Cursor& in, std::string* s) {
    TSE_ASSIGN_OR_RETURN(*s, in.Str());
    return Status::OK();
  }
};

template <>
struct Codec<objmodel::Value> {
  static constexpr size_t kMinBytes = 1;  // the type tag
  static void Write(std::string* out, const objmodel::Value& v) {
    AppendValue(out, v);
  }
  static Status Read(Cursor& in, objmodel::Value* v) {
    TSE_ASSIGN_OR_RETURN(*v, in.Val());
    return Status::OK();
  }
};

/// `count:u32` then the elements. The count is the peer's claim, so it
/// is checked against the bytes left before anything is allocated.
template <typename T>
struct Codec<std::vector<T>> {
  static_assert(Codec<T>::kMinBytes > 0, "list elements must take bytes");
  static constexpr size_t kMinBytes = 4;
  static void Write(std::string* out, const std::vector<T>& items) {
    AppendU32(out, static_cast<uint32_t>(items.size()));
    for (const T& item : items) Codec<T>::Write(out, item);
  }
  static Status Read(Cursor& in, std::vector<T>* items) {
    TSE_ASSIGN_OR_RETURN(uint32_t count, in.U32());
    if (count > in.remaining() / Codec<T>::kMinBytes) {
      return Status::Corruption("list of " + std::to_string(count) +
                                " items cannot fit in " +
                                std::to_string(in.remaining()) + " bytes");
    }
    items->resize(count);
    for (T& item : *items) TSE_RETURN_IF_ERROR(Codec<T>::Read(in, &item));
    return Status::OK();
  }
};

/// A field list (a request body, or an empty response) is its fields
/// back to back.
template <typename... F>
struct Codec<std::tuple<F...>> {
  static constexpr size_t kMinBytes = (size_t{0} + ... + Codec<F>::kMinBytes);
  static void Write(std::string* out, const std::tuple<F...>& fields) {
    std::apply([&](const F&... f) { (Codec<F>::Write(out, f), ...); },
               fields);
  }
  static Status Read(Cursor& in, std::tuple<F...>* fields) {
    Status status;
    std::apply(
        [&](F&... f) {
          (void)(... && (status = Codec<F>::Read(in, &f)).ok());
        },
        *fields);
    return status;
  }
};

/// One of several alternatives: `index:u8`, then that alternative.
template <typename... A>
struct Codec<std::variant<A...>> {
  static constexpr size_t kMinBytes = 1;
  static void Write(std::string* out, const std::variant<A...>& v) {
    AppendU8(out, static_cast<uint8_t>(v.index()));
    std::visit(
        [&](const auto& alt) {
          Codec<std::remove_cvref_t<decltype(alt)>>::Write(out, alt);
        },
        v);
  }
  static Status Read(Cursor& in, std::variant<A...>* v) {
    TSE_ASSIGN_OR_RETURN(uint8_t index, in.U8());
    if (index >= sizeof...(A)) {
      return Status::InvalidArgument("unknown alternative " +
                                     std::to_string(index));
    }
    Status status;
    [&]<size_t... I>(std::index_sequence<I...>) {
      (void)(... || (I == index &&
                     (status = Codec<A>::Read(in, &v->template emplace<I>()),
                      true)));
    }(std::index_sequence_for<A...>{});
    return status;
  }
};

template <typename T>
  requires requires { WireFields<T>::kFields; }
struct Codec<T> {
  template <typename M>
  using Field = std::remove_cvref_t<decltype(std::declval<T&>().*
                                             std::declval<M>())>;
  static constexpr size_t kMinBytes = std::apply(
      [](auto... m) {
        return (size_t{0} + ... + Codec<Field<decltype(m)>>::kMinBytes);
      },
      WireFields<T>::kFields);
  static void Write(std::string* out, const T& s) {
    std::apply(
        [&](auto... m) { (Codec<Field<decltype(m)>>::Write(out, s.*m), ...); },
        WireFields<T>::kFields);
  }
  static Status Read(Cursor& in, T* s) {
    Status status;
    std::apply(
        [&](auto... m) {
          (void)(... &&
                 (status = Codec<Field<decltype(m)>>::Read(in, &(s->*m)))
                     .ok());
        },
        WireFields<T>::kFields);
    return status;
  }
};

/// Decodes a whole body or payload: every declared field must be there
/// and nothing may follow the last one, so a field-list mismatch between
/// peers is an error rather than a silent misread.
template <typename T>
Result<T> DecodeBody(const std::string& body) {
  Cursor in(body);
  T value{};
  TSE_RETURN_IF_ERROR(Codec<T>::Read(in, &value));
  if (!in.AtEnd()) {
    return Status::Corruption(std::to_string(in.remaining()) +
                              " unexpected bytes after the last field");
  }
  return value;
}

// --- Structured fields -------------------------------------------------------

/// The bound view that open, apply, refresh and flip report.
struct SessionInfo {
  std::string view_name;
  ViewId view_id;
  int32_t view_version = 0;
};

/// snapshot_open's target, tagged by the open mode: the current version
/// of a named view, an explicit (view id, epoch), or the session's
/// bound view. All but the explicit mode pin the current epoch.
using SnapshotTarget =
    std::variant<std::string, std::tuple<ViewId, uint64_t>, std::tuple<>>;

/// snapshot_open's response: the per-connection snapshot id and what it
/// pinned.
struct SnapshotInfo {
  uint64_t id = 0;
  uint64_t epoch = 0;
  ViewId view_id;
  uint32_t view_version = 0;
  std::string view_name;
};

/// A phase-one schema change held server-side awaiting flip or abort.
struct PreparedChange {
  uint64_t token = 0;
  ViewId new_view;
  int32_t new_version = 0;
  /// Catalog epoch the prepare was taken against (flip fails with
  /// FailedPrecondition when the shard's catalog moved since).
  uint64_t expected_epoch = 0;
};

/// A server's shard identity + catalog epoch. Standalone servers report
/// shard 0 of 1.
struct ShardIdentity {
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
  uint64_t epoch = 0;
};

template <>
struct WireFields<SessionInfo> {
  static constexpr auto kFields = std::tuple{
      &SessionInfo::view_name, &SessionInfo::view_id,
      &SessionInfo::view_version};
};
template <>
struct WireFields<SnapshotInfo> {
  static constexpr auto kFields = std::tuple{
      &SnapshotInfo::id, &SnapshotInfo::epoch, &SnapshotInfo::view_id,
      &SnapshotInfo::view_version, &SnapshotInfo::view_name};
};
template <>
struct WireFields<PreparedChange> {
  static constexpr auto kFields = std::tuple{
      &PreparedChange::token, &PreparedChange::new_view,
      &PreparedChange::new_version, &PreparedChange::expected_epoch};
};
template <>
struct WireFields<ShardIdentity> {
  static constexpr auto kFields = std::tuple{
      &ShardIdentity::shard_id, &ShardIdentity::shard_count,
      &ShardIdentity::epoch};
};
template <>
struct WireFields<update::Assignment> {
  static constexpr auto kFields =
      std::tuple{&update::Assignment::name, &update::Assignment::value};
};
template <>
struct WireFields<view::ViewClassSpec> {
  static constexpr auto kFields =
      std::tuple{&view::ViewClassSpec::cls, &view::ViewClassSpec::display_name};
};

/// Stored attributes only: methods travel as add_method schema-change
/// text, never as DDL fields.
template <>
struct WireFields<schema::PropertySpec> {
  static constexpr auto kFields = std::tuple{
      &schema::PropertySpec::name, &schema::PropertySpec::value_type,
      &schema::PropertySpec::ref_target};
};

// --- The opcode table --------------------------------------------------------

/// A string literal usable as a template argument (a row's wire name).
template <size_t N>
struct WireName {
  constexpr WireName(const char (&text)[N]) { std::copy_n(text, N, chars); }
  char chars[N];
};

/// One row. `Request` is the body's field list, `Response` the payload
/// of an OK answer (`In<>`: none).
template <Opcode Code, WireName Name, bool NeedsSession, typename RequestT,
          typename ResponseT>
struct Rpc {
  static constexpr Opcode kOpcode = Code;
  static constexpr const char* kName = Name.chars;
  static constexpr bool kNeedsSession = NeedsSession;
  using Request = RequestT;
  using Response = ResponseT;
};

template <typename... Fields>
using In = std::tuple<Fields...>;
inline constexpr bool kAnytime = false;
inline constexpr bool kSession = true;

namespace op {
using enum Opcode;
using objmodel::Value;
using Str = std::string;
template <typename T>
using List = std::vector<T>;

// Connection and session lifecycle. The first frame must be a hello
// carrying kMagic and kProtoVersion; a later hello is a no-op.
struct Hello : Rpc<kHello, "hello", kAnytime,
                   In<uint32_t, uint16_t>, uint16_t> {};
struct Ping : Rpc<kPing, "ping", kAnytime, In<>, In<>> {};
struct OpenSession : Rpc<kOpenSession, "open_session", kAnytime,
                         In<Str>, net::SessionInfo> {};
struct OpenSessionAt : Rpc<kOpenSessionAt, "open_session_at", kAnytime,
                           In<ViewId>, net::SessionInfo> {};
struct SessionInfo : Rpc<kSessionInfo, "session_info", kSession,
                         In<>, net::SessionInfo> {};
// Session reads.
struct Resolve : Rpc<kResolve, "resolve", kSession, In<Str>, ClassId> {};
struct Get : Rpc<kGet, "get", kSession, In<Oid, Str, Str>, Value> {};
struct Extent : Rpc<kExtent, "extent", kSession, In<Str>, List<Oid>> {};
struct ViewToString : Rpc<kViewToString, "view_to_string", kSession,
                          In<>, Str> {};
struct ListClasses : Rpc<kListClasses, "list_classes", kSession,
                         In<>, List<Str>> {};
// Session updates (Section 3.3 generic operators).
struct Create : Rpc<kCreate, "create", kSession,
                    In<Str, List<update::Assignment>>, Oid> {};
struct Set : Rpc<kSet, "set", kSession, In<Oid, Str, Str, Value>, In<>> {};
struct Add : Rpc<kAdd, "add", kSession, In<Oid, Str>, In<>> {};
struct Remove : Rpc<kRemove, "remove", kSession, In<Oid, Str>, In<>> {};
struct Delete : Rpc<kDelete, "delete", kSession, In<Oid>, In<>> {};
// Transactions.
struct Begin : Rpc<kBegin, "begin", kSession, In<>, In<>> {};
struct Commit : Rpc<kCommit, "commit", kSession, In<>, In<>> {};
struct Rollback : Rpc<kRollback, "rollback", kSession, In<>, In<>> {};
// Schema evolution: the session rebinds to the new version.
struct Apply : Rpc<kApply, "apply", kSession, In<Str>, net::SessionInfo> {};
struct Refresh : Rpc<kRefresh, "refresh", kSession, In<>, net::SessionInfo> {};
// The server's metrics snapshot; the flag selects JSON over text.
struct Stats : Rpc<kStats, "stats", kAnytime, In<bool>, Str> {};
// Global DDL, so a fresh database can be bootstrapped over the wire.
struct AddBaseClass : Rpc<kAddBaseClass, "add_base_class", kAnytime,
                          In<Str, List<ClassId>, List<schema::PropertySpec>>,
                          ClassId> {};
struct CreateView : Rpc<kCreateView, "create_view", kAnytime,
                        In<Str, List<view::ViewClassSpec>>, ViewId> {};
// MVCC snapshot reads through a per-connection snapshot id; close or
// disconnect releases it. Independent of the session, whose view one
// open mode borrows.
struct SnapshotOpen : Rpc<kSnapshotOpen, "snapshot_open", kAnytime,
                          In<SnapshotTarget>, SnapshotInfo> {};
struct SnapshotGet : Rpc<kSnapshotGet, "snapshot_get", kAnytime,
                         In<uint64_t, Oid, Str, Str>, Value> {};
struct SnapshotExtent : Rpc<kSnapshotExtent, "snapshot_extent", kAnytime,
                            In<uint64_t, Str>, List<Oid>> {};
struct SnapshotSelect : Rpc<kSnapshotSelect, "snapshot_select", kAnytime,
                            In<uint64_t, Str, Str>, List<Oid>> {};
struct SnapshotClose : Rpc<kSnapshotClose, "snapshot_close", kAnytime,
                           In<uint64_t>, In<>> {};
// Cluster support: shard identity (checked by routers at connect), a
// live predicate select, and the two-phase schema change. A prepare
// assembles the successor version unpublished and returns a token;
// flip publishes it (FailedPrecondition if the catalog moved since);
// abort, or disconnect, discards it.
struct ShardInfo : Rpc<kShardInfo, "shard_info", kAnytime,
                       In<>, ShardIdentity> {};
struct Select : Rpc<kSelect, "select", kSession, In<Str, Str>, List<Oid>> {};
struct SchemaPrepare : Rpc<kSchemaPrepare, "schema_prepare", kSession,
                           In<Str>, PreparedChange> {};
struct SchemaFlip : Rpc<kSchemaFlip, "schema_flip", kSession,
                        In<uint64_t>, net::SessionInfo> {};
struct SchemaAbort : Rpc<kSchemaAbort, "schema_abort", kSession,
                         In<uint64_t>, In<>> {};

}  // namespace op

/// Every row, in opcode order.
using Rpcs = std::tuple<
    op::Hello, op::Ping, op::OpenSession, op::OpenSessionAt, op::SessionInfo,
    op::Resolve, op::Get, op::Extent, op::ViewToString, op::ListClasses,
    op::Create, op::Set, op::Add, op::Remove, op::Delete, op::Begin,
    op::Commit, op::Rollback, op::Apply, op::Refresh, op::Stats,
    op::AddBaseClass, op::CreateView, op::SnapshotOpen, op::SnapshotGet,
    op::SnapshotExtent, op::SnapshotSelect, op::SnapshotClose, op::ShardInfo,
    op::Select, op::SchemaPrepare, op::SchemaFlip, op::SchemaAbort>;

/// Calls `fn.template operator()<Row>()` once per row.
template <typename Fn>
constexpr void ForEachRpc(Fn&& fn) {
  [&]<typename... Row>(std::tuple<Row...>*) {
    (fn.template operator()<Row>(), ...);
  }(static_cast<Rpcs*>(nullptr));
}

/// A complete request frame for `Row`. The arguments convert one to one
/// to the row's request fields; a count or type mismatch does not
/// compile.
template <typename Row, typename... Args>
std::string EncodeRequest(const Args&... args) {
  using Fields = typename Row::Request;
  static_assert(sizeof...(Args) == std::tuple_size_v<Fields>,
                "argument count differs from the row's request fields");
  std::string frame(kHeaderBytes, '\0');
  AppendU8(&frame, static_cast<uint8_t>(Row::kOpcode));
  [&]<size_t... I>(std::index_sequence<I...>) {
    (Codec<std::tuple_element_t<I, Fields>>::Write(&frame, args), ...);
  }(std::index_sequence_for<Args...>{});
  const uint32_t payload_len =
      static_cast<uint32_t>(frame.size() - kHeaderBytes);
  std::memcpy(frame.data(), &payload_len, kHeaderBytes);
  return frame;
}

}  // namespace tse::net

#endif  // TSE_NET_PROTOCOL_H_
