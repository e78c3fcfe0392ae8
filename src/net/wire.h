#ifndef TSE_NET_WIRE_H_
#define TSE_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/result.h"
#include "objmodel/value.h"

namespace tse::net {

/// The TSE wire protocol: length-prefixed binary frames over TCP.
///
///   frame    := payload_len:u32le  opcode:u8  body
///   request  := frame                       (body is opcode-specific)
///   response := frame whose body starts with
///                 status_code:u8  message:string  [result payload]
///
/// All integers are little-endian and fixed-width; a `string` is
/// `len:u32le` followed by `len` raw bytes; a `Value` uses the codec in
/// objmodel/value.h. `payload_len` counts everything after itself
/// (opcode included) and is bounded by the negotiated max frame size —
/// an oversized announcement is a protocol error, not an allocation.
///
/// A connection opens with a `kHello` exchange carrying the magic and
/// protocol version; everything after mirrors the `tse::Session` /
/// `tse::Db` public surface one message per entry point. The field
/// layout of every message is in the opcode table (net/protocol.h);
/// docs/API.md lists it for readers.

inline constexpr uint32_t kMagic = 0x31455354;  // "TSE1" little-endian
inline constexpr uint16_t kProtoVersion = 1;
inline constexpr size_t kHeaderBytes = 4;
inline constexpr size_t kDefaultMaxFrameBytes = 16 * 1024 * 1024;

/// One message kind per public entry point; responses echo the request
/// opcode. Values are wire-stable: append, never renumber. What each
/// carries, and what it means, is its row in the opcode table
/// (net/protocol.h).
enum class Opcode : uint8_t {
  kHello = 1,
  kPing = 2,
  kOpenSession = 3,
  kOpenSessionAt = 4,
  kSessionInfo = 5,
  kResolve = 6,
  kGet = 7,
  kExtent = 8,
  kViewToString = 9,
  kListClasses = 10,
  kCreate = 11,
  kSet = 12,
  kAdd = 13,
  kRemove = 14,
  kDelete = 15,
  kBegin = 16,
  kCommit = 17,
  kRollback = 18,
  kApply = 19,
  kRefresh = 20,
  kStats = 21,
  kAddBaseClass = 22,
  kCreateView = 23,
  // Appended by protocol revision "snapshot" (MVCC reads).
  kSnapshotOpen = 24,
  kSnapshotGet = 25,
  kSnapshotExtent = 26,
  kSnapshotSelect = 27,
  kSnapshotClose = 28,
  // Appended by protocol revision "cluster".
  kShardInfo = 29,
  kSelect = 30,
  kSchemaPrepare = 31,
  kSchemaFlip = 32,
  kSchemaAbort = 33,
};

/// True when `raw` names an opcode with a row in the opcode table
/// (net/protocol.h).
bool IsKnownOpcode(uint8_t raw);

/// The row's wire name ("get", "apply", ...), or "unknown".
const char* OpcodeName(Opcode op);

// --- Encoding ---------------------------------------------------------------

void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendString(std::string* out, const std::string& s);
void AppendValue(std::string* out, const objmodel::Value& v);

/// Wraps opcode + body into a complete frame (header included).
std::string EncodeFrame(Opcode op, const std::string& body);

/// Builds a complete response frame: echoed opcode, status, and (when
/// OK) the result payload.
std::string EncodeResponse(Opcode op, const Status& status,
                           const std::string& payload = "");

// --- Decoding ---------------------------------------------------------------

/// Bounds-checked sequential reader over a frame body. Every getter
/// fails with kCorruption instead of reading past the end, so a
/// truncated or garbage body can never crash the peer.
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> Str();
  Result<objmodel::Value> Val();
  /// Copies the next `n` raw bytes into `out`.
  Status Copy(void* out, size_t n);

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n);

  const std::string& data_;
  size_t pos_ = 0;
};

/// One decoded frame: the opcode plus its raw body.
struct Frame {
  Opcode opcode;
  std::string body;
};

/// A decoded response body: the wire status plus the result payload.
struct Response {
  Status status;
  std::string payload;
};

/// Splits a response frame body into status + payload.
Result<Response> DecodeResponse(const std::string& body);

/// Incremental frame decoder for a byte stream: feed whatever arrived
/// (partial reads welcome), pop complete frames. Rejects a frame whose
/// announced length exceeds `max_frame_bytes` or cannot hold an opcode;
/// after an error the reader is poisoned and every call fails.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends `n` raw bytes and extracts every now-complete frame.
  Status Feed(const char* data, size_t n);

  /// Pops the oldest complete frame; false when none is ready.
  bool Next(Frame* out);

  /// Bytes buffered but not yet forming a complete frame.
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  std::deque<Frame> frames_;
  Status error_;
};

}  // namespace tse::net

#endif  // TSE_NET_WIRE_H_
