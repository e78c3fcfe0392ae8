#include "net/wire.h"

#include <array>
#include <cstring>

#include "net/protocol.h"

namespace tse::net {

namespace {

template <typename T>
void AppendRaw(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

/// Wire names indexed by opcode byte; null where the opcode table
/// (net/protocol.h) has no row.
constexpr std::array<const char*, 256> kOpcodeNames = [] {
  std::array<const char*, 256> names{};
  ForEachRpc([&]<typename Row>() {
    names[static_cast<uint8_t>(Row::kOpcode)] = Row::kName;
  });
  return names;
}();

}  // namespace

bool IsKnownOpcode(uint8_t raw) { return kOpcodeNames[raw] != nullptr; }

const char* OpcodeName(Opcode op) {
  const char* name = kOpcodeNames[static_cast<uint8_t>(op)];
  return name != nullptr ? name : "unknown";
}

void AppendU8(std::string* out, uint8_t v) { AppendRaw(out, v); }
void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, v); }

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void AppendValue(std::string* out, const objmodel::Value& v) {
  v.EncodeTo(out);
}

std::string EncodeFrame(Opcode op, const std::string& body) {
  std::string out;
  out.reserve(kHeaderBytes + 1 + body.size());
  AppendU32(&out, static_cast<uint32_t>(1 + body.size()));
  AppendU8(&out, static_cast<uint8_t>(op));
  out.append(body);
  return out;
}

std::string EncodeResponse(Opcode op, const Status& status,
                           const std::string& payload) {
  std::string body;
  AppendU8(&body, static_cast<uint8_t>(status.code()));
  AppendString(&body, status.ok() ? std::string() : status.message());
  if (status.ok()) body.append(payload);
  return EncodeFrame(op, body);
}

// --- Cursor ------------------------------------------------------------------

Status Cursor::Need(size_t n) {
  if (pos_ + n > data_.size()) {
    return Status::Corruption("truncated message body");
  }
  return Status::OK();
}

Result<uint8_t> Cursor::U8() {
  TSE_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Status Cursor::Copy(void* out, size_t n) {
  TSE_RETURN_IF_ERROR(Need(n));
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<uint32_t> Cursor::U32() {
  uint32_t v;
  TSE_RETURN_IF_ERROR(Copy(&v, sizeof(v)));
  return v;
}

Result<uint64_t> Cursor::U64() {
  uint64_t v;
  TSE_RETURN_IF_ERROR(Copy(&v, sizeof(v)));
  return v;
}

Result<std::string> Cursor::Str() {
  TSE_ASSIGN_OR_RETURN(uint32_t len, U32());
  TSE_RETURN_IF_ERROR(Need(len));
  std::string s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

Result<objmodel::Value> Cursor::Val() {
  return objmodel::Value::DecodeFrom(data_, &pos_);
}

// --- Responses ---------------------------------------------------------------

Result<Response> DecodeResponse(const std::string& body) {
  Cursor cursor(body);
  TSE_ASSIGN_OR_RETURN(uint8_t raw_code, cursor.U8());
  TSE_ASSIGN_OR_RETURN(std::string message, cursor.Str());
  Response response;
  if (raw_code >= kStatusCodeCount) {
    return Status::Corruption("response carries unknown status code " +
                              std::to_string(raw_code));
  }
  StatusCode code = static_cast<StatusCode>(raw_code);
  response.status =
      code == StatusCode::kOk ? Status::OK() : Status(code, std::move(message));
  response.payload = body.substr(body.size() - cursor.remaining());
  return response;
}

// --- FrameReader -------------------------------------------------------------

Status FrameReader::Feed(const char* data, size_t n) {
  TSE_RETURN_IF_ERROR(error_);
  buffer_.append(data, n);
  while (buffer_.size() >= kHeaderBytes) {
    uint32_t len;
    std::memcpy(&len, buffer_.data(), 4);
    if (len < 1) {
      error_ = Status::Corruption("frame too short to carry an opcode");
      return error_;
    }
    if (len > max_frame_bytes_) {
      error_ = Status::Corruption(
          "frame of " + std::to_string(len) + " bytes exceeds limit of " +
          std::to_string(max_frame_bytes_));
      return error_;
    }
    if (buffer_.size() < kHeaderBytes + len) break;
    Frame frame;
    frame.opcode = static_cast<Opcode>(buffer_[kHeaderBytes]);
    frame.body = buffer_.substr(kHeaderBytes + 1, len - 1);
    buffer_.erase(0, kHeaderBytes + len);
    frames_.push_back(std::move(frame));
  }
  return Status::OK();
}

bool FrameReader::Next(Frame* out) {
  if (frames_.empty()) return false;
  *out = std::move(frames_.front());
  frames_.pop_front();
  return true;
}

}  // namespace tse::net
