#include "net/wire.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "net/protocol.h"

namespace tse::net {
namespace {

using objmodel::Value;

TEST(WireCodecTest, ScalarRoundTrip) {
  using Scalars =
      std::tuple<uint8_t, uint16_t, uint32_t, uint64_t, int32_t, bool,
                 std::string, std::string>;
  const Scalars sent{0xab, 0xbeef, 0xdeadbeef, 0x0123456789abcdefULL, -42,
                     true, "hello", ""};
  std::string body;
  Codec<Scalars>::Write(&body, sent);
  EXPECT_EQ(body.size(), 1u + 2 + 4 + 8 + 4 + 1 + (4 + 5) + 4);
  auto received = DecodeBody<Scalars>(body);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received.value(), sent);
}

TEST(WireCodecTest, ValueRoundTrip) {
  const Value values[] = {Value::Null(), Value::Int(-7), Value::Real(2.5),
                          Value::Bool(true), Value::Str("señor"),
                          Value::Ref(Oid(12))};
  std::string body;
  for (const Value& v : values) AppendValue(&body, v);
  Cursor cursor(body);
  for (const Value& v : values) {
    auto decoded = cursor.Val();
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), v);
  }
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(WireCodecTest, CursorRejectsEveryTruncation) {
  std::string body;
  AppendU64(&body, 99);
  AppendString(&body, "abcdef");
  // Chop the body at every length; no prefix may decode fully, and no
  // getter may read out of bounds.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    std::string partial = body.substr(0, cut);
    Cursor cursor(partial);
    auto num = cursor.U64();
    if (!num.ok()) {
      EXPECT_TRUE(num.status().IsCorruption());
      continue;
    }
    auto str = cursor.Str();
    EXPECT_FALSE(str.ok());
    EXPECT_TRUE(str.status().IsCorruption());
  }
}

TEST(WireCodecTest, StringLengthBeyondBodyIsCorruption) {
  std::string body;
  AppendU32(&body, 1000);  // announces 1000 bytes...
  body += "xy";            // ...delivers 2
  Cursor cursor(body);
  auto str = cursor.Str();
  ASSERT_FALSE(str.ok());
  EXPECT_TRUE(str.status().IsCorruption());
}

TEST(WireResponseTest, OkRoundTrip) {
  std::string payload;
  AppendU64(&payload, 7);
  std::string frame = EncodeResponse(Opcode::kResolve, Status::OK(), payload);

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Frame decoded;
  ASSERT_TRUE(reader.Next(&decoded));
  EXPECT_EQ(decoded.opcode, Opcode::kResolve);
  auto response = DecodeResponse(decoded.body);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.ok());
  Cursor cursor(response.value().payload);
  EXPECT_EQ(cursor.U64().value(), 7u);
}

TEST(WireResponseTest, ErrorPreservesCodeAndMessage) {
  std::string frame = EncodeResponse(
      Opcode::kGet, Status::Overloaded("server request queue full"));
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Frame decoded;
  ASSERT_TRUE(reader.Next(&decoded));
  auto response = DecodeResponse(decoded.body);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.IsOverloaded());
  EXPECT_NE(response.value().status.message().find("queue full"),
            std::string::npos);
}

TEST(WireResponseTest, UnknownStatusCodeIsCorruption) {
  std::string body;
  AppendU8(&body, 0xee);  // far past kStatusCodeCount
  AppendString(&body, "whatever");
  auto response = DecodeResponse(body);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsCorruption());
}

TEST(FrameReaderTest, ByteAtATimeDelivery) {
  // Two frames, drip-fed one byte per Feed: framing must tolerate every
  // partial-read boundary TCP can produce.
  std::string stream = EncodeFrame(Opcode::kPing, "");
  std::string body;
  AppendString(&body, "Registrar");
  stream += EncodeFrame(Opcode::kOpenSession, body);

  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : stream) {
    ASSERT_TRUE(reader.Feed(&byte, 1).ok());
    Frame frame;
    while (reader.Next(&frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].opcode, Opcode::kPing);
  EXPECT_TRUE(frames[0].body.empty());
  EXPECT_EQ(frames[1].opcode, Opcode::kOpenSession);
  Cursor cursor(frames[1].body);
  EXPECT_EQ(cursor.Str().value(), "Registrar");
}

TEST(FrameReaderTest, TruncatedHeaderStaysPending) {
  std::string frame = EncodeFrame(Opcode::kPing, "");
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), 3).ok());  // header is 4 bytes
  Frame out;
  EXPECT_FALSE(reader.Next(&out));
  EXPECT_EQ(reader.pending_bytes(), 3u);
}

TEST(FrameReaderTest, OversizedAnnouncementPoisons) {
  FrameReader reader(/*max_frame_bytes=*/64);
  std::string header;
  AppendU32(&header, 65);  // one past the limit
  Status fed = reader.Feed(header.data(), header.size());
  ASSERT_FALSE(fed.ok());
  EXPECT_TRUE(fed.IsCorruption());
  // Poisoned: even innocent bytes now fail.
  std::string ping = EncodeFrame(Opcode::kPing, "");
  EXPECT_FALSE(reader.Feed(ping.data(), ping.size()).ok());
}

TEST(FrameReaderTest, ZeroLengthFrameIsRejected) {
  // payload_len counts the opcode, so 0 cannot frame a message.
  std::string header;
  AppendU32(&header, 0);
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(header.data(), header.size()).ok());
}

TEST(FrameReaderTest, MaxSizedFrameIsAccepted) {
  FrameReader reader(/*max_frame_bytes=*/64);
  std::string body(63, 'x');  // 1 opcode byte + 63 = 64 exactly
  std::string frame = EncodeFrame(Opcode::kSet, body);
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Frame out;
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_EQ(out.body.size(), 63u);
}

TEST(FrameReaderTest, UnknownOpcodeStillFrames) {
  // Framing is below dispatch: an unknown opcode is the server's call,
  // not the reader's.
  std::string frame;
  AppendU32(&frame, 1);
  AppendU8(&frame, 0xee);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Frame out;
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_FALSE(IsKnownOpcode(static_cast<uint8_t>(out.opcode)));
}

TEST(WireCodecTest, ListCountBeyondBodyIsCorruption) {
  // A peer's element count is checked against the bytes actually left
  // before anything is allocated.
  std::string body;
  AppendU32(&body, 0xffffffff);
  auto oids = DecodeBody<std::vector<Oid>>(body);
  ASSERT_FALSE(oids.ok());
  EXPECT_TRUE(oids.status().IsCorruption());

  body.clear();
  AppendU32(&body, 2);      // two oids announced...
  AppendU64(&body, 7);      // ...one delivered
  AppendU32(&body, 0);      // plus four stray bytes: still short of 16
  oids = DecodeBody<std::vector<Oid>>(body);
  ASSERT_FALSE(oids.ok());
  EXPECT_TRUE(oids.status().IsCorruption());
}

TEST(WireCodecTest, UnknownAlternativeIsRejected) {
  std::string body;
  AppendU8(&body, 3);  // snapshot_open knows modes 0..2
  auto target = DecodeBody<SnapshotTarget>(body);
  ASSERT_FALSE(target.ok());
  EXPECT_EQ(target.status().code(), StatusCode::kInvalidArgument);
}

// --- The opcode table -------------------------------------------------------

TEST(OpcodeTableTest, EveryOpcodeHasExactlyOneRow) {
  std::array<int, 256> rows{};
  std::set<std::string> names;
  ForEachRpc([&]<typename Row>() {
    ++rows[static_cast<uint8_t>(Row::kOpcode)];
    EXPECT_TRUE(names.insert(Row::kName).second) << Row::kName;
    EXPECT_STREQ(OpcodeName(Row::kOpcode), Row::kName);
  });
  const int last = static_cast<int>(Opcode::kSchemaAbort);
  for (int raw = 0; raw < 256; ++raw) {
    const bool defined = raw >= 1 && raw <= last;
    EXPECT_EQ(rows[raw], defined ? 1 : 0) << "opcode " << raw;
    EXPECT_EQ(IsKnownOpcode(static_cast<uint8_t>(raw)), defined)
        << "opcode " << raw;
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(last));
  EXPECT_STREQ(OpcodeName(static_cast<Opcode>(0xee)), "unknown");
}

/// One sample request per row, encoded through the table.
std::map<Opcode, std::string> SampleFrames() {
  using schema::PropertySpec;
  const std::string student = "Student";
  const std::string change = "add_attribute gpa:real to Student";
  return {
      {Opcode::kHello, EncodeRequest<op::Hello>(kMagic, kProtoVersion)},
      {Opcode::kPing, EncodeRequest<op::Ping>()},
      {Opcode::kOpenSession,
       EncodeRequest<op::OpenSession>(std::string("Main"))},
      {Opcode::kOpenSessionAt, EncodeRequest<op::OpenSessionAt>(ViewId(3))},
      {Opcode::kSessionInfo, EncodeRequest<op::SessionInfo>()},
      {Opcode::kResolve, EncodeRequest<op::Resolve>(student)},
      {Opcode::kGet,
       EncodeRequest<op::Get>(Oid(7), student, std::string("name"))},
      {Opcode::kExtent, EncodeRequest<op::Extent>(student)},
      {Opcode::kViewToString, EncodeRequest<op::ViewToString>()},
      {Opcode::kListClasses, EncodeRequest<op::ListClasses>()},
      {Opcode::kCreate,
       EncodeRequest<op::Create>(
           student, std::vector<update::Assignment>{
                        {"name", Value::Str("alice")},
                        {"age", Value::Int(20)}})},
      {Opcode::kSet, EncodeRequest<op::Set>(Oid(7), student,
                                            std::string("age"),
                                            Value::Int(21))},
      {Opcode::kAdd, EncodeRequest<op::Add>(Oid(7), std::string("TA"))},
      {Opcode::kRemove, EncodeRequest<op::Remove>(Oid(7), std::string("TA"))},
      {Opcode::kDelete, EncodeRequest<op::Delete>(Oid(7))},
      {Opcode::kBegin, EncodeRequest<op::Begin>()},
      {Opcode::kCommit, EncodeRequest<op::Commit>()},
      {Opcode::kRollback, EncodeRequest<op::Rollback>()},
      {Opcode::kApply, EncodeRequest<op::Apply>(change)},
      {Opcode::kRefresh, EncodeRequest<op::Refresh>()},
      {Opcode::kStats, EncodeRequest<op::Stats>(true)},
      {Opcode::kAddBaseClass,
       EncodeRequest<op::AddBaseClass>(
           std::string("Person"), std::vector<ClassId>{ClassId(1), ClassId(2)},
           std::vector<PropertySpec>{
               PropertySpec::Attribute("name", objmodel::ValueType::kString),
               PropertySpec::RefAttribute("mentor", ClassId(1))})},
      {Opcode::kCreateView,
       EncodeRequest<op::CreateView>(
           std::string("Main"), std::vector<view::ViewClassSpec>{
                                    {ClassId(1), ""}, {ClassId(2), "Pupil"}})},
      {Opcode::kSnapshotOpen,
       EncodeRequest<op::SnapshotOpen>(SnapshotTarget(std::string("Main")))},
      {Opcode::kSnapshotGet, EncodeRequest<op::SnapshotGet>(
                                 uint64_t{5}, Oid(7), student,
                                 std::string("name"))},
      {Opcode::kSnapshotExtent,
       EncodeRequest<op::SnapshotExtent>(uint64_t{5}, student)},
      {Opcode::kSnapshotSelect,
       EncodeRequest<op::SnapshotSelect>(uint64_t{5}, student,
                                         std::string("age >= 21"))},
      {Opcode::kSnapshotClose, EncodeRequest<op::SnapshotClose>(uint64_t{5})},
      {Opcode::kShardInfo, EncodeRequest<op::ShardInfo>()},
      {Opcode::kSelect,
       EncodeRequest<op::Select>(student, std::string("age >= 21"))},
      {Opcode::kSchemaPrepare, EncodeRequest<op::SchemaPrepare>(change)},
      {Opcode::kSchemaFlip, EncodeRequest<op::SchemaFlip>(uint64_t{11})},
      {Opcode::kSchemaAbort, EncodeRequest<op::SchemaAbort>(uint64_t{11})},
  };
}

/// The same requests as emitted byte for byte by the hand-written
/// per-opcode encoders the table replaced: the wire did not change.
const std::map<Opcode, std::string>& GoldenFrames() {
  static const std::map<Opcode, std::string> golden = {
      {Opcode::kHello, "0700000001545345310100"},
      {Opcode::kPing, "0100000002"},
      {Opcode::kOpenSession, "0900000003040000004d61696e"},
      {Opcode::kOpenSessionAt, "09000000040300000000000000"},
      {Opcode::kSessionInfo, "0100000005"},
      {Opcode::kResolve, "0c000000060700000053747564656e74"},
      {Opcode::kGet,
       "1c0000000707000000000000000700000053747564656e74040000006e616d65"},
      {Opcode::kExtent, "0c000000080700000053747564656e74"},
      {Opcode::kViewToString, "0100000009"},
      {Opcode::kListClasses, "010000000a"},
      {Opcode::kCreate,
       "320000000b0700000053747564656e7402000000040000006e616d65040500000061"
       "6c69636503000000616765011400000000000000"},
      {Opcode::kSet,
       "240000000c07000000000000000700000053747564656e7403000000616765011500"
       "000000000000"},
      {Opcode::kAdd, "0f0000000d0700000000000000020000005441"},
      {Opcode::kRemove, "0f0000000e0700000000000000020000005441"},
      {Opcode::kDelete, "090000000f0700000000000000"},
      {Opcode::kBegin, "0100000010"},
      {Opcode::kCommit, "0100000011"},
      {Opcode::kRollback, "0100000012"},
      {Opcode::kApply,
       "2600000013210000006164645f617474726962757465206770613a7265616c20746f"
       "2053747564656e74"},
      {Opcode::kRefresh, "0100000014"},
      {Opcode::kStats, "020000001501"},
      {Opcode::kAddBaseClass,
       "470000001606000000506572736f6e0200000001000000000000000200000000000000"
       "02000000040000006e616d6504ffffffffffffffff060000006d656e746f72050100"
       "000000000000"},
      {Opcode::kCreateView,
       "2a00000017040000004d61696e0200000001000000000000000000000002000000000"
       "0000005000000507570696c"},
      {Opcode::kSnapshotOpen, "0a0000001800040000004d61696e"},
      {Opcode::kSnapshotGet,
       "2400000019050000000000000007000000000000000700000053747564656e740400"
       "00006e616d65"},
      {Opcode::kSnapshotExtent,
       "140000001a05000000000000000700000053747564656e74"},
      {Opcode::kSnapshotSelect,
       "210000001b05000000000000000700000053747564656e7409000000616765203e3d"
       "203231"},
      {Opcode::kSnapshotClose, "090000001c0500000000000000"},
      {Opcode::kShardInfo, "010000001d"},
      {Opcode::kSelect,
       "190000001e0700000053747564656e7409000000616765203e3d203231"},
      {Opcode::kSchemaPrepare,
       "260000001f210000006164645f617474726962757465206770613a7265616c20746f"
       "2053747564656e74"},
      {Opcode::kSchemaFlip, "09000000200b00000000000000"},
      {Opcode::kSchemaAbort, "09000000210b00000000000000"},
  };
  return golden;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

TEST(OpcodeTableTest, SampleRequestsMatchGoldenFrames) {
  const auto samples = SampleFrames();
  ForEachRpc([&]<typename Row>() {
    auto sample = samples.find(Row::kOpcode);
    ASSERT_NE(sample, samples.end()) << "no sample for " << Row::kName;
    auto golden = GoldenFrames().find(Row::kOpcode);
    ASSERT_NE(golden, GoldenFrames().end()) << "no golden for " << Row::kName;
    EXPECT_EQ(Hex(sample->second), golden->second) << Row::kName;
  });
  EXPECT_EQ(samples.size(), GoldenFrames().size());

  // snapshot_open's other two modes.
  EXPECT_EQ(Hex(EncodeRequest<op::SnapshotOpen>(
                SnapshotTarget(std::tuple(ViewId(3), uint64_t{9})))),
            "12000000180103000000000000000900000000000000");
  EXPECT_EQ(
      Hex(EncodeRequest<op::SnapshotOpen>(SnapshotTarget(std::tuple<>()))),
      "020000001802");
}

TEST(OpcodeTableTest, SampleBodiesDecodeAndEveryStrictPrefixIsCorruption) {
  const auto samples = SampleFrames();
  ForEachRpc([&]<typename Row>() {
    const std::string body = samples.at(Row::kOpcode).substr(kHeaderBytes + 1);
    ASSERT_TRUE(DecodeBody<typename Row::Request>(body).ok()) << Row::kName;
    for (size_t cut = 0; cut < body.size(); ++cut) {
      auto decoded = DecodeBody<typename Row::Request>(body.substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << Row::kName << " cut at " << cut;
      EXPECT_TRUE(decoded.status().IsCorruption())
          << Row::kName << " cut at " << cut << ": "
          << decoded.status().ToString();
    }
    auto padded = DecodeBody<typename Row::Request>(body + '\0');
    ASSERT_FALSE(padded.ok()) << Row::kName;
    EXPECT_TRUE(padded.status().IsCorruption()) << Row::kName;
  });
}

}  // namespace
}  // namespace tse::net
