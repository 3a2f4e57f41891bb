// Frame-codec and error-mapping tests for the v1 wire protocol.
//
// The fuzz structure mirrors the WAL torn-tail tests: a codec that feeds
// a byte stream into a stateful parser must treat *every* truncation as
// "need more bytes" and *every* single-byte corruption as either
// malformed or an honest different frame — never as the original frame
// with silently different content, and never as a crash.

#include "src/net/wire.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/crc32c.h"
#include "src/util/status.h"

namespace lsmssd::net {
namespace {

Frame MustDecode(std::string_view buf) {
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(buf, kDefaultMaxPayloadBytes, &frame, &consumed,
                        &error),
            FrameDecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, buf.size());
  return frame;
}

TEST(WireFrameTest, RoundTripEmptyAndPayload) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string(1000, 'p')}) {
    const std::string encoded =
        EncodeFrame(static_cast<uint8_t>(Opcode::kPut), payload);
    ASSERT_EQ(encoded.size(), kFrameHeaderBytes + payload.size());
    const Frame frame = MustDecode(encoded);
    EXPECT_EQ(frame.version, kWireVersion);
    EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kPut));
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(WireFrameTest, HeaderLayoutIsFrozen) {
  // Byte positions are the compatibility contract (see wire.h): magic at
  // 0, version at 4, opcode at 5, reserved at 6, length at 8 (LE).
  const std::string f =
      EncodeFrame(static_cast<uint8_t>(Opcode::kScan), "abc");
  EXPECT_EQ(f.substr(0, 4), "LSMS");
  EXPECT_EQ(static_cast<uint8_t>(f[4]), kWireVersion);
  EXPECT_EQ(static_cast<uint8_t>(f[5]), static_cast<uint8_t>(Opcode::kScan));
  EXPECT_EQ(f[6], '\0');
  EXPECT_EQ(f[7], '\0');
  EXPECT_EQ(static_cast<uint8_t>(f[8]), 3);  // length LE
  EXPECT_EQ(f[9], '\0');
  EXPECT_EQ(f[10], '\0');
  EXPECT_EQ(f[11], '\0');
}

// Every truncation offset must yield kNeedMore — a prefix is never a
// frame and never malformed (the bytes still to come may complete it).
TEST(WireFrameTest, EveryTruncationOffsetNeedsMore) {
  const std::string payload(97, 'q');
  const std::string encoded =
      EncodeFrame(static_cast<uint8_t>(Opcode::kGet), payload);
  for (size_t len = 0; len < encoded.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    Frame frame;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(std::string_view(encoded.data(), len),
                          kDefaultMaxPayloadBytes, &frame, &consumed, &error),
              FrameDecodeResult::kNeedMore);
  }
}

// Every single-byte flip (all 8 bit positions) must decode as malformed
// or — if it happens to still parse — as a frame whose content differs
// honestly. It must never reproduce the original frame.
TEST(WireFrameTest, EveryByteFlipIsDetected) {
  const std::string payload = "the quick brown fox";
  const std::string encoded =
      EncodeFrame(static_cast<uint8_t>(Opcode::kPut), payload);
  const Frame original = MustDecode(encoded);
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(i) + " bit " +
                   std::to_string(bit));
      std::string corrupt = encoded;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      Frame frame;
      size_t consumed = 0;
      std::string error;
      const FrameDecodeResult result =
          DecodeFrame(corrupt, kDefaultMaxPayloadBytes, &frame, &consumed,
                      &error);
      if (result == FrameDecodeResult::kFrame) {
        // CRC collisions with a 1-bit flip are impossible (crc32c detects
        // all single-bit errors), so a surviving decode means the flip
        // hit... nothing observable — which would be a codec hole.
        EXPECT_TRUE(frame.version != original.version ||
                    frame.opcode != original.opcode ||
                    frame.payload != original.payload)
            << "flip decoded as the original frame";
        ADD_FAILURE() << "1-bit flip passed CRC";
      } else if (result == FrameDecodeResult::kNeedMore) {
        // Only a length-field flip can legally ask for more bytes: the
        // frame claims to extend past the corrupted buffer.
        EXPECT_TRUE(i >= 8 && i < 12)
            << "non-length flip at byte " << i << " yielded kNeedMore";
      } else {
        EXPECT_EQ(result, FrameDecodeResult::kMalformed);
        EXPECT_FALSE(error.empty());
      }
    }
  }
}

TEST(WireFrameTest, OversizedLengthIsMalformedNotAllocation) {
  std::string header = EncodeFrame(static_cast<uint8_t>(Opcode::kGet), "");
  // Rewrite length to 16 MB (over the 1 KB cap passed below). The CRC is
  // now wrong too, but length is checked first — the decoder must refuse
  // before ever waiting for (or allocating) 16 MB.
  header[8] = 0;
  header[9] = 0;
  header[10] = 0;
  header[11] = 1;
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(header, 1024, &frame, &consumed, &error),
            FrameDecodeResult::kMalformed);
  EXPECT_NE(error.find("payload length"), std::string::npos) << error;
}

/// Builds a frame the way a `version` sender would: frozen header
/// layout, CRC over bytes [4,12) plus the payload.
std::string HandEncodeFrame(uint8_t version, uint8_t opcode,
                            std::string_view payload) {
  std::string f(kWireMagic, 4);
  f.push_back(static_cast<char>(version));
  f.push_back(static_cast<char>(opcode));
  AppendU16(&f, 0);  // reserved
  AppendU32(&f, static_cast<uint32_t>(payload.size()));
  uint32_t crc =
      crc32c::Value(reinterpret_cast<const uint8_t*>(f.data()) + 4, 8);
  crc = crc32c::Extend(crc, reinterpret_cast<const uint8_t*>(payload.data()),
                       payload.size());
  AppendU32(&f, crc);
  f.append(payload);
  return f;
}

TEST(WireFrameTest, HandEncodedFrameMatchesEncoder) {
  // Locks the CRC definition: a frame built from the documented layout
  // alone must be byte-identical to EncodeFrame's output.
  EXPECT_EQ(HandEncodeFrame(kWireVersion,
                            static_cast<uint8_t>(Opcode::kPut), "hello"),
            EncodeFrame(static_cast<uint8_t>(Opcode::kPut), "hello"));
}

TEST(WireFrameTest, UnknownVersionStillFrames) {
  // The header layout is version-invariant, so a valid future-version
  // frame must decode as kFrame (the server then answers
  // kUnsupportedVersion) rather than desync or drop the stream.
  const std::string f =
      HandEncodeFrame(9, static_cast<uint8_t>(Opcode::kGet), "zz");
  const Frame frame = MustDecode(f);
  EXPECT_EQ(frame.version, 9);
  EXPECT_EQ(frame.payload, "zz");
}

TEST(WireFrameTest, BadMagicAndReservedAreMalformed) {
  std::string bad_magic =
      HandEncodeFrame(kWireVersion, static_cast<uint8_t>(Opcode::kGet), "");
  bad_magic[0] = 'X';
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(bad_magic, kDefaultMaxPayloadBytes, &frame,
                        &consumed, &error),
            FrameDecodeResult::kMalformed);

  // Non-zero reserved bytes are malformed even with a matching CRC — the
  // field is held at zero so a future version can assign it meaning.
  std::string f(kWireMagic, 4);
  f.push_back(static_cast<char>(kWireVersion));
  f.push_back(static_cast<char>(Opcode::kGet));
  AppendU16(&f, 7);  // reserved != 0
  AppendU32(&f, 0);
  AppendU32(&f,
            crc32c::Value(reinterpret_cast<const uint8_t*>(f.data()) + 4, 8));
  EXPECT_EQ(DecodeFrame(f, kDefaultMaxPayloadBytes, &frame, &consumed,
                        &error),
            FrameDecodeResult::kMalformed);
  EXPECT_NE(error.find("reserved"), std::string::npos) << error;
}

TEST(WireRequestCodecTest, RoundTrips) {
  Key key = 0;
  ASSERT_TRUE(DecodeGetRequest(EncodeGetRequest(42), &key));
  EXPECT_EQ(key, 42u);

  std::string_view value;  // Views the payload, so keep it alive.
  const std::string put = EncodePutRequest(7, "abcd");
  ASSERT_TRUE(DecodePutRequest(put, &key, &value));
  EXPECT_EQ(key, 7u);
  EXPECT_EQ(value, "abcd");

  ASSERT_TRUE(DecodeDeleteRequest(EncodeDeleteRequest(9), &key));
  EXPECT_EQ(key, 9u);

  Key lo = 0, hi = 0;
  uint32_t limit = 0;
  ASSERT_TRUE(DecodeScanRequest(EncodeScanRequest(3, 1000, 17), &lo, &hi,
                                &limit));
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 1000u);
  EXPECT_EQ(limit, 17u);
}

TEST(WireRequestCodecTest, TruncatedPayloadsRejected) {
  const std::string get = EncodeGetRequest(42);
  Key key;
  for (size_t len = 0; len < get.size(); ++len) {
    EXPECT_FALSE(DecodeGetRequest(get.substr(0, len), &key));
  }
  // A put's value is the raw remainder of the payload (the frame length
  // delimits it), so only truncation into the key itself is detectable
  // here; wrong value widths are rejected by the engine's payload_size
  // check instead.
  const std::string put = EncodePutRequest(7, "abcd");
  std::string_view value;
  for (size_t len = 0; len < sizeof(Key); ++len) {
    EXPECT_FALSE(DecodePutRequest(put.substr(0, len), &key, &value));
  }
  const std::string put_prefix = put.substr(0, sizeof(Key) + 2);
  ASSERT_TRUE(DecodePutRequest(put_prefix, &key, &value));
  EXPECT_EQ(key, 7u);
  EXPECT_EQ(value, "ab");
  const std::string scan = EncodeScanRequest(3, 1000, 17);
  Key lo, hi;
  uint32_t limit;
  for (size_t len = 0; len < scan.size(); ++len) {
    EXPECT_FALSE(DecodeScanRequest(scan.substr(0, len), &lo, &hi, &limit));
  }
}

TEST(WireResponseCodecTest, ScanRoundTrip) {
  std::vector<ScanItem> items = {{1, "aa"}, {2, ""}, {0xffffffffffull, "zz"}};
  const std::string payload = EncodeScanResponse(items);
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(payload, &body).ok());
  std::vector<ScanItem> decoded;
  ASSERT_TRUE(DecodeScanResponseBody(body, &decoded));
  ASSERT_EQ(decoded.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(decoded[i].key, items[i].key);
    EXPECT_EQ(decoded[i].value, items[i].value);
  }
}

// The server streams SCAN bodies item by item from its iterator; the
// bytes must equal both EncodeScanResponse and an independent hand
// encoding of the frozen v1 layout (u8 ok, u32 LE count, then per item
// an 8-byte big-endian key, a u32 LE length and the value bytes).
TEST(WireResponseCodecTest, StreamedScanBodyIsByteIdentical) {
  for (size_t n : {0u, 1u, 100u}) {
    SCOPED_TRACE(std::to_string(n) + " items");
    std::vector<ScanItem> items;
    for (size_t i = 0; i < n; ++i) {
      const char fill = static_cast<char>('a' + i % 26);
      items.push_back(ScanItem{0x0102030405060708ull * (i + 1),
                               std::string(i % 7 * 5, fill)});
    }
    std::string hand(1, '\0');
    for (int b = 0; b < 4; ++b) {
      hand.push_back(static_cast<char>(n >> (8 * b)));
    }
    for (const ScanItem& item : items) {
      for (int b = 7; b >= 0; --b) {
        hand.push_back(static_cast<char>(item.key >> (8 * b)));
      }
      for (int b = 0; b < 4; ++b) {
        hand.push_back(static_cast<char>(item.value.size() >> (8 * b)));
      }
      hand.append(item.value);
    }

    // Streamed after a prefix, as a caller appending into a larger buffer.
    std::string streamed = "prefix";
    const size_t count_offset = BeginScanResponse(&streamed);
    for (const ScanItem& item : items) {
      AppendScanItem(&streamed, item.key, item.value);
    }
    FinishScanResponse(&streamed, count_offset, static_cast<uint32_t>(n));
    ASSERT_EQ(streamed.substr(0, 6), "prefix");
    EXPECT_EQ(streamed.substr(6), hand);
    EXPECT_EQ(EncodeScanResponse(items), hand);
  }
}

TEST(WireResponseCodecTest, ScanBodyTruncationsRejected) {
  std::vector<ScanItem> items = {{1, "aa"}, {2, "bbb"}};
  const std::string payload = EncodeScanResponse(items);
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(payload, &body).ok());
  std::vector<ScanItem> decoded;
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(
        DecodeScanResponseBody(body.substr(0, len), &decoded))
        << "truncated scan body of length " << len << " decoded";
  }
}

// The satellite requirement: ONE mapping table, exercised as a property
// over every StatusCode — encode to the wire and back must preserve the
// code and the message. In particular ResourceExhausted (backpressure)
// and Corruption (integrity) must stay distinguishable end to end.
TEST(WireErrorMappingTest, RoundTripsEveryStatusCode) {
  for (int c = 1; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    const Status original(code, "msg for " +
                                    std::string(StatusCodeToString(code)));
    const WireError wire = WireErrorFromStatus(original);
    const Status decoded = StatusFromWire(wire, original.message());
    EXPECT_EQ(decoded.code(), original.code())
        << StatusCodeToString(code) << " did not survive the wire";
    EXPECT_EQ(decoded.message(), original.message());
  }
}

TEST(WireErrorMappingTest, CodesAreDistinctOnTheWire) {
  // Injective: no two StatusCodes may share a wire value, or the client
  // could confuse backpressure with corruption.
  std::vector<WireError> seen;
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    const Status st(static_cast<StatusCode>(c), c == 0 ? "" : "m");
    const WireError wire = WireErrorFromStatus(st);
    for (WireError prior : seen) EXPECT_NE(wire, prior);
    seen.push_back(wire);
  }
}

TEST(WireErrorMappingTest, ErrorResponsePayloadRoundTrips) {
  const Status backpressure =
      Status::ResourceExhausted("device blocks exhausted");
  const std::string payload = EncodeErrorResponse(backpressure);
  std::string_view body;
  const Status decoded = DecodeResponseStatus(payload, &body);
  EXPECT_TRUE(decoded.IsResourceExhausted());
  EXPECT_EQ(decoded.message(), backpressure.message());

  const Status corruption = Status::Corruption("block 17 checksum");
  const Status decoded2 =
      DecodeResponseStatus(EncodeErrorResponse(corruption), &body);
  EXPECT_TRUE(decoded2.IsCorruption());
  EXPECT_EQ(decoded2.message(), corruption.message());
}

TEST(WireErrorMappingTest, ProtocolCodesDecodeWithContext) {
  std::string_view body;
  const Status unsupported = DecodeResponseStatus(
      EncodeProtocolErrorResponse(WireError::kUnsupportedVersion, "v9"),
      &body);
  EXPECT_FALSE(unsupported.ok());
  EXPECT_NE(unsupported.message().find("v9"), std::string::npos);

  const Status malformed = DecodeResponseStatus(
      EncodeProtocolErrorResponse(WireError::kMalformedRequest, "bad put"),
      &body);
  EXPECT_FALSE(malformed.ok());
  EXPECT_NE(malformed.message().find("bad put"), std::string::npos);
}

TEST(WireErrorMappingTest, UnknownWireCodeIsInternal) {
  const Status st = StatusFromWire(static_cast<WireError>(250), "");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("250"), std::string::npos);
}

TEST(WirePrimitivesTest, ReadersRejectShortBuffers) {
  std::string buf;
  AppendU16(&buf, 0x1234);
  AppendU32(&buf, 0xdeadbeef);
  AppendU64(&buf, 0x0102030405060708ull);
  AppendWireKey(&buf, 0x1122334455667788ull);
  size_t pos = 0;
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  Key key;
  ASSERT_TRUE(ReadU16(buf, &pos, &v16));
  EXPECT_EQ(v16, 0x1234);
  ASSERT_TRUE(ReadU32(buf, &pos, &v32));
  EXPECT_EQ(v32, 0xdeadbeefu);
  ASSERT_TRUE(ReadU64(buf, &pos, &v64));
  EXPECT_EQ(v64, 0x0102030405060708ull);
  ASSERT_TRUE(ReadWireKey(buf, &pos, &key));
  EXPECT_EQ(key, 0x1122334455667788ull);
  EXPECT_EQ(pos, buf.size());
  // Any further read fails and leaves pos in place.
  EXPECT_FALSE(ReadU16(buf, &pos, &v16));
  EXPECT_EQ(pos, buf.size());

  // Keys are big-endian on the wire: byte order == key order.
  std::string a, b;
  AppendWireKey(&a, 1);
  AppendWireKey(&b, 256);
  EXPECT_LT(a, b);
}

TEST(WireProtocolTest, PingOpcodeIsStable) {
  // Additive protocol evolution: kPing landed as 6 and must never move.
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kPing), 6);
}

TEST(WireErrorMappingTest, ProtocolRejectionsDecodeToUnavailable) {
  const Status overloaded = StatusFromWire(WireError::kOverloaded, "busy");
  EXPECT_TRUE(overloaded.IsUnavailable()) << overloaded.ToString();
  EXPECT_EQ(overloaded.message(), "server overloaded: busy");

  const Status draining = StatusFromWire(WireError::kShuttingDown, "bye");
  EXPECT_TRUE(draining.IsUnavailable()) << draining.ToString();
  EXPECT_EQ(draining.message(), "server shutting down: bye");
}

TEST(WireErrorMappingTest, ClientLocalCodesFallBackToInternal) {
  // kTimedOut and kUnavailable describe the *transport as seen by one
  // client* — they have no wire encoding. If one is ever (wrongly) fed
  // to the encoder it degrades to kInternal rather than minting a new
  // wire value.
  EXPECT_EQ(WireErrorFromStatus(Status::Unavailable("x")),
            WireError::kInternal);
  EXPECT_EQ(WireErrorFromStatus(Status::TimedOut("x")), WireError::kInternal);
}

TEST(WireErrorMappingTest, RetryAfterHintParses) {
  uint32_t ms = 0;
  EXPECT_TRUE(ParseRetryAfterMs("retry_after_ms=25", &ms));
  EXPECT_EQ(ms, 25u);
  EXPECT_TRUE(
      ParseRetryAfterMs("server overloaded: retry_after_ms=0", &ms));
  EXPECT_EQ(ms, 0u);

  EXPECT_FALSE(ParseRetryAfterMs("no hint here", &ms));
  EXPECT_FALSE(ParseRetryAfterMs("retry_after_ms=", &ms));
  EXPECT_FALSE(ParseRetryAfterMs("retry_after_ms=soon", &ms));
  EXPECT_FALSE(ParseRetryAfterMs("retry_after_ms=99999999999", &ms))
      << "out-of-range hint must not wrap";
}

TEST(WireErrorMappingTest, OverloadedResponseRoundTripsWithHint) {
  const std::string payload = EncodeOverloadedResponse(42);
  std::string_view body;
  const Status decoded = DecodeResponseStatus(payload, &body);
  EXPECT_TRUE(decoded.IsUnavailable()) << decoded.ToString();
  uint32_t ms = 0;
  ASSERT_TRUE(ParseRetryAfterMs(decoded.message(), &ms)) << decoded.message();
  EXPECT_EQ(ms, 42u);
}

}  // namespace
}  // namespace lsmssd::net
