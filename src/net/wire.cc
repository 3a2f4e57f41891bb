#include "src/net/wire.h"

#include <cstring>

#include "src/util/crc32c.h"

namespace lsmssd::net {

namespace {

/// The single Status <-> wire mapping. Server encode and client decode
/// both walk this table, so the two directions can never disagree.
struct CodePair {
  StatusCode status;
  WireError wire;
};
constexpr CodePair kCodeTable[] = {
    {StatusCode::kOk, WireError::kOk},
    {StatusCode::kNotFound, WireError::kNotFound},
    {StatusCode::kInvalidArgument, WireError::kInvalidArgument},
    {StatusCode::kCorruption, WireError::kCorruption},
    {StatusCode::kIoError, WireError::kIoError},
    {StatusCode::kOutOfRange, WireError::kOutOfRange},
    {StatusCode::kFailedPrecondition, WireError::kFailedPrecondition},
    {StatusCode::kResourceExhausted, WireError::kResourceExhausted},
    {StatusCode::kUnimplemented, WireError::kUnimplemented},
    {StatusCode::kInternal, WireError::kInternal},
};

uint32_t FrameCrc(const uint8_t* header, std::string_view payload) {
  // Bytes [4, 12): version, opcode, reserved, length. The magic is
  // excluded (it is a framing sentinel, already checked byte-for-byte)
  // and the CRC field itself obviously is too.
  uint32_t crc = crc32c::Extend(0, header + 4, 8);
  return crc32c::Extend(
      crc, reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
}

}  // namespace

WireError WireErrorFromStatus(const Status& status) {
  for (const CodePair& p : kCodeTable) {
    if (p.status == status.code()) return p.wire;
  }
  // Codes that never originate server-side (e.g. the client-local
  // kTimedOut) have no wire encoding; collapse them to kInternal.
  return WireError::kInternal;
}

Status StatusFromWire(WireError code, std::string message) {
  for (const CodePair& p : kCodeTable) {
    if (p.wire == code) {
      return p.status == StatusCode::kOk ? Status::OK()
                                         : Status(p.status, std::move(message));
    }
  }
  switch (code) {
    case WireError::kUnsupportedVersion:
      return Status::FailedPrecondition("unsupported wire version: " +
                                        std::move(message));
    case WireError::kMalformedRequest:
      return Status::InvalidArgument("malformed request: " +
                                     std::move(message));
    case WireError::kOverloaded:
      return Status::Unavailable("server overloaded: " + std::move(message));
    case WireError::kShuttingDown:
      return Status::Unavailable("server shutting down: " +
                                 std::move(message));
    default:
      return Status::Internal("unknown wire error code " +
                              std::to_string(static_cast<int>(code)) + ": " +
                              std::move(message));
  }
}

std::string EncodeFrame(uint8_t opcode, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(kWireMagic, sizeof(kWireMagic));
  frame.push_back(static_cast<char>(kWireVersion));
  frame.push_back(static_cast<char>(opcode));
  AppendU16(&frame, 0);  // reserved
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  const uint32_t crc =
      FrameCrc(reinterpret_cast<const uint8_t*>(frame.data()), payload);
  AppendU32(&frame, crc);
  frame.append(payload);
  return frame;
}

FrameDecodeResult DecodeFrame(std::string_view buf, size_t max_payload_bytes,
                              Frame* frame, size_t* consumed,
                              std::string* error) {
  auto malformed = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return FrameDecodeResult::kMalformed;
  };
  if (buf.size() < kFrameHeaderBytes) return FrameDecodeResult::kNeedMore;
  const uint8_t* h = reinterpret_cast<const uint8_t*>(buf.data());
  if (std::memcmp(h, kWireMagic, sizeof(kWireMagic)) != 0) {
    return malformed("bad magic");
  }
  size_t pos = 6;
  uint16_t reserved = 0;
  uint32_t length = 0;
  uint32_t crc = 0;
  ReadU16(buf, &pos, &reserved);
  ReadU32(buf, &pos, &length);
  ReadU32(buf, &pos, &crc);
  if (reserved != 0) return malformed("nonzero reserved field");
  if (length > max_payload_bytes) {
    return malformed("payload length " + std::to_string(length) +
                     " exceeds limit " + std::to_string(max_payload_bytes));
  }
  if (buf.size() < kFrameHeaderBytes + length) {
    return FrameDecodeResult::kNeedMore;
  }
  const std::string_view payload = buf.substr(kFrameHeaderBytes, length);
  if (FrameCrc(h, payload) != crc) return malformed("crc mismatch");
  frame->version = h[4];
  frame->opcode = h[5];
  frame->payload.assign(payload);
  *consumed = kFrameHeaderBytes + length;
  return FrameDecodeResult::kFrame;
}

// ---- Primitives -----------------------------------------------------------

// Each encoder fills a stack array and appends it once: one size check
// and one copy per field instead of one per byte.

namespace {
void StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void StoreWireKey(char* p, Key key) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<char>((key >> (8 * (7 - i))) & 0xff);
  }
}
}  // namespace

void AppendU16(std::string* dst, uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xff),
                     static_cast<char>((v >> 8) & 0xff)};
  dst->append(b, sizeof(b));
}

void AppendU32(std::string* dst, uint32_t v) {
  char b[4];
  StoreU32(b, v);
  dst->append(b, sizeof(b));
}

void AppendU64(std::string* dst, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  dst->append(b, sizeof(b));
}

void AppendWireKey(std::string* dst, Key key) {
  char b[8];
  StoreWireKey(b, key);
  dst->append(b, sizeof(b));
}

bool ReadU16(std::string_view buf, size_t* pos, uint16_t* v) {
  if (*pos > buf.size() || buf.size() - *pos < 2) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data()) + *pos;
  *v = static_cast<uint16_t>(p[0] | (p[1] << 8));
  *pos += 2;
  return true;
}

bool ReadU32(std::string_view buf, size_t* pos, uint32_t* v) {
  if (*pos > buf.size() || buf.size() - *pos < 4) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data()) + *pos;
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  *pos += 4;
  return true;
}

bool ReadU64(std::string_view buf, size_t* pos, uint64_t* v) {
  if (*pos > buf.size() || buf.size() - *pos < 8) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data()) + *pos;
  uint64_t out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | p[i];
  *v = out;
  *pos += 8;
  return true;
}

bool ReadWireKey(std::string_view buf, size_t* pos, Key* key) {
  if (*pos > buf.size() || buf.size() - *pos < 8) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data()) + *pos;
  Key out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | p[i];
  *key = out;
  *pos += 8;
  return true;
}

// ---- Requests -------------------------------------------------------------

std::string EncodeGetRequest(Key key) {
  std::string p;
  AppendWireKey(&p, key);
  return p;
}

std::string EncodePutRequest(Key key, std::string_view value) {
  std::string p;
  p.reserve(8 + value.size());
  AppendWireKey(&p, key);
  p.append(value);
  return p;
}

std::string EncodeDeleteRequest(Key key) { return EncodeGetRequest(key); }

std::string EncodeScanRequest(Key lo, Key hi, uint32_t limit) {
  std::string p;
  AppendWireKey(&p, lo);
  AppendWireKey(&p, hi);
  AppendU32(&p, limit);
  return p;
}

std::string EncodeStatsRequest() { return std::string(); }

bool DecodeGetRequest(std::string_view payload, Key* key) {
  size_t pos = 0;
  return ReadWireKey(payload, &pos, key) && pos == payload.size();
}

bool DecodePutRequest(std::string_view payload, Key* key,
                      std::string_view* value) {
  size_t pos = 0;
  if (!ReadWireKey(payload, &pos, key)) return false;
  *value = payload.substr(pos);
  return true;
}

bool DecodeDeleteRequest(std::string_view payload, Key* key) {
  return DecodeGetRequest(payload, key);
}

bool DecodeScanRequest(std::string_view payload, Key* lo, Key* hi,
                       uint32_t* limit) {
  size_t pos = 0;
  return ReadWireKey(payload, &pos, lo) && ReadWireKey(payload, &pos, hi) &&
         ReadU32(payload, &pos, limit) && pos == payload.size();
}

// ---- Responses ------------------------------------------------------------

namespace {
std::string EncodeErrorBody(WireError code, std::string_view msg) {
  std::string p;
  p.reserve(1 + 4 + msg.size());
  p.push_back(static_cast<char>(code));
  AppendU32(&p, static_cast<uint32_t>(msg.size()));
  p.append(msg);
  return p;
}
}  // namespace

std::string EncodeErrorResponse(const Status& status) {
  return EncodeErrorBody(WireErrorFromStatus(status), status.message());
}

std::string EncodeProtocolErrorResponse(WireError code, std::string_view msg) {
  return EncodeErrorBody(code, msg);
}

std::string EncodeOverloadedResponse(uint32_t retry_after_ms) {
  return EncodeErrorBody(
      WireError::kOverloaded,
      "retry_after_ms=" + std::to_string(retry_after_ms));
}

bool ParseRetryAfterMs(std::string_view message, uint32_t* retry_after_ms) {
  static constexpr std::string_view kTag = "retry_after_ms=";
  const size_t at = message.find(kTag);
  if (at == std::string_view::npos) return false;
  uint64_t value = 0;
  size_t pos = at + kTag.size();
  if (pos >= message.size() || message[pos] < '0' || message[pos] > '9') {
    return false;
  }
  for (; pos < message.size() && message[pos] >= '0' && message[pos] <= '9';
       ++pos) {
    value = value * 10 + static_cast<uint64_t>(message[pos] - '0');
    if (value > UINT32_MAX) return false;
  }
  *retry_after_ms = static_cast<uint32_t>(value);
  return true;
}

std::string EncodeGetResponse(std::string_view value) {
  std::string p;
  p.reserve(1 + value.size());
  p.push_back(static_cast<char>(WireError::kOk));
  p.append(value);
  return p;
}

std::string EncodeEmptyOkResponse() {
  return std::string(1, static_cast<char>(WireError::kOk));
}

std::string EncodeScanResponse(const std::vector<ScanItem>& items) {
  size_t bytes = 1 + 4;
  for (const ScanItem& item : items) {
    bytes += kScanItemHeaderBytes + item.value.size();
  }
  std::string p;
  p.reserve(bytes);
  const size_t count_offset = BeginScanResponse(&p);
  for (const ScanItem& item : items) AppendScanItem(&p, item.key, item.value);
  FinishScanResponse(&p, count_offset, static_cast<uint32_t>(items.size()));
  return p;
}

size_t BeginScanResponse(std::string* payload) {
  payload->push_back(static_cast<char>(WireError::kOk));
  const size_t count_offset = payload->size();
  AppendU32(payload, 0);
  return count_offset;
}

void AppendScanItem(std::string* payload, Key key, std::string_view value) {
  char head[kScanItemHeaderBytes];
  StoreWireKey(head, key);
  StoreU32(head + 8, static_cast<uint32_t>(value.size()));
  payload->append(head, sizeof(head));
  payload->append(value);
}

void FinishScanResponse(std::string* payload, size_t count_offset,
                        uint32_t count) {
  StoreU32(payload->data() + count_offset, count);
}

std::string EncodeStatsResponse(std::string_view text) {
  std::string p;
  p.reserve(1 + text.size());
  p.push_back(static_cast<char>(WireError::kOk));
  p.append(text);
  return p;
}

Status DecodeResponseStatus(std::string_view payload, std::string_view* body) {
  *body = std::string_view();
  if (payload.empty()) {
    return Status::Internal("empty response payload");
  }
  const auto code = static_cast<WireError>(
      static_cast<uint8_t>(payload[0]));
  if (code == WireError::kOk) {
    *body = payload.substr(1);
    return Status::OK();
  }
  size_t pos = 1;
  uint32_t msg_len = 0;
  if (!ReadU32(payload, &pos, &msg_len) ||
      payload.size() - pos < msg_len) {
    return Status::Internal("truncated error response");
  }
  return StatusFromWire(code, std::string(payload.substr(pos, msg_len)));
}

bool DecodeScanResponseBody(std::string_view body,
                            std::vector<ScanItem>* items) {
  items->clear();
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadU32(body, &pos, &count)) return false;
  items->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ScanItem item;
    uint32_t len = 0;
    if (!ReadWireKey(body, &pos, &item.key) || !ReadU32(body, &pos, &len) ||
        body.size() - pos < len) {
      return false;
    }
    item.value.assign(body.substr(pos, len));
    pos += len;
    items->push_back(std::move(item));
  }
  return pos == body.size();
}

}  // namespace lsmssd::net
