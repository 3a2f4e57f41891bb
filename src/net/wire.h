#ifndef LSMSSD_NET_WIRE_H_
#define LSMSSD_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/format/key_codec.h"
#include "src/util/status.h"

namespace lsmssd::net {

// ---------------------------------------------------------------------------
// Wire protocol v1 — the library's first *compatibility contract*.
//
// Every message (request or response) is one length-prefixed frame:
//
//   offset  size  field
//        0     4  magic          'L' 'S' 'M' 'S'
//        4     1  version        kWireVersion (1)
//        5     1  opcode         request: Opcode; response: Opcode | 0x80
//        6     2  reserved       must be zero (little-endian)
//        8     4  payload length little-endian, bytes following the header
//       12     4  crc32c         over bytes [4, 12) plus the payload
//       16     …  payload
//
// Versioning rule: the 16-byte header layout — magic position, version
// position, length position, and the CRC definition — is frozen across
// all versions; that is what lets a v1 peer *recognize* a frame from any
// future version and reply kUnsupportedVersion instead of desyncing.
// Within a version, changes must be additive (new opcodes, new trailing
// response fields); any change to an existing payload layout bumps
// kWireVersion. A server that receives a valid frame with an unknown
// version answers with a kUnsupportedVersion error response carrying its
// own version, then closes. A frame that fails magic/reserved/CRC/size
// validation is *malformed*: the server drops the connection without
// replying (there is no trustworthy opcode to reply to).
//
// Integers are little-endian except keys, which use the same big-endian
// order as the storage format (byte order == key order).
// ---------------------------------------------------------------------------

inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr uint8_t kResponseBit = 0x80;
inline constexpr char kWireMagic[4] = {'L', 'S', 'M', 'S'};

/// Default cap on a frame's payload; DecodeFrame treats anything larger
/// as malformed, bounding a connection's buffer memory.
inline constexpr size_t kDefaultMaxPayloadBytes = 4u << 20;

/// Operation selectors. Values are part of the wire contract: never
/// renumber, only append.
enum class Opcode : uint8_t {
  kGet = 1,
  kPut = 2,
  kDelete = 3,
  kScan = 4,
  kStats = 5,
  /// Health check: empty request payload, empty OK response. Added within
  /// v1 (additive); older servers answer kUnimplemented, which callers
  /// should treat as "alive but old".
  kPing = 6,
};

/// True for the opcode byte of a response frame.
inline bool IsResponseOpcode(uint8_t opcode) {
  return (opcode & kResponseBit) != 0;
}

/// Wire error codes carried in the first payload byte of every response.
/// Values are part of the wire contract: never renumber, only append.
/// The first block mirrors StatusCode one-to-one (see WireErrorFromStatus
/// / StatusFromWire — the single mapping used by server encode and client
/// decode, so ResourceExhausted backpressure and Corruption stay
/// distinguishable end to end); the 100+ block is protocol-level.
enum class WireError : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kInvalidArgument = 2,
  kCorruption = 3,
  kIoError = 4,
  kOutOfRange = 5,
  kFailedPrecondition = 6,
  kResourceExhausted = 7,
  kUnimplemented = 8,
  kInternal = 9,
  kUnsupportedVersion = 100,  ///< Valid frame, unknown version byte.
  kMalformedRequest = 101,    ///< Opcode known, payload undecodable.
  /// Load shed: the server's pending-work cap is full and this request
  /// was rejected WITHOUT executing (retry is always safe, writes
  /// included). The message carries a `retry_after_ms=<N>` hint — see
  /// ParseRetryAfterMs. Decodes to Status::Unavailable client-side.
  kOverloaded = 102,
  /// Graceful drain: the server is shutting down and this request was
  /// rejected without executing. Decodes to Status::Unavailable.
  kShuttingDown = 103,
};

/// Status -> wire code (kOk for OK). Every StatusCode has a distinct
/// wire value; the mapping is total.
WireError WireErrorFromStatus(const Status& status);

/// Wire code -> Status. Inverse of WireErrorFromStatus for every
/// StatusCode; the protocol-level codes (100+) decode to
/// FailedPrecondition/InvalidArgument with the message preserved. An
/// unknown code decodes to Internal naming the raw value.
Status StatusFromWire(WireError code, std::string message);

/// One decoded frame (header fields + raw payload bytes).
struct Frame {
  uint8_t version = 0;
  uint8_t opcode = 0;
  std::string payload;
};

enum class FrameDecodeResult {
  kFrame,     ///< One complete, CRC-valid frame consumed.
  kNeedMore,  ///< Buffer holds only a prefix; read more bytes.
  kMalformed, ///< Bad magic/reserved/CRC/oversized length: drop the peer.
};

/// Encodes one v1 frame.
std::string EncodeFrame(uint8_t opcode, std::string_view payload);

/// Attempts to decode one frame from the front of `buf`. On kFrame,
/// `*frame` is filled and `*consumed` is the byte count to drop from the
/// buffer. On kMalformed, `*error` (if non-null) describes the defect.
/// A valid frame with an unknown version still decodes as kFrame (the
/// header layout is version-invariant); callers reject the version.
FrameDecodeResult DecodeFrame(std::string_view buf, size_t max_payload_bytes,
                              Frame* frame, size_t* consumed,
                              std::string* error);

// ---- Little-endian / key primitives (exposed for tests) -------------------

void AppendU16(std::string* dst, uint16_t v);
void AppendU32(std::string* dst, uint32_t v);
void AppendU64(std::string* dst, uint64_t v);
/// Keys travel as 8 big-endian bytes regardless of Options::key_size
/// (byte order == key order, and the width is not format-dependent).
void AppendWireKey(std::string* dst, Key key);

/// Cursor-style readers: advance `*pos` past the field, return false when
/// the buffer is too short.
bool ReadU16(std::string_view buf, size_t* pos, uint16_t* v);
bool ReadU32(std::string_view buf, size_t* pos, uint32_t* v);
bool ReadU64(std::string_view buf, size_t* pos, uint64_t* v);
bool ReadWireKey(std::string_view buf, size_t* pos, Key* key);

// ---- Request payloads -----------------------------------------------------

std::string EncodeGetRequest(Key key);
std::string EncodePutRequest(Key key, std::string_view value);
std::string EncodeDeleteRequest(Key key);
/// `limit` caps the result count (0 = server maximum).
std::string EncodeScanRequest(Key lo, Key hi, uint32_t limit);
std::string EncodeStatsRequest();

bool DecodeGetRequest(std::string_view payload, Key* key);
bool DecodePutRequest(std::string_view payload, Key* key,
                      std::string_view* value);
bool DecodeDeleteRequest(std::string_view payload, Key* key);
bool DecodeScanRequest(std::string_view payload, Key* lo, Key* hi,
                       uint32_t* limit);

// ---- Response payloads ----------------------------------------------------

/// One key/value pair of a scan response.
struct ScanItem {
  Key key = 0;
  std::string value;
};

/// Error response for any opcode: wire code + u32 message length + bytes.
/// Requires !status.ok().
std::string EncodeErrorResponse(const Status& status);
/// Like EncodeErrorResponse but for the protocol-level codes.
std::string EncodeProtocolErrorResponse(WireError code, std::string_view msg);

/// kOverloaded response body carrying a machine-readable backoff hint in
/// the message (`retry_after_ms=<N>`).
std::string EncodeOverloadedResponse(uint32_t retry_after_ms);

/// Extracts the `retry_after_ms=<N>` hint from an error message (the
/// client feeds it into its backoff). False when no hint is present.
bool ParseRetryAfterMs(std::string_view message, uint32_t* retry_after_ms);

/// OK responses. Get carries the value; Put/Delete carry nothing; Scan
/// carries a count then (key, u32 length, value) triples; Stats carries
/// `key value` text lines (see Client::Stats).
std::string EncodeGetResponse(std::string_view value);
std::string EncodeEmptyOkResponse();
std::string EncodeScanResponse(const std::vector<ScanItem>& items);
/// The scan body streamed item by item, byte-identical to
/// EncodeScanResponse: BeginScanResponse appends the OK code and a count
/// placeholder to `*payload` and returns the placeholder's offset;
/// AppendScanItem appends one (key, u32 length, value) triple; and
/// FinishScanResponse writes the final item count at that offset.
size_t BeginScanResponse(std::string* payload);
/// Bytes AppendScanItem adds before the value: the key and the length.
inline constexpr size_t kScanItemHeaderBytes = 8 + 4;
void AppendScanItem(std::string* payload, Key key, std::string_view value);
void FinishScanResponse(std::string* payload, size_t count_offset,
                        uint32_t count);
std::string EncodeStatsResponse(std::string_view text);

/// Decodes the leading status of any response payload. On OK,
/// `*body` is the remainder of the payload (op-specific). On error the
/// returned Status carries the decoded code + message; `*body` is empty.
Status DecodeResponseStatus(std::string_view payload, std::string_view* body);

/// Op-specific OK-body decoders (false = truncated/inconsistent body).
bool DecodeScanResponseBody(std::string_view body,
                            std::vector<ScanItem>* items);

}  // namespace lsmssd::net

#endif  // LSMSSD_NET_WIRE_H_
