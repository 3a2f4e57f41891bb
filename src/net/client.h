#ifndef LSMSSD_NET_CLIENT_H_
#define LSMSSD_NET_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/fault_socket.h"
#include "src/net/wire.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd::net {

// The *stable public client surface* of the network layer: everything a
// networked tool or bench needs lives in this header (plus the wire
// codec it re-exports). Client code must not include src/db headers —
// the wire protocol, not the Db class, is the compatibility contract.

/// Bounded-retry policy for the high-level ops (Put/Delete/Get/Scan/
/// Stats/Ping). The default — max_attempts = 1 — is "no retries": every
/// error surfaces exactly as it did before this policy existed.
///
/// What a retry may do depends on *where* the previous attempt failed:
///
///  - Failure while SENDING, or an explicit kOverloaded/kShuttingDown
///    rejection: the server provably did not execute the request (a torn
///    request frame is discarded whole; a shed request is rejected before
///    dispatch). Safe to resend, writes included.
///  - Transport failure while AWAITING THE REPLY (connection reset, peer
///    closed): ambiguous — the request may or may not have executed.
///    Idempotent reads (GET/SCAN/STATS/PING) resend freely; PUT/DELETE
///    resend only when `retry_writes` is set. Blind puts of
///    self-describing values tolerate duplicate application, so e.g. the
///    chaos bench opts in; read-modify-write callers should not.
///  - A receive *timeout* never resends: the reply is still owed on the
///    (aligned) stream, so the retry simply keeps waiting for it, and if
///    every attempt times out the owed reply is marked abandoned so a
///    later call on this client cannot misattribute it.
struct RetryPolicy {
  int max_attempts = 1;      ///< Total tries (1 = no retry).
  int initial_backoff_ms = 2;
  int max_backoff_ms = 250;
  double multiplier = 2.0;
  double jitter = 0.5;       ///< See ExponentialBackoff::Options.
  /// Resend PUT/DELETE after an *ambiguous* failure (see above). Off by
  /// default: duplicate application is the caller's risk to accept.
  bool retry_writes = false;
  uint64_t seed = 1;         ///< Jitter seed (deterministic schedules).
};

/// How to reach a server.
struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;           ///< Required.
  int connect_timeout_ms = 5000;
  /// Per send/recv syscall; 0 = no timeout (block forever). Expiry
  /// surfaces as a non-fatal TimedOut status — see the Client class
  /// comment for retry semantics.
  int io_timeout_ms = 30000;
  size_t max_frame_payload_bytes = kDefaultMaxPayloadBytes;
  RetryPolicy retry;
  /// Optional fault seam: when set, every send/recv consults it first
  /// (injected resets/truncations/EINTR/...). Not owned; must outlive
  /// the client. Test/bench only.
  SocketFaultInjector* fault_injector = nullptr;
};

/// Client-side resilience counters (cumulative since Connect()).
struct ClientStats {
  uint64_t retries = 0;            ///< Extra attempts beyond the first.
  uint64_t reconnects = 0;         ///< Successful re-dials of a torn conn.
  uint64_t overloaded_replies = 0; ///< kOverloaded/kShuttingDown rejections.
  uint64_t send_timeouts = 0;
  uint64_t recv_timeouts = 0;
  uint64_t abandoned_replies = 0;  ///< Owed replies written off / drained.
};

/// Server-side counters a client can read over the wire (the parseable
/// prefix of the STATS response; `text` is the full human-readable tail).
struct ServerStats {
  uint64_t payload_size = 0;        ///< Fixed record payload width.
  uint64_t shards = 0;
  uint64_t checkpoints = 0;
  uint64_t memtables_sealed = 0;
  uint64_t stall_events = 0;
  uint64_t quarantined_blocks = 0;  ///< Checksum-failed blocks right now.
  uint64_t scrub_corruptions = 0;   ///< Corrupt verdicts since open.
  uint64_t scrub_blocks_verified = 0;
  uint64_t frames_processed = 0;    ///< Server-side request frames handled.
  uint64_t frames_inline = 0;       ///< Of those, answered on the event loop.
  uint64_t connections_dropped = 0; ///< Malformed-frame connection drops.
  uint64_t frames_shed_overload = 0;   ///< Rejected kOverloaded, unexecuted.
  uint64_t frames_rejected_shutdown = 0; ///< Rejected kShuttingDown.
  uint64_t connections_dropped_slow = 0; ///< Evicted: response backlog cap.
  std::string text;                 ///< Full stats dump (human-readable).
};

/// Blocking request/response connection to one server. Not thread-safe:
/// use one Client per thread (the server multiplexes fine). Any transport
/// or protocol error leaves the connection dead — every later call
/// returns the same error; reconnect with Connect()/Reconnect() — with
/// one exception: a TimedOut status (io_timeout_ms expired waiting on a
/// slow or stalled server) is non-fatal. On a receive timeout any partial
/// frame stays buffered and the stream stays aligned, so the caller may
/// simply call ReceiveResponse() again (the reply to the *original*
/// request is still owed — do not send a new request first). A send
/// timeout is non-fatal only when no byte of the frame went out; timing
/// out mid-frame tears the stream and latches the connection dead like
/// any other error.
///
/// Retryable vs fatal: transport errors meaning "the peer went away"
/// (ECONNRESET/EPIPE/refused, peer closed the socket) surface as
/// Status::Unavailable — retryable with backoff, and the high-level ops
/// retry them automatically under ClientOptions::retry. IoError is
/// reserved for broken local resources and is never retried.
class Client {
 public:
  static StatusOr<std::unique_ptr<Client>> Connect(const ClientOptions& opts);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Inserts or blind-updates `key`. The value must be exactly the
  /// server's fixed payload width (ServerStats::payload_size).
  Status Put(Key key, std::string_view value);
  Status Delete(Key key);
  /// NotFound when the key is absent.
  StatusOr<std::string> Get(Key key);
  /// Live records with lo <= key <= hi in key order, at most `limit`
  /// (0 = server cap). Appends to *out.
  Status Scan(Key lo, Key hi, uint32_t limit, std::vector<ScanItem>* out);
  StatusOr<ServerStats> Stats();
  /// Health check: OK iff the server decoded and answered a PING frame.
  Status Ping();

  /// Tears down the current connection (if any) and dials a fresh one.
  /// Clears the dead-latch, the receive buffer, and all outstanding
  /// reply bookkeeping. The high-level ops call this automatically when
  /// the retry policy allows; it is public for callers driving SendRaw/
  /// ReceiveResponse pipelines by hand.
  Status Reconnect();

  /// Sends a pre-encoded request frame without waiting for the reply —
  /// the pipelining primitive (the server processes a connection's frames
  /// strictly in order). Pair with ReceiveResponse(); callers must
  /// eventually read exactly one response per sent frame.
  Status SendRaw(uint8_t opcode, std::string_view payload);
  /// Receives the next response frame.
  Status ReceiveResponse(Frame* frame);

  const ClientStats& stats() const { return stats_; }

 private:
  explicit Client(const ClientOptions& opts) : opts_(opts) {}

  /// Reply owed for a sent request frame. The server answers a
  /// connection's frames strictly in order, so the deque front is always
  /// the next reply on the stream; `abandoned` marks entries whose
  /// caller gave up waiting — their replies are drained and discarded
  /// instead of being misattributed to a later request.
  struct PendingReply {
    uint64_t seq = 0;
    bool abandoned = false;
  };

  /// One op through the retry policy: (re)send, await, decode leading
  /// status; on OK copies the body into *ok_body (when non-null).
  Status Invoke(Opcode op, std::string_view payload, bool is_write,
                std::string* ok_body);
  Status FillBuffer();       ///< One recv() into inbuf_.
  Status Fail(Status st);    ///< Latches the first error, closes the fd.
  /// send/recv with the fault seam applied (pass-through when no
  /// injector is configured).
  ssize_t IoSend(const void* buf, size_t len, int* err);
  ssize_t IoRecv(void* buf, size_t len, int* err);

  ClientOptions opts_;
  int fd_ = -1;
  std::string inbuf_;
  Status dead_;  ///< First transport/protocol error; OK while healthy.
  std::deque<PendingReply> pending_;
  uint64_t next_seq_ = 0;
  ClientStats stats_;
};

}  // namespace lsmssd::net

#endif  // LSMSSD_NET_CLIENT_H_
