#ifndef LSMSSD_NET_SERVER_H_
#define LSMSSD_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/db/db.h"
#include "src/net/wire.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd::net {

/// Configuration of a Server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = pick an ephemeral port (see Server::port()).
  /// Worker threads executing decoded requests against the Db. Workers on
  /// different connections commit concurrently, so their WAL syncs batch
  /// through the Db's existing cross-thread group commit — the server
  /// adds no commit path of its own.
  size_t workers = 4;
  size_t max_frame_payload_bytes = kDefaultMaxPayloadBytes;
  /// Hard cap on one SCAN response (requests asking for more are
  /// truncated to this many items).
  uint32_t max_scan_results = 65536;
  /// Per-connection cap on decoded-but-unexecuted pipelined requests;
  /// past it the server stops reading that socket until the worker
  /// drains below (TCP backpressure, bounded memory).
  size_t max_pipelined_requests = 1024;
  /// Pool-wide cap on decoded-but-unexecuted requests across all
  /// connections. Past it the server *sheds*: each excess request is
  /// answered kOverloaded (with a retry-after hint) without touching the
  /// Db or keeping its payload, instead of queueing without bound. The
  /// rejection still flows through the connection's in-order response
  /// stream. 0 disables shedding.
  size_t max_pending_frames = 4096;
  /// Retry-after hint embedded in kOverloaded responses.
  uint32_t overload_retry_after_ms = 10;
  /// Slow-client eviction: a connection whose unsent response backlog
  /// exceeds this many bytes after a flush attempt is dropped (counted in
  /// connections_dropped_slow), checked after every response, and its
  /// remaining pipelined requests are not executed. Protects server
  /// memory from clients that pipeline requests but never read
  /// responses. 0 disables.
  size_t max_conn_backlog_bytes = 8u << 20;
  int listen_backlog = 128;
  /// Test seam: when set, workers call this once per executed request,
  /// before touching the Db (requests answered on the event loop skip
  /// it). Lets tests hold the pool busy at a barrier.
  std::function<void()> worker_hook_for_testing;
};

/// Monotonic server counters (exposed via counters() and over the wire
/// in the STATS response).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped_malformed = 0;  ///< Frame-level garbage.
  uint64_t frames_processed = 0;               ///< Request frames executed.
  uint64_t frames_inline = 0;  ///< Of those, answered on the event loop.
  uint64_t unsupported_version_frames = 0;
  uint64_t frames_shed_overload = 0;     ///< Answered kOverloaded, unexecuted.
  uint64_t frames_rejected_shutdown = 0; ///< Answered kShuttingDown (drain).
  uint64_t connections_dropped_slow = 0; ///< Evicted over the backlog cap.
};

/// Pipelined binary-protocol server over one Db.
///
/// Architecture: one epoll thread owns every socket's lifecycle (accept,
/// read, frame decode, close) and a pool of worker threads executes
/// decoded requests against the Db. A request is answered on the thread
/// that reads it when it needs neither a wait nor device I/O: an admitted
/// GET or PING on a connection with nothing queued or executing runs on
/// the epoll thread, with Db::TryGet, so a GET whose engine lock is held
/// or awaited by a writer or a merge step, or whose answer needs a block
/// outside the buffer cache or a value-log read, goes to a worker. Every
/// other request (PUT, DELETE, SCAN, STATS: WAL appends, fsyncs, stalls
/// or unbounded work) goes to a worker, which sends its responses itself
/// and wakes the epoll thread only when it must act: the socket would
/// block or broke, the backlog cap evicted the connection, or the epoll
/// thread is waiting on the connection (reading paused, or close once
/// idle). A connection's requests execute strictly in receive order (one
/// worker per connection at a time, and an inline answer only when no
/// earlier request is pending), so clients may pipeline freely; different
/// connections execute concurrently, which is what batches their writes
/// into one group-commit fsync.
///
/// Protocol errors are two-tier (see wire.h): a CRC-valid frame with an
/// undecodable payload gets a kMalformedRequest error response; a frame
/// that fails magic/reserved/CRC/size validation proves the byte stream
/// is desynced, and the connection is dropped without a reply — the Db
/// itself is never poisoned by anything a client sends.
class Server {
 public:
  /// Binds and listens on opts.host:opts.port, then starts the epoll and
  /// worker threads. `db` must outlive the server and be open; the
  /// server never Close()s it.
  static StatusOr<std::unique_ptr<Server>> Start(const ServerOptions& opts,
                                                 Db* db);
  ~Server();  ///< Stop()s if still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 at Start).
  uint16_t port() const { return port_; }

  /// Abrupt shutdown: stops accepting, closes every connection, joins
  /// all threads. In-flight requests finish against the Db; their
  /// responses are not guaranteed to be delivered. Idempotent.
  void Stop();

  /// Graceful drain (the SIGTERM path): stop accepting, answer every
  /// already-accepted frame — executed requests with their real response,
  /// requests arriving after the drain begins with kShuttingDown — flush
  /// all responses, and close each connection as it goes idle. Once every
  /// connection has drained, or `deadline_ms` elapses, falls through to
  /// Stop(). Returns true when the drain completed before the deadline
  /// (no connection was cut with undelivered output). Idempotent;
  /// callers checkpoint the Db afterwards.
  bool Drain(int deadline_ms);

  ServerCounters counters() const;

 private:
  struct Connection;

  Server(const ServerOptions& opts, Db* db) : opts_(opts), db_(db) {}

  Status Listen();
  void EpollLoop();
  void WorkerLoop();

  // ---- Epoll-thread-only connection management ------------------------
  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Parses every complete frame in conn->inbuf, answering what it can
  /// inline and queueing the rest, then flushes the inline answers.
  void ParseFrames(const std::shared_ptr<Connection>& conn);
  /// Answers an admitted GET or PING on the event loop when `conn` has no
  /// earlier request pending, is not aborted, and the Db lookup neither
  /// waits for a lock nor reads the device; the reply goes through
  /// Respond. False: the frame must go to a worker.
  bool AnswerInline(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  /// Writes as much buffered output as the socket accepts; arms/disarms
  /// EPOLLOUT; closes the connection when it is finished, broken or
  /// evicted.
  void TryFlush(const std::shared_ptr<Connection>& conn);
  void UpdateEpollInterest(const std::shared_ptr<Connection>& conn);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  /// Drains the worker->epoll flush queue (eventfd handler).
  void DrainFlushQueue();

  // ---- Worker side ----------------------------------------------------
  void EnqueueWork(const std::shared_ptr<Connection>& conn);
  /// Executes one decoded request, returning the encoded response frame.
  /// `on_event_loop` makes a GET use Db::TryGet and return nullopt when
  /// that would block; only GET and PING may run on the event loop.
  std::optional<std::string> HandleRequest(const Frame& frame,
                                           bool on_event_loop);
  /// Appends one response to conn's output, and sends what the socket
  /// takes when it is the batch's `last` or the backlog is over the cap.
  /// After the batch's last send, when no request is pending, it clears
  /// the busy flag in the same critical section and sets *idle: a client
  /// that reads the reply and sends its next GET at once finds the
  /// connection idle. Returns false when the connection is gone or this
  /// response left it over the cap after the send (it is then aborted,
  /// and a worker skips the rest of its frames); sets *signal when the
  /// epoll thread must act. The one place the backlog cap evicts and
  /// counts an eviction.
  bool Respond(const std::shared_ptr<Connection>& conn,
               std::string_view reply, bool last, bool* signal, bool* idle);
  bool OverBacklogCap(size_t backlog_bytes) const {
    return opts_.max_conn_backlog_bytes > 0 &&
           backlog_bytes > opts_.max_conn_backlog_bytes;
  }
  std::string BuildStatsText();
  /// Asks the epoll thread to TryFlush `conn`.
  void SignalFlush(const std::shared_ptr<Connection>& conn);

  ServerOptions opts_;
  Db* db_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: a connection needs TryFlush, or Stop().
  uint16_t port_ = 0;

  std::thread epoll_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool drain_begun_ = false;  ///< Epoll thread: drain housekeeping done.

  /// Requests queued for a worker across all connections (shed markers
  /// and inline answers never count) — the quantity max_pending_frames
  /// caps.
  std::atomic<int64_t> pending_frames_{0};
  /// Open connections; Drain() waits for this to reach zero.
  std::atomic<int64_t> live_conns_{0};

  /// Live connections, keyed by fd. Epoll thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Connection>> work_q_;

  std::mutex flush_mu_;
  std::vector<std::shared_ptr<Connection>> flush_q_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_dropped_malformed_{0};
  std::atomic<uint64_t> frames_processed_{0};
  std::atomic<uint64_t> frames_inline_{0};
  std::atomic<uint64_t> unsupported_version_frames_{0};
  std::atomic<uint64_t> frames_shed_overload_{0};
  std::atomic<uint64_t> frames_rejected_shutdown_{0};
  std::atomic<uint64_t> connections_dropped_slow_{0};
};

}  // namespace lsmssd::net

#endif  // LSMSSD_NET_SERVER_H_
