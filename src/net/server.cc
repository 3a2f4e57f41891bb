#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/lsm/iterator.h"

namespace lsmssd::net {

namespace {
constexpr int kMaxUnsentKernelBytes = 128 << 10;
/// Most SCAN items a response body reserves room for up front.
constexpr size_t kScanReserveItems = 256;

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IoError(what + ": " + std::strerror(err));
}

std::string UnsupportedVersionReply(uint8_t opcode) {
  return EncodeFrame(
      static_cast<uint8_t>(opcode | kResponseBit),
      EncodeProtocolErrorResponse(
          WireError::kUnsupportedVersion,
          "server speaks wire version " + std::to_string(kWireVersion)));
}
}  // namespace

/// Per-connection state. The epoll interest, input buffer, and lifecycle
/// flags belong to the epoll thread alone; `mu` guards the state that
/// crosses the worker boundary (pending requests, the busy flag, buffered
/// output) and every send on the socket, so a worker may send while the
/// fd is open: CloseConn sets `aborted` under `mu` before closing it.
struct Server::Connection {
  enum class SendResult : uint8_t { kDrained, kBlocked, kBroken };

  int fd = -1;
  bool dead = false;           ///< Closed and deregistered.
  bool eof = false;            ///< Peer half-closed; finish then close.
  bool closing = false;        ///< Close once output drains and idle.
  bool epollin_armed = true;
  bool epollout_armed = false;
  std::string inbuf;

  /// One queued unit of a connection's in-order response stream. Shed
  /// markers (overload / drain rejections) and a wrong-version rejection
  /// ride the same queue as real requests so their error responses
  /// interleave in receive order; their payload bytes are dropped at parse
  /// time, so a marker costs a few dozen bytes and zero Db work.
  struct WorkItem {
    enum class Kind : uint8_t {
      kExecute,
      kShedOverload,
      kShedShutdown,
      kRejectVersion,
    };
    Frame frame;
    Kind kind = Kind::kExecute;
  };

  std::mutex mu;
  std::deque<WorkItem> pending;  ///< Decoded requests awaiting a worker.
  bool busy = false;           ///< A worker owns the pending queue.
  bool aborted = false;        ///< Closed, or doomed by a worker (socket
                               ///< broken, backlog over its cap) and
                               ///< awaiting the epoll thread's close:
                               ///< workers skip the queued Db work and
                               ///< send nothing.
  bool watched = false;        ///< The epoll thread waits on the worker
                               ///< (reading paused, or close once idle):
                               ///< it signals after each batch swap and
                               ///< when it goes idle.
  std::string outbuf;          ///< Encoded responses awaiting the socket.
  size_t out_off = 0;

  size_t backlog() const { return outbuf.size() - out_off; }

  /// Sends as much of outbuf as the socket takes without blocking.
  /// Requires mu.
  SendResult Send() {
    SendResult r = SendResult::kDrained;
    while (out_off < outbuf.size()) {
      const ssize_t n = send(fd, outbuf.data() + out_off,
                             outbuf.size() - out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        r = (errno == EAGAIN || errno == EWOULDBLOCK) ? SendResult::kBlocked
                                                      : SendResult::kBroken;
        break;
      }
      out_off += static_cast<size_t>(n);
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }
    return r;
  }
};

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& opts,
                                                Db* db) {
  if (db == nullptr) return Status::InvalidArgument("Server needs a Db");
  if (opts.workers == 0) {
    return Status::InvalidArgument("ServerOptions::workers must be >= 1");
  }
  auto server = std::unique_ptr<Server>(new Server(opts, db));
  LSMSSD_RETURN_IF_ERROR(server->Listen());
  server->started_ = true;
  server->epoll_thread_ = std::thread([s = server.get()] { s->EpollLoop(); });
  server->workers_.reserve(opts.workers);
  for (size_t i = 0; i < opts.workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + opts_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind " + opts_.host + ":" +
                           std::to_string(opts_.port),
                       errno);
  }
  if (listen(listen_fd_, opts_.listen_backlog) != 0) {
    return ErrnoStatus("listen", errno);
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname", errno);
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1", errno);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return ErrnoStatus("eventfd", errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  return Status::OK();
}

void Server::Stop() {
  if (!started_) {
    // Start() failed before threads existed; release any fds Listen made.
    if (listen_fd_ >= 0) close(listen_fd_), listen_fd_ = -1;
    if (epoll_fd_ >= 0) close(epoll_fd_), epoll_fd_ = -1;
    if (wake_fd_ >= 0) close(wake_fd_), wake_fd_ = -1;
    return;
  }
  {
    std::lock_guard<std::mutex> l(work_mu_);
    if (stopping_.exchange(true)) return;  // Already stopped.
  }
  work_cv_.notify_all();
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  if (epoll_thread_.joinable()) epoll_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (listen_fd_ >= 0) close(listen_fd_), listen_fd_ = -1;
  if (epoll_fd_ >= 0) close(epoll_fd_), epoll_fd_ = -1;
  if (wake_fd_ >= 0) close(wake_fd_), wake_fd_ = -1;
}

bool Server::Drain(int deadline_ms) {
  if (!started_ || stopping_.load(std::memory_order_acquire)) {
    Stop();
    return true;
  }
  draining_.store(true, std::memory_order_release);
  // Wake the epoll thread: it closes the listener, marks every
  // connection closing, and flushes — all fd work stays on its thread.
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(deadline_ms < 0 ? 0 : deadline_ms);
  bool clean = false;
  while (true) {
    if (live_conns_.load(std::memory_order_relaxed) == 0 &&
        pending_frames_.load(std::memory_order_relaxed) == 0) {
      clean = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  return clean;
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections_accepted = connections_accepted_.load();
  c.connections_dropped_malformed = connections_dropped_malformed_.load();
  c.frames_processed = frames_processed_.load();
  c.frames_inline = frames_inline_.load();
  c.unsupported_version_frames = unsupported_version_frames_.load();
  c.frames_shed_overload = frames_shed_overload_.load();
  c.frames_rejected_shutdown = frames_rejected_shutdown_.load();
  c.connections_dropped_slow = connections_dropped_slow_.load();
  return c;
}

// ---- Epoll thread ---------------------------------------------------------

void Server::EpollLoop() {
  std::vector<epoll_event> events(128);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself broke; shut the loop down.
    }
    if (draining_.load(std::memory_order_acquire) && !drain_begun_) {
      // Drain housekeeping, once: retire the listener (no new
      // connections) and put every live connection on the
      // close-when-idle path. Frames already buffered or still arriving
      // are answered (executed or kShuttingDown) before the close.
      drain_begun_ = true;
      if (listen_fd_ >= 0) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        close(listen_fd_);
        listen_fd_ = -1;
      }
      std::vector<std::shared_ptr<Connection>> live;
      live.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) live.push_back(conn);
      for (const auto& conn : live) {
        if (conn->dead) continue;
        conn->closing = true;
        TryFlush(conn);  // Closes immediately when already idle.
      }
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        DrainFlushQueue();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed earlier this batch.
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((ev & EPOLLIN) != 0) HandleReadable(conn);
      if (!conn->dead && (ev & EPOLLOUT) != 0) TryFlush(conn);
    }
  }
  // Shutdown: close every connection. Workers may still hold references;
  // they only touch mu-guarded fields, never the fd.
  for (auto& [fd, conn] : conns_) {
    conn->dead = true;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      conn->aborted = true;
    }
    close(fd);
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
}

void Server::AcceptNew() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error: wait for the next event.
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Bound what the kernel queues beyond the peer's receive window:
    // sends report EAGAIN past it, so the responses of a client that does
    // not read pile up in outbuf, where max_conn_backlog_bytes sees them,
    // instead of in a send buffer that autotunes to megabytes.
    setsockopt(fd, IPPROTO_TCP, TCP_NOTSENT_LOWAT, &kMaxUnsentKernelBytes,
               sizeof(kMaxUnsentKernelBytes));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_[fd] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    live_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  // Inline answers make parsing cost Db work, so one readiness event
  // reads a bounded amount; epoll is level-triggered and reports the
  // rest on its next pass, after the other ready connections. A short
  // read drained the socket: another recv would only return EAGAIN, and
  // data or EOF that arrives later raises a new readiness event.
  for (int reads = 0; reads < 4 && !conn->dead && conn->epollin_armed;
       ++reads) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      ParseFrames(conn);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn->eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }
  // At EOF, deliver what is in flight, then close (TryFlush closes an
  // idle connection now and has the worker report when it goes idle).
  if (!conn->dead && conn->eof) TryFlush(conn);
}

void Server::ParseFrames(const std::shared_ptr<Connection>& conn) {
  size_t pos = 0;
  bool paused = false;
  bool answered_inline = false;
  while (!conn->dead && !paused) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const std::string_view rest = std::string_view(conn->inbuf).substr(pos);
    const FrameDecodeResult r = DecodeFrame(
        rest, opts_.max_frame_payload_bytes, &frame, &consumed, &error);
    if (r == FrameDecodeResult::kNeedMore) break;
    if (r == FrameDecodeResult::kMalformed) {
      // The byte stream is not trustworthy past this point: there is no
      // reliable opcode to reply to, so drop the connection. The Db never
      // saw the bytes — nothing to poison.
      connections_dropped_malformed_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(conn);
      return;
    }
    pos += consumed;
    if (frame.version != kWireVersion) {
      // Reply, then close once every earlier reply is out. Behind queued
      // or running frames the rejection takes its turn on the in-order
      // queue; on an idle connection it is the next reply.
      unsupported_version_frames_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> l(conn->mu);
        if (conn->busy || !conn->pending.empty()) {
          frame.payload = std::string();
          conn->pending.push_back(Connection::WorkItem{
              std::move(frame), Connection::WorkItem::Kind::kRejectVersion});
        } else {
          conn->outbuf.append(UnsupportedVersionReply(frame.opcode));
        }
      }
      conn->closing = true;
      conn->inbuf.clear();
      conn->epollin_armed = false;
      UpdateEpollInterest(conn);
      TryFlush(conn);
      return;
    }
    // Admission decision, made before any Db work: drain rejections and
    // overload sheds become lightweight markers on the same in-order
    // queue (their payload bytes are released here), so a client that
    // pipelined N frames still receives exactly N responses in order.
    using Kind = Connection::WorkItem::Kind;
    Kind kind = Kind::kExecute;
    if (draining_.load(std::memory_order_acquire)) {
      kind = Kind::kShedShutdown;
      frames_rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    } else if (opts_.max_pending_frames > 0 &&
               pending_frames_.load(std::memory_order_relaxed) >=
                   static_cast<int64_t>(opts_.max_pending_frames) &&
               frame.opcode != static_cast<uint8_t>(Opcode::kPing) &&
               frame.opcode != static_cast<uint8_t>(Opcode::kStats)) {
      // Health probes are always admitted: an operator diagnosing an
      // overloaded server must still get PING/STATS answers — they do
      // no Db work, so admitting them cannot deepen the overload.
      kind = Kind::kShedOverload;
      frames_shed_overload_.fetch_add(1, std::memory_order_relaxed);
    } else if (AnswerInline(conn, frame)) {
      answered_inline = true;
      continue;
    } else {
      pending_frames_.fetch_add(1, std::memory_order_relaxed);
    }
    if (kind != Kind::kExecute) frame.payload = std::string();
    bool enqueue = false;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      conn->pending.push_back(Connection::WorkItem{std::move(frame), kind});
      if (!conn->busy) {
        conn->busy = true;
        enqueue = true;
      }
      paused = conn->pending.size() >= opts_.max_pipelined_requests;
      // Pipelining backpressure (below): have the worker report its
      // progress so TryFlush can resume reading.
      if (paused) conn->watched = true;
    }
    if (enqueue) EnqueueWork(conn);
  }
  if (!conn->dead && pos > 0) conn->inbuf.erase(0, pos);
  if (paused && conn->epollin_armed) {
    // Pipelining backpressure: stop reading this socket until the worker
    // drains the queue (TryFlush re-arms and re-parses).
    conn->epollin_armed = false;
    UpdateEpollInterest(conn);
  }
  // One flush for every inline answer, after the erase: TryFlush may
  // re-parse inbuf, which must no longer hold the consumed frames.
  if (answered_inline) TryFlush(conn);
}

bool Server::AnswerInline(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  if (frame.opcode != static_cast<uint8_t>(Opcode::kGet) &&
      frame.opcode != static_cast<uint8_t>(Opcode::kPing)) {
    return false;
  }
  {
    // Only this thread queues a connection's work, so an idle connection
    // stays idle until this frame is answered: the reply cannot overtake
    // an earlier request's. An aborted connection awaits its close; the
    // frame joins the queue its worker skips.
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->busy || !conn->pending.empty() || conn->aborted) return false;
  }
  std::optional<std::string> reply =
      HandleRequest(frame, /*on_event_loop=*/true);
  if (!reply) return false;  // The lookup would wait: a worker runs it.
  frames_processed_.fetch_add(1, std::memory_order_relaxed);
  frames_inline_.fetch_add(1, std::memory_order_relaxed);
  // ParseFrames' TryFlush sends the reply, or closes the connection if
  // the reply evicted it; the wake Respond asks for is not needed here.
  bool unused_signal = false;
  bool unused_idle = false;
  Respond(conn, *reply, /*last=*/false, &unused_signal, &unused_idle);
  return true;
}

void Server::TryFlush(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  using SendResult = Connection::SendResult;
  SendResult sent;
  bool idle = false;
  bool resume = false;
  size_t backlog_bytes = 0;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    // Aborted but not yet dead: a worker found the socket broken or
    // the backlog over its cap (and counted the eviction); just close.
    sent = conn->aborted ? SendResult::kBroken : conn->Send();
    backlog_bytes = conn->backlog();
    idle = !conn->busy && conn->pending.empty() && conn->outbuf.empty();
    // Closing once idle: the worker that makes it idle must say so. Set
    // in the same critical section as the idle check, so either this
    // pass sees the connection idle or the worker sees the flag.
    if ((conn->closing || conn->eof) && !idle) conn->watched = true;
    // Resume reading once the pipeline backlog has drained.
    resume = sent == SendResult::kDrained && !conn->epollin_armed &&
             !conn->closing && !conn->eof &&
             conn->pending.size() < opts_.max_pipelined_requests / 2 + 1;
    if (resume) conn->watched = false;
  }
  if (sent == SendResult::kBroken) {
    CloseConn(conn);
    return;
  }
  if (OverBacklogCap(backlog_bytes)) {
    // Slow-client eviction: the peer pipelines requests but does not
    // read responses; its backlog, not the worker pool, is the memory
    // it is consuming. Dropping the connection frees it — the client
    // observes a reset (Unavailable) and may reconnect with backoff.
    connections_dropped_slow_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
    return;
  }
  if (sent == SendResult::kBlocked) {
    if (!conn->epollout_armed) {
      conn->epollout_armed = true;
      UpdateEpollInterest(conn);
    }
    return;
  }
  if (conn->epollout_armed) {
    conn->epollout_armed = false;
    UpdateEpollInterest(conn);
  }
  if ((conn->closing || conn->eof) && idle) {
    CloseConn(conn);
    return;
  }
  if (resume) {
    conn->epollin_armed = true;
    UpdateEpollInterest(conn);
    ParseFrames(conn);  // Frames may already be buffered past the pause.
  }
}

void Server::UpdateEpollInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  epoll_event ev{};
  ev.events = (conn->epollin_armed ? EPOLLIN : 0u) |
              (conn->epollout_armed ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    conn->aborted = true;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  close(conn->fd);
  live_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::DrainFlushQueue() {
  std::vector<std::shared_ptr<Connection>> ready;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    ready.swap(flush_q_);
  }
  for (const auto& conn : ready) {
    if (!conn->dead) TryFlush(conn);
  }
}

// ---- Workers --------------------------------------------------------------

void Server::EnqueueWork(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> l(work_mu_);
    work_q_.push_back(conn);
  }
  work_cv_.notify_one();
}

void Server::SignalFlush(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    flush_q_.push_back(conn);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void Server::WorkerLoop() {
  while (true) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lk(work_mu_);
      work_cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_acquire) || !work_q_.empty();
      });
      if (work_q_.empty()) return;  // stopping_ and nothing left.
      conn = std::move(work_q_.front());
      work_q_.pop_front();
    }
    // Drain this connection until its pipeline is empty. Only one worker
    // holds a given connection at a time (the busy flag), so requests
    // execute — and respond — strictly in receive order. Responses go
    // out from here; the epoll thread hears of this connection only when
    // it must act (see Respond and Connection::watched).
    bool signal = false;
    bool idle = false;
    while (!idle) {
      std::deque<Connection::WorkItem> batch;
      bool aborted = false;
      {
        std::lock_guard<std::mutex> l(conn->mu);
        signal = signal || conn->watched;
        if (conn->pending.empty()) {
          conn->busy = false;
          idle = true;
        } else {
          batch.swap(conn->pending);
          aborted = conn->aborted;
        }
      }
      if (signal) {
        SignalFlush(conn);
        signal = false;
      }
      if (idle) break;
      int64_t executes = 0;
      for (const Connection::WorkItem& item : batch) {
        if (item.kind == Connection::WorkItem::Kind::kExecute) ++executes;
      }
      if (executes > 0) {
        pending_frames_.fetch_sub(executes, std::memory_order_relaxed);
      }
      if (aborted) continue;  // Peer gone: nobody will read the responses,
                              // so skip the Db work (and any duplicate
                              // application a retrying client would risk).
      for (size_t i = 0; i < batch.size(); ++i) {
        const Connection::WorkItem& item = batch[i];
        const uint8_t response_op =
            static_cast<uint8_t>(item.frame.opcode | kResponseBit);
        std::string reply;
        switch (item.kind) {
          case Connection::WorkItem::Kind::kExecute:
            if (opts_.worker_hook_for_testing) opts_.worker_hook_for_testing();
            reply = *HandleRequest(item.frame, /*on_event_loop=*/false);
            frames_processed_.fetch_add(1, std::memory_order_relaxed);
            break;
          case Connection::WorkItem::Kind::kShedOverload:
            reply = EncodeFrame(
                response_op,
                EncodeOverloadedResponse(opts_.overload_retry_after_ms));
            break;
          case Connection::WorkItem::Kind::kShedShutdown:
            reply = EncodeFrame(
                response_op,
                EncodeProtocolErrorResponse(WireError::kShuttingDown,
                                            "server draining"));
            break;
          case Connection::WorkItem::Kind::kRejectVersion:
            reply = UnsupportedVersionReply(item.frame.opcode);
            break;
        }
        // Gone or evicted: the rest of the batch is not executed.
        if (!Respond(conn, reply, i + 1 == batch.size(), &signal, &idle)) {
          break;
        }
      }
      // Respond released the connection: another worker may own it now.
      if (idle && signal) SignalFlush(conn);
    }
  }
}

bool Server::Respond(const std::shared_ptr<Connection>& conn,
                     std::string_view reply, bool last, bool* signal,
                     bool* idle) {
  using SendResult = Connection::SendResult;
  std::lock_guard<std::mutex> l(conn->mu);
  if (conn->aborted) return false;
  conn->outbuf.append(reply);
  // One send per batch, plus one whenever the backlog passes the cap.
  SendResult sent = SendResult::kDrained;
  if (last || OverBacklogCap(conn->backlog())) sent = conn->Send();
  if (sent == SendResult::kBroken || OverBacklogCap(conn->backlog())) {
    // The backlog cap holds per response: this one still exceeds it
    // after a send. Either way the connection is done; the epoll thread
    // closes it.
    if (sent != SendResult::kBroken) {
      connections_dropped_slow_.fetch_add(1, std::memory_order_relaxed);
    }
    conn->aborted = true;
    *signal = true;
    return false;
  }
  if (sent == SendResult::kBlocked) *signal = true;  // Arm EPOLLOUT.
  if (last && conn->pending.empty()) {
    conn->busy = false;
    *idle = true;
    *signal = *signal || conn->watched;
  }
  return true;
}

std::optional<std::string> Server::HandleRequest(const Frame& frame,
                                                 bool on_event_loop) {
  const uint8_t response_op =
      static_cast<uint8_t>(frame.opcode | kResponseBit);
  auto malformed = [&](const char* what) {
    return EncodeFrame(response_op, EncodeProtocolErrorResponse(
                                        WireError::kMalformedRequest, what));
  };
  std::string body;
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kGet: {
      Key key = 0;
      if (!DecodeGetRequest(frame.payload, &key)) {
        return malformed("undecodable GET payload");
      }
      std::optional<StatusOr<std::string>> value =
          on_event_loop ? db_->TryGet(key) : db_->Get(key);
      if (!value) return std::nullopt;
      body = value->ok() ? EncodeGetResponse(value->value())
                         : EncodeErrorResponse(value->status());
      break;
    }
    case Opcode::kPut: {
      Key key = 0;
      std::string_view value;
      if (!DecodePutRequest(frame.payload, &key, &value)) {
        return malformed("undecodable PUT payload");
      }
      if (value.size() != db_->options().payload_size) {
        body = EncodeErrorResponse(Status::InvalidArgument(
            "payload must be exactly " +
            std::to_string(db_->options().payload_size) + " bytes, got " +
            std::to_string(value.size())));
        break;
      }
      const Status st = db_->Put(key, value);
      body = st.ok() ? EncodeEmptyOkResponse() : EncodeErrorResponse(st);
      break;
    }
    case Opcode::kDelete: {
      Key key = 0;
      if (!DecodeDeleteRequest(frame.payload, &key)) {
        return malformed("undecodable DELETE payload");
      }
      const Status st = db_->Delete(key);
      body = st.ok() ? EncodeEmptyOkResponse() : EncodeErrorResponse(st);
      break;
    }
    case Opcode::kScan: {
      Key lo = 0;
      Key hi = 0;
      uint32_t limit = 0;
      if (!DecodeScanRequest(frame.payload, &lo, &hi, &limit)) {
        return malformed("undecodable SCAN payload");
      }
      uint32_t cap = opts_.max_scan_results;
      if (limit != 0 && limit < cap) cap = limit;
      std::unique_ptr<Iterator> it = db_->NewIterator();
      if (it == nullptr) {
        body = EncodeErrorResponse(
            Status::FailedPrecondition("db is in a failed state"));
        break;
      }
      // Stream each item from the iterator straight into the body,
      // reserved from the item cap once the first value gives the item
      // size (values are fixed-width) — bounded so a huge cap with few
      // matches does not reserve megabytes.
      const size_t count_offset = BeginScanResponse(&body);
      uint32_t count = 0;
      for (it->Seek(lo); it->Valid() && it->key() <= hi && count < cap;
           it->Next()) {
        if (count == 0) {
          const size_t item = kScanItemHeaderBytes + it->value().size();
          body.reserve(body.size() +
                       std::min<size_t>(cap, kScanReserveItems) * item);
        }
        AppendScanItem(&body, it->key(), it->value());
        ++count;
      }
      if (it->status().ok()) {
        FinishScanResponse(&body, count_offset, count);
      } else {
        body = EncodeErrorResponse(it->status());
      }
      break;
    }
    case Opcode::kStats:
      body = EncodeStatsResponse(BuildStatsText());
      break;
    case Opcode::kPing:
      if (!frame.payload.empty()) {
        return malformed("PING carries no payload");
      }
      body = EncodeEmptyOkResponse();
      break;
    default:
      body = EncodeErrorResponse(Status::Unimplemented(
          "unknown opcode " + std::to_string(frame.opcode)));
      break;
  }
  return EncodeFrame(response_op, body);
}

std::string Server::BuildStatsText() {
  const DbStats s = db_->Stats();
  std::string t;
  auto line = [&t](const char* key, uint64_t value) {
    t += key;
    t += ' ';
    t += std::to_string(value);
    t += '\n';
  };
  line("payload_size", db_->options().payload_size);
  line("shards", s.shards);
  line("checkpoints", s.checkpoints);
  line("memtables_sealed", s.memtables_sealed);
  line("stall_events", s.stall_events);
  line("quarantined_blocks", s.quarantined_blocks.size());
  line("scrub_corruptions", s.scrub_corruptions_found);
  line("scrub_blocks_verified", s.scrub_blocks_verified);
  line("frames_processed", frames_processed_.load());
  line("frames_inline", frames_inline_.load());
  line("connections_dropped", connections_dropped_malformed_.load());
  line("frames_shed_overload", frames_shed_overload_.load());
  line("frames_rejected_shutdown", frames_rejected_shutdown_.load());
  line("connections_dropped_slow", connections_dropped_slow_.load());
  t += '\n';
  t += s.ToString();
  return t;
}

}  // namespace lsmssd::net
