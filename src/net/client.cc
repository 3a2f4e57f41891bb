#include "src/net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/util/backoff.h"

namespace lsmssd::net {

namespace {

/// Classifies a transport errno: "the peer went away" is retryable
/// Unavailable; everything else (bad fd, ENOMEM, ...) is a broken local
/// resource and stays fatal IoError.
Status ErrnoStatus(const std::string& what, int err) {
  const std::string msg = what + ": " + std::strerror(err);
  switch (err) {
    case ECONNRESET:
    case ECONNREFUSED:
    case ECONNABORTED:
    case EPIPE:
    case EHOSTUNREACH:
    case ENETUNREACH:
    case ENETRESET:
    case ETIMEDOUT:
      return Status::Unavailable(msg);
    default:
      return Status::IoError(msg);
  }
}

Status SetSocketTimeout(int fd, int which, int ms) {
  if (ms <= 0) return Status::OK();
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(timeout)", errno);
  }
  return Status::OK();
}

/// Dials opts.host:opts.port with the connect timeout; on success returns
/// a blocking fd with TCP_NODELAY and the I/O timeouts applied.
StatusOr<int> Dial(const ClientOptions& opts) {
  if (opts.port == 0) {
    return Status::InvalidArgument("ClientOptions::port must be set");
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(opts.port);
  if (int rc = getaddrinfo(opts.host.c_str(), port_str.c_str(), &hints, &res);
      rc != 0) {
    return Status::IoError("getaddrinfo(" + opts.host +
                           "): " + gai_strerror(rc));
  }
  int fd = -1;
  Status last = Status::IoError("no addresses for " + opts.host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                ai->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus("socket", errno);
      continue;
    }
    // Non-blocking connect so the timeout is enforceable.
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = poll(&pfd, 1, opts.connect_timeout_ms > 0 ? opts.connect_timeout_ms
                                                     : -1);
      if (rc == 0) {
        last = Status::Unavailable("connect timeout to " + opts.host + ":" +
                                   port_str);
        close(fd);
        fd = -1;
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      rc = so_error == 0 ? 0 : -1;
      errno = so_error;
    }
    if (rc != 0) {
      last = ErrnoStatus("connect " + opts.host + ":" + port_str, errno);
      close(fd);
      fd = -1;
      continue;
    }
    fcntl(fd, F_SETFL, flags);  // Back to blocking for request/response.
    break;
  }
  freeaddrinfo(res);
  if (fd < 0) return last;

  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (Status st = SetSocketTimeout(fd, SO_RCVTIMEO, opts.io_timeout_ms);
      !st.ok()) {
    close(fd);
    return st;
  }
  if (Status st = SetSocketTimeout(fd, SO_SNDTIMEO, opts.io_timeout_ms);
      !st.ok()) {
    close(fd);
    return st;
  }
  return fd;
}

}  // namespace

StatusOr<std::unique_ptr<Client>> Client::Connect(const ClientOptions& opts) {
  auto fd = Dial(opts);
  LSMSSD_RETURN_IF_ERROR(fd.status());
  auto client = std::unique_ptr<Client>(new Client(opts));
  client->fd_ = *fd;
  return client;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Status Client::Reconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  // Replies owed on the torn stream will never arrive: write them off so
  // the fresh stream starts with clean reply bookkeeping.
  stats_.abandoned_replies += pending_.size();
  pending_.clear();
  inbuf_.clear();
  dead_ = Status::OK();
  auto fd = Dial(opts_);
  if (!fd.ok()) {
    dead_ = fd.status();
    return fd.status();
  }
  fd_ = *fd;
  ++stats_.reconnects;
  if (opts_.fault_injector != nullptr) opts_.fault_injector->OnReconnect();
  return Status::OK();
}

Status Client::Fail(Status st) {
  if (dead_.ok()) dead_ = st;
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  return st;
}

ssize_t Client::IoSend(const void* buf, size_t len, int* err) {
  if (opts_.fault_injector != nullptr) {
    const auto action = opts_.fault_injector->Next(SocketOp::kSend);
    if (action.kind == SocketFaultInjector::Action::Kind::kErrno) {
      *err = action.err;
      return -1;
    }
    if (action.kind == SocketFaultInjector::Action::Kind::kShort &&
        len > action.cap_bytes) {
      len = action.cap_bytes;
    }
  }
  const ssize_t n = send(fd_, buf, len, MSG_NOSIGNAL);
  *err = errno;
  return n;
}

ssize_t Client::IoRecv(void* buf, size_t len, int* err) {
  if (opts_.fault_injector != nullptr) {
    const auto action = opts_.fault_injector->Next(SocketOp::kRecv);
    if (action.kind == SocketFaultInjector::Action::Kind::kErrno) {
      *err = action.err;
      return -1;
    }
    if (action.kind == SocketFaultInjector::Action::Kind::kShort &&
        len > action.cap_bytes) {
      len = action.cap_bytes;
    }
  }
  const ssize_t n = recv(fd_, buf, len, 0);
  *err = errno;
  return n;
}

Status Client::SendRaw(uint8_t opcode, std::string_view payload) {
  if (!dead_.ok()) return dead_;
  const std::string frame = EncodeFrame(opcode, payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    int err = 0;
    const ssize_t n = IoSend(frame.data() + sent, frame.size() - sent, &err);
    if (n < 0) {
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        // SO_SNDTIMEO expired. With nothing of the frame on the wire the
        // connection is still aligned — the caller may retry. A torn
        // frame, by contrast, desynchronizes the stream for good.
        if (sent == 0) {
          return Status::TimedOut("send timed out after " +
                                  std::to_string(opts_.io_timeout_ms) + "ms");
        }
        return Fail(Status::TimedOut(
            "send timed out mid-frame (" + std::to_string(sent) + "/" +
            std::to_string(frame.size()) + " bytes); stream desynchronized"));
      }
      return Fail(ErrnoStatus("send", err));
    }
    sent += static_cast<size_t>(n);
  }
  pending_.push_back(PendingReply{next_seq_++, false});
  return Status::OK();
}

Status Client::FillBuffer() {
  char buf[64 * 1024];
  int err = 0;
  const ssize_t n = IoRecv(buf, sizeof(buf), &err);
  if (n < 0) {
    if (err == EINTR) return Status::OK();
    if (err == EAGAIN || err == EWOULDBLOCK) {
      // SO_RCVTIMEO expired: the server is slow or stalled, not broken.
      return Status::TimedOut("recv timed out after " +
                              std::to_string(opts_.io_timeout_ms) + "ms");
    }
    return ErrnoStatus("recv", err);
  }
  if (n == 0) {
    // Orderly close by the peer mid-conversation: it went away; the
    // connection (not the local machinery) is what broke.
    return Status::Unavailable("connection closed by server");
  }
  inbuf_.append(buf, static_cast<size_t>(n));
  return Status::OK();
}

Status Client::ReceiveResponse(Frame* frame) {
  if (!dead_.ok()) return dead_;
  while (true) {
    size_t consumed = 0;
    std::string error;
    switch (DecodeFrame(inbuf_, opts_.max_frame_payload_bytes, frame,
                        &consumed, &error)) {
      case FrameDecodeResult::kFrame: {
        inbuf_.erase(0, consumed);
        bool abandoned = false;
        if (!pending_.empty()) {
          abandoned = pending_.front().abandoned;
          pending_.pop_front();
        }
        if (abandoned) {
          // The reply to a request whose caller gave up waiting. Drop it
          // and keep reading: the next frame answers a newer request.
          continue;
        }
        if (frame->version != kWireVersion) {
          // Still surface the server's error payload if it sent one
          // (kUnsupportedVersion replies carry the server's version).
          break;
        }
        if (!IsResponseOpcode(frame->opcode)) {
          return Fail(Status::Internal("server sent a request opcode"));
        }
        return Status::OK();
      }
      case FrameDecodeResult::kNeedMore:
        if (Status st = FillBuffer(); !st.ok()) {
          // A timeout is NOT fatal: inbuf_ keeps any partial frame, the
          // stream stays aligned, and a later ReceiveResponse resumes
          // exactly where this one left off. Everything else latches.
          return st.IsTimedOut() ? st : Fail(st);
        }
        continue;
      case FrameDecodeResult::kMalformed:
        return Fail(Status::Internal("malformed server frame: " + error));
    }
    return Status::OK();
  }
}

Status Client::Invoke(Opcode op, std::string_view payload, bool is_write,
                      std::string* ok_body) {
  const RetryPolicy& rp = opts_.retry;
  const int max_attempts = rp.max_attempts < 1 ? 1 : rp.max_attempts;
  ExponentialBackoff::Options bo;
  bo.initial_ms = rp.initial_backoff_ms;
  bo.max_ms = rp.max_backoff_ms;
  bo.multiplier = rp.multiplier;
  bo.jitter = rp.jitter;
  bo.seed = rp.seed;
  ExponentialBackoff backoff(bo);
  Status last = Status::OK();
  // True while a reply for an already-sent request is owed on a healthy
  // stream — the retry then *waits*, it does not resend.
  bool awaiting_reply = false;
  uint32_t retry_after_hint = 0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ++stats_.retries;
      if (!awaiting_reply) {
        int delay = backoff.NextDelayMs();
        if (retry_after_hint > static_cast<uint32_t>(delay)) {
          delay = static_cast<int>(retry_after_hint);
        }
        retry_after_hint = 0;
        if (delay > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
    }
    if ((fd_ < 0 || !dead_.ok()) && max_attempts > 1) {
      if (Status st = Reconnect(); !st.ok()) {
        last = st;
        if (st.IsUnavailable()) continue;  // server down; back off, re-dial
        return st;
      }
      awaiting_reply = false;
    }
    if (!awaiting_reply) {
      if (Status st = SendRaw(static_cast<uint8_t>(op), payload); !st.ok()) {
        last = st;
        // A send-phase failure means the server did not execute: a torn
        // request frame is discarded whole on the peer. Resending is
        // safe for every op, writes included.
        if (st.IsTimedOut()) {
          ++stats_.send_timeouts;
          continue;
        }
        if (st.IsUnavailable()) continue;
        return st;
      }
      awaiting_reply = true;
    }
    Frame reply;
    if (Status st = ReceiveResponse(&reply); !st.ok()) {
      last = st;
      if (st.IsTimedOut()) {
        // Reply still owed on an aligned stream: keep waiting, do not
        // resend (resending here is what double-applies).
        ++stats_.recv_timeouts;
        continue;
      }
      if (st.IsUnavailable() && (!is_write || rp.retry_writes)) {
        // Ambiguous: the request may or may not have executed before the
        // connection died. Reads resend freely; writes only by opt-in.
        awaiting_reply = false;
        continue;
      }
      return st;
    }
    awaiting_reply = false;
    if (reply.opcode != (static_cast<uint8_t>(op) | kResponseBit)) {
      return Fail(Status::Internal(
          "response opcode mismatch: sent " +
          std::to_string(static_cast<int>(op)) + ", got " +
          std::to_string(static_cast<int>(reply.opcode))));
    }
    std::string_view body;
    Status st = DecodeResponseStatus(reply.payload, &body);
    if (st.ok()) {
      if (ok_body != nullptr) ok_body->assign(body);
      return Status::OK();
    }
    if (st.IsUnavailable()) {
      // kOverloaded / kShuttingDown: the server rejected the request
      // *before* executing it — always safe to resend, and kOverloaded
      // carries a retry-after floor for the backoff.
      ++stats_.overloaded_replies;
      ParseRetryAfterMs(st.message(), &retry_after_hint);
      last = st;
      continue;
    }
    return st;  // Application-level result (NotFound, backpressure, ...).
  }
  if (awaiting_reply && !pending_.empty()) {
    // Every attempt timed out with the reply still owed. Mark it so a
    // later call on this client drains it instead of misparsing it as
    // its own answer.
    pending_.back().abandoned = true;
    ++stats_.abandoned_replies;
  }
  return last;
}

Status Client::Put(Key key, std::string_view value) {
  return Invoke(Opcode::kPut, EncodePutRequest(key, value), /*is_write=*/true,
                nullptr);
}

Status Client::Delete(Key key) {
  return Invoke(Opcode::kDelete, EncodeDeleteRequest(key), /*is_write=*/true,
                nullptr);
}

StatusOr<std::string> Client::Get(Key key) {
  std::string body;
  LSMSSD_RETURN_IF_ERROR(
      Invoke(Opcode::kGet, EncodeGetRequest(key), /*is_write=*/false, &body));
  return body;
}

Status Client::Scan(Key lo, Key hi, uint32_t limit,
                    std::vector<ScanItem>* out) {
  std::string body;
  LSMSSD_RETURN_IF_ERROR(Invoke(Opcode::kScan,
                                EncodeScanRequest(lo, hi, limit),
                                /*is_write=*/false, &body));
  std::vector<ScanItem> items;
  if (!DecodeScanResponseBody(body, &items)) {
    return Fail(Status::Internal("undecodable scan response body"));
  }
  out->insert(out->end(), std::make_move_iterator(items.begin()),
              std::make_move_iterator(items.end()));
  return Status::OK();
}

Status Client::Ping() {
  return Invoke(Opcode::kPing, std::string_view(), /*is_write=*/false,
                nullptr);
}

StatusOr<ServerStats> Client::Stats() {
  std::string body;
  LSMSSD_RETURN_IF_ERROR(Invoke(Opcode::kStats, EncodeStatsRequest(),
                                /*is_write=*/false, &body));
  ServerStats stats;
  stats.text = body;
  // Parseable prefix: `key value` lines up to the first blank line.
  std::string_view rest = stats.text;
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    if (line.empty()) break;  // Blank line ends the parseable section.
    const size_t sp = line.find(' ');
    if (sp == std::string_view::npos) continue;
    const std::string_view k = line.substr(0, sp);
    const uint64_t v = std::strtoull(std::string(line.substr(sp + 1)).c_str(),
                                     nullptr, 10);
    if (k == "payload_size") stats.payload_size = v;
    else if (k == "shards") stats.shards = v;
    else if (k == "checkpoints") stats.checkpoints = v;
    else if (k == "memtables_sealed") stats.memtables_sealed = v;
    else if (k == "stall_events") stats.stall_events = v;
    else if (k == "quarantined_blocks") stats.quarantined_blocks = v;
    else if (k == "scrub_corruptions") stats.scrub_corruptions = v;
    else if (k == "scrub_blocks_verified") stats.scrub_blocks_verified = v;
    else if (k == "frames_processed") stats.frames_processed = v;
    else if (k == "frames_inline") stats.frames_inline = v;
    else if (k == "connections_dropped") stats.connections_dropped = v;
    else if (k == "frames_shed_overload") stats.frames_shed_overload = v;
    else if (k == "frames_rejected_shutdown") stats.frames_rejected_shutdown = v;
    else if (k == "connections_dropped_slow") stats.connections_dropped_slow = v;
  }
  return stats;
}

}  // namespace lsmssd::net
