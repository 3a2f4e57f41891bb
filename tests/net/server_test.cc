// End-to-end tests of the epoll server + blocking client over a real
// loopback socket, including the abuse cases the protocol contract
// promises to survive: pipelined bursts, malformed frames (connection
// dropped, Db unharmed), CRC-valid-but-undecodable payloads (error
// reply, connection kept), future-version frames (kUnsupportedVersion
// reply, then close), and ResourceExhausted backpressure crossing the
// wire intact.

#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "src/lsm/lsm_tree.h"
#include "src/net/client.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace lsmssd::net {
namespace {

using lsmssd::testing::TinyOptions;

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/net_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

DbOptions TinyDbOptions() {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.checkpoint_wal_bytes = 0;
  return dbopts;
}

struct ServerFixture {
  explicit ServerFixture(const char* tag,
                         DbOptions dbopts = TinyDbOptions(),
                         ServerOptions sopts = ServerOptions()) {
    dir = FreshDir(tag);
    auto db_or = Db::Open(dbopts, dir);
    LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
    db = std::move(db_or).value();
    auto server_or = Server::Start(sopts, db.get());
    LSMSSD_CHECK(server_or.ok()) << server_or.status().ToString();
    server = std::move(server_or).value();
  }
  ~ServerFixture() {
    server->Stop();
    db->Close();
    std::filesystem::remove_all(dir);
  }

  std::unique_ptr<Client> Connect() {
    ClientOptions copts;
    copts.port = server->port();
    auto client_or = Client::Connect(copts);
    LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
    return std::move(client_or).value();
  }

  std::string dir;
  std::unique_ptr<Db> db;
  std::unique_ptr<Server> server;
};

/// Raw loopback socket for bytes the Client refuses to send.
struct RawConn {
  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    LSMSSD_CHECK(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    LSMSSD_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    LSMSSD_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      LSMSSD_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until EOF or `max` bytes; returns what arrived.
  std::string ReadUntilEof(size_t max = 1 << 20) {
    std::string got;
    char buf[4096];
    while (got.size() < max) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    return got;
  }

  int fd = -1;
};

std::string HandEncodeFrame(uint8_t version, uint8_t opcode,
                            std::string_view payload) {
  std::string f(kWireMagic, 4);
  f.push_back(static_cast<char>(version));
  f.push_back(static_cast<char>(opcode));
  AppendU16(&f, 0);
  AppendU32(&f, static_cast<uint32_t>(payload.size()));
  uint32_t crc =
      crc32c::Value(reinterpret_cast<const uint8_t*>(f.data()) + 4, 8);
  crc = crc32c::Extend(crc, reinterpret_cast<const uint8_t*>(payload.data()),
                       payload.size());
  AppendU32(&f, crc);
  f.append(payload);
  return f;
}

std::string Payload(const Options& options, Key key) {
  return MakePayload(options, key);
}

TEST(ServerTest, PutGetDeleteScanStatsEndToEnd) {
  ServerFixture fx("e2e");
  auto client = fx.Connect();
  const Options& options = fx.db->options();

  for (Key k = 1; k <= 30; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok()) << k;
  }
  auto got = client->Get(17);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, 17));

  ASSERT_TRUE(client->Delete(17).ok());
  EXPECT_TRUE(client->Get(17).status().IsNotFound());

  std::vector<ScanItem> items;
  ASSERT_TRUE(client->Scan(10, 20, 0, &items).ok());
  ASSERT_EQ(items.size(), 10u);  // 10..20 minus deleted 17.
  Key prev = 0;
  for (const ScanItem& item : items) {
    EXPECT_GT(item.key, prev);  // Key order.
    EXPECT_NE(item.key, 17u);
    EXPECT_EQ(item.value, Payload(options, item.key));
    prev = item.key;
  }

  // Limit honored.
  items.clear();
  ASSERT_TRUE(client->Scan(1, 30, 5, &items).ok());
  EXPECT_EQ(items.size(), 5u);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->payload_size, options.payload_size);
  EXPECT_EQ(stats->shards, 1u);
  EXPECT_EQ(stats->quarantined_blocks, 0u);
  EXPECT_GT(stats->frames_processed, 30u);
  EXPECT_FALSE(stats->text.empty());
}

TEST(ServerTest, WrongPayloadWidthIsInvalidArgument) {
  ServerFixture fx("width");
  auto client = fx.Connect();
  const Status st = client->Put(1, "short");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // The connection survives an application-level error.
  EXPECT_TRUE(client->Put(1, Payload(fx.db->options(), 1)).ok());
}

TEST(ServerTest, PipelinedRequestsAnswerInOrder) {
  ServerFixture fx("pipeline");
  auto client = fx.Connect();
  const Options& options = fx.db->options();
  constexpr Key kCount = 64;
  for (Key k = 1; k <= kCount; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok());
  }

  // Fire every GET before reading any response; replies must come back
  // in request order, each carrying its own key's payload.
  for (Key k = 1; k <= kCount; ++k) {
    ASSERT_TRUE(
        client
            ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                      EncodeGetRequest(k))
            .ok());
  }
  for (Key k = 1; k <= kCount; ++k) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
    EXPECT_EQ(frame.opcode,
              static_cast<uint8_t>(Opcode::kGet) | kResponseBit);
    std::string_view body;
    ASSERT_TRUE(DecodeResponseStatus(frame.payload, &body).ok());
    EXPECT_EQ(body, Payload(options, k)) << "response out of order at " << k;
  }
}

TEST(ServerTest, MalformedFrameDropsConnectionWithoutPoisoningDb) {
  ServerFixture fx("malformed");
  {
    auto client = fx.Connect();
    ASSERT_TRUE(client->Put(1, Payload(fx.db->options(), 1)).ok());
  }

  {
    // Garbage that can never be a frame header: dropped with no reply.
    RawConn raw(fx.server->port());
    raw.Send("GET / HTTP/1.1\r\nHost: nope\r\n\r\n");
    EXPECT_EQ(raw.ReadUntilEof(), "");
  }
  {
    // A real frame whose CRC is wrong: same treatment (the stream cannot
    // be trusted past a bad CRC).
    std::string f = EncodeFrame(static_cast<uint8_t>(Opcode::kGet),
                                EncodeGetRequest(1));
    f[f.size() - 1] = static_cast<char>(f[f.size() - 1] ^ 0x01);
    RawConn raw(fx.server->port());
    raw.Send(f);
    EXPECT_EQ(raw.ReadUntilEof(), "");
  }

  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 2u);

  // The Db is unharmed: a fresh client reads the old write and makes new
  // ones.
  auto client = fx.Connect();
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(client->Put(2, Payload(fx.db->options(), 2)).ok());
  EXPECT_TRUE(fx.db->tree()->CheckInvariants(true).ok());
}

TEST(ServerTest, UndecodablePayloadGetsErrorReplyAndConnectionSurvives) {
  ServerFixture fx("badpayload");
  auto client = fx.Connect();
  // CRC-valid frame, known opcode, truncated payload: the server can
  // trust the stream, so it answers kMalformedRequest instead of
  // dropping.
  ASSERT_TRUE(
      client->SendRaw(static_cast<uint8_t>(Opcode::kGet), "abc").ok());
  Frame frame;
  ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("malformed"), std::string::npos)
      << st.ToString();

  // Same connection keeps working.
  EXPECT_TRUE(client->Put(5, Payload(fx.db->options(), 5)).ok());
  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 0u);
}

TEST(ServerTest, UnknownOpcodeGetsUnimplemented) {
  ServerFixture fx("badop");
  auto client = fx.Connect();
  ASSERT_TRUE(client->SendRaw(42, "").ok());
  Frame frame;
  ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st.ToString();
}

TEST(ServerTest, UnsupportedVersionGetsReplyThenClose) {
  ServerFixture fx("version");
  RawConn raw(fx.server->port());
  raw.Send(HandEncodeFrame(9, static_cast<uint8_t>(Opcode::kGet),
                           EncodeGetRequest(1)));
  const std::string reply = raw.ReadUntilEof();
  // Exactly one response frame came back before the close.
  Frame frame;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(reply, kDefaultMaxPayloadBytes, &frame, &consumed,
                        &error),
            FrameDecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, reply.size());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version"), std::string::npos) << st.ToString();
  EXPECT_EQ(fx.server->counters().unsupported_version_frames, 1u);
  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 0u);
}

TEST(ServerTest, SplitGetThenGetWithHalfCloseGetsBothReplies) {
  // The event loop stops reading at a short recv rather than spending a
  // syscall on the EAGAIN behind it, so the rest of a split frame, a
  // later frame, and the EOF must each come back as a new readiness
  // event (epoll is level-triggered). One GET arrives in two sends, then
  // a second GET together with the client's half-close.
  const DbOptions dbopts = TinyDbOptions();
  ServerFixture fx("splitget", dbopts);
  ASSERT_TRUE(fx.db->Put(1, Payload(dbopts.options, 1)).ok());
  ASSERT_TRUE(fx.db->Put(2, Payload(dbopts.options, 2)).ok());
  RawConn raw(fx.server->port());
  const std::string get1 =
      EncodeFrame(static_cast<uint8_t>(Opcode::kGet), EncodeGetRequest(1));
  raw.Send(std::string_view(get1).substr(0, 7));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  raw.Send(std::string_view(get1).substr(7));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  raw.Send(EncodeFrame(static_cast<uint8_t>(Opcode::kGet),
                       EncodeGetRequest(2)));
  ASSERT_EQ(::shutdown(raw.fd, SHUT_WR), 0);

  const std::string reply = raw.ReadUntilEof();
  std::string_view rest = reply;
  for (Key key : {Key{1}, Key{2}}) {
    SCOPED_TRACE("reply for key " + std::to_string(key));
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(DecodeFrame(rest, kDefaultMaxPayloadBytes, &frame, &consumed,
                          &error),
              FrameDecodeResult::kFrame)
        << error;
    rest.remove_prefix(consumed);
    std::string_view body;
    ASSERT_TRUE(DecodeResponseStatus(frame.payload, &body).ok());
    EXPECT_EQ(body, Payload(dbopts.options, key));
  }
  EXPECT_TRUE(rest.empty());  // Both replies, then the close.
  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 0u);
}

TEST(ServerTest, BackpressureCodeTravelsTheWire) {
  // A 6-block device bound makes the first L0 flush abort: the paired
  // satellite requirement is that the client sees *ResourceExhausted* —
  // not Corruption, not a dropped connection — exactly as an embedded
  // caller would.
  DbOptions dbopts = TinyDbOptions();
  dbopts.max_device_blocks = 6;
  ServerFixture fx("backpressure", dbopts);
  auto client = fx.Connect();
  const Options& options = fx.db->options();

  Status first_error = Status::OK();
  for (Key k = 1; k <= 500 && first_error.ok(); ++k) {
    first_error = client->Put(k, Payload(options, k));
  }
  ASSERT_FALSE(first_error.ok()) << "device bound never hit";
  EXPECT_TRUE(first_error.IsResourceExhausted()) << first_error.ToString();

  // Backpressure is not poison: reads still work on the same connection.
  auto got = client->Get(1);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(fx.db->Stats().write_backpressure_events, 0u);
}

TEST(ServerTest, ScanRespectsServerCap) {
  ServerOptions sopts;
  sopts.max_scan_results = 7;
  ServerFixture fx("scancap", TinyDbOptions(), sopts);
  auto client = fx.Connect();
  const Options& options = fx.db->options();
  for (Key k = 1; k <= 30; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok());
  }
  std::vector<ScanItem> items;
  ASSERT_TRUE(client->Scan(1, 30, 0, &items).ok());
  EXPECT_EQ(items.size(), 7u);  // Unlimited request truncates to the cap.
  items.clear();
  ASSERT_TRUE(client->Scan(1, 30, 100, &items).ok());
  EXPECT_EQ(items.size(), 7u);  // Request above the cap truncates too.
}

// A SCAN ends at whichever bound comes first: the inclusive upper key
// `hi`, the request's `limit`, or the server's max_scan_results. The data
// spans the memtable and the on-SSD levels, with deletes and overwrites,
// and every answer is checked against a model.
TEST(ServerTest, ScanStopsAtHiLimitOrServerCapWhicheverComesFirst) {
  ServerOptions sopts;
  sopts.max_scan_results = 25;
  ServerFixture fx("scanbounds", TinyDbOptions(), sopts);
  auto client = fx.Connect();
  const Options& options = fx.db->options();
  std::map<Key, std::string> model;
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok());
    model[k] = Payload(options, k);
  }
  for (Key k = 3; k <= 400; k += 7) {
    ASSERT_TRUE(client->Delete(k).ok());
    model.erase(k);
  }
  for (Key k = 5; k <= 400; k += 11) {
    ASSERT_TRUE(client->Put(k, Payload(options, k + 1000)).ok());
    model[k] = Payload(options, k + 1000);
  }
  ASSERT_GT(fx.db->Stats().background_merges, 0u);  // Levels hold data.

  struct Case {
    Key lo, hi;
    uint32_t limit;
    size_t want;  // Expected item count; which bound sets it is the point.
  };
  const Case cases[] = {
      {10, 20, 0, 9},      // hi first: 10..20 minus deleted 10 and 17.
      {10, 20, 4, 4},      // limit first.
      {1, 400, 0, 25},     // server cap first (unlimited request).
      {1, 400, 100, 25},   // cap below the request's limit.
      {1, 400, 25, 25},    // limit == cap.
      {1, 400, 24, 24},    // limit just under the cap.
      {390, 1000, 0, 10},  // past the last key: ends at the data.
      {3, 3, 0, 0},        // a single deleted key.
      {4, 4, 0, 1},        // a single live key (hi inclusive).
      {20, 10, 0, 0},      // inverted range.
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("lo=" + std::to_string(c.lo) + " hi=" +
                 std::to_string(c.hi) + " limit=" + std::to_string(c.limit));
    std::vector<ScanItem> items;
    ASSERT_TRUE(client->Scan(c.lo, c.hi, c.limit, &items).ok());
    EXPECT_EQ(items.size(), c.want);
    auto ref = model.lower_bound(c.lo);
    for (const ScanItem& item : items) {
      ASSERT_NE(ref, model.end());
      EXPECT_LE(item.key, c.hi);
      EXPECT_EQ(item.key, ref->first);
      EXPECT_EQ(item.value, ref->second);
      ++ref;
    }
  }
}

TEST(ServerTest, ConcurrentClientsShareOneGroupCommit) {
  DbOptions dbopts = TinyDbOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 8;
  ServerFixture fx("groupcommit", dbopts);
  const Options& options = fx.db->options();

  constexpr int kThreads = 4;
  constexpr Key kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = fx.server->port();
      auto client_or = Client::Connect(copts);
      ASSERT_TRUE(client_or.ok());
      auto& client = *client_or;
      for (Key i = 0; i < kPerThread; ++i) {
        const Key key = static_cast<Key>(t) * 10000 + i + 1;
        ASSERT_TRUE(client->Put(key, Payload(options, key)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // All writes landed; group commit means far fewer syncs than entries.
  const DbStats stats = fx.db->Stats();
  EXPECT_EQ(stats.wal_entries_appended, kThreads * kPerThread);
  EXPECT_LT(stats.wal_syncs, stats.wal_entries_appended);
  auto client = fx.Connect();
  for (int t = 0; t < kThreads; ++t) {
    const Key probe = static_cast<Key>(t) * 10000 + 1;
    EXPECT_TRUE(client->Get(probe).ok()) << "thread " << t;
  }
}

/// A listening loopback socket that accepts but replies only when told —
/// impersonating a stalled server for client-timeout tests.
struct StalledServer {
  StalledServer() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    LSMSSD_CHECK(listen_fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // Ephemeral.
    LSMSSD_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    LSMSSD_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    LSMSSD_CHECK(::listen(listen_fd, 1) == 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    LSMSSD_CHECK(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                               &len) == 0);
    port = ntohs(bound.sin_port);
  }
  ~StalledServer() {
    if (conn_fd >= 0) ::close(conn_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void Accept() {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
    LSMSSD_CHECK(conn_fd >= 0);
  }
  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(conn_fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      LSMSSD_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  int listen_fd = -1;
  int conn_fd = -1;
  uint16_t port = 0;
};

TEST(ServerTest, ReceiveTimeoutIsNonFatalAndResumable) {
  StalledServer stalled;
  ClientOptions copts;
  copts.port = stalled.port;
  copts.io_timeout_ms = 200;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();
  stalled.Accept();

  // The request goes out, but no reply comes: ReceiveResponse must return
  // TimedOut instead of blocking forever — and must NOT latch the
  // connection dead.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                            EncodeGetRequest(42))
                  .ok());
  Frame frame;
  Status st = client->ReceiveResponse(&frame);
  ASSERT_TRUE(st.IsTimedOut()) << st.ToString();

  // Feed half a response frame; the next receive still times out (the
  // partial frame stays buffered, the stream stays aligned).
  const std::string reply =
      EncodeFrame(static_cast<uint8_t>(Opcode::kGet) | kResponseBit,
                  EncodeErrorResponse(Status::NotFound("nope")));
  stalled.Send(std::string_view(reply).substr(0, reply.size() / 2));
  st = client->ReceiveResponse(&frame);
  ASSERT_TRUE(st.IsTimedOut()) << st.ToString();

  // The server wakes up and completes the frame: the owed response now
  // arrives intact on the same connection.
  stalled.Send(std::string_view(reply).substr(reply.size() / 2));
  st = client->ReceiveResponse(&frame);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kGet) | kResponseBit);
  std::string_view body;
  EXPECT_TRUE(DecodeResponseStatus(frame.payload, &body).IsNotFound());
}

TEST(ServerTest, PingIsACheapHealthCheck) {
  ServerFixture fx("ping");
  auto client = fx.Connect();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());

  // PING carries no payload by contract; a stuffed one is malformed —
  // answered as an error, connection kept (the stream is still trusted).
  ASSERT_TRUE(
      client->SendRaw(static_cast<uint8_t>(Opcode::kPing), "x").ok());
  Frame frame;
  ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("malformed"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(client->Ping().ok()) << "connection must survive";
}

/// Blocks the (single) worker inside the first executed request until
/// Release(); later requests pass straight through.
struct WorkerGate {
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu);
      if (blocked_once) return;
      blocked_once = true;
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  bool blocked_once = false;
  bool entered = false;
  bool released = false;
};

// SendRaw returning means only that the bytes left the client; the event
// loop may not have read them yet. Releasing a WorkerGate before the
// frames meant to be shed were admitted would let the worker drain the
// queue first and admit them, so wait (bounded) for the sheds.
void AwaitShedOverload(const Server& server, uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.counters().frames_shed_overload < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerTest, OverloadShedsInOrderInsteadOfQueueingUnbounded) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_pending_frames = 2;
  sopts.overload_retry_after_ms = 7;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("overload", TinyDbOptions(), sopts);
  auto client = fx.Connect();

  // Frame #1 is swapped into the worker's batch (leaving the pending
  // count at zero) and then parks inside the gate. It is a PUT: a GET on
  // an idle connection would be answered on the event loop and never
  // reach the worker.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                            EncodePutRequest(1, Payload(fx.db->options(), 1)))
                  .ok());
  gate.AwaitEntered();

  // With the worker wedged, frames #2 and #3 fill the pool-wide cap;
  // #4 and #5 must be shed at admission, not queued.
  for (Key k = 2; k <= 5; ++k) {
    ASSERT_TRUE(client
                    ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                              EncodeGetRequest(k))
                    .ok());
  }
  AwaitShedOverload(*fx.server, 2);
  gate.Release();

  // Replies still arrive strictly in request order: three real answers
  // (the PUT's OK, then NotFound for keys never written), then two
  // kOverloaded rejections that carry the configured retry-after hint.
  for (Key k = 1; k <= 5; ++k) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok()) << k;
    std::string_view body;
    const Status st = DecodeResponseStatus(frame.payload, &body);
    if (k == 1) {
      EXPECT_TRUE(st.ok()) << k << ": " << st.ToString();
    } else if (k <= 3) {
      EXPECT_TRUE(st.IsNotFound()) << k << ": " << st.ToString();
    } else {
      EXPECT_TRUE(st.IsUnavailable()) << k << ": " << st.ToString();
      EXPECT_NE(st.message().find("overloaded"), std::string::npos);
      uint32_t hint = 0;
      ASSERT_TRUE(ParseRetryAfterMs(st.message(), &hint)) << st.ToString();
      EXPECT_EQ(hint, 7u);
    }
  }
  EXPECT_EQ(fx.server->counters().frames_shed_overload, 2u);
  EXPECT_EQ(fx.server->counters().frames_processed, 3u);

  // The shed counters travel the wire in the stats dump.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->frames_shed_overload, 2u);
  EXPECT_EQ(stats->frames_rejected_shutdown, 0u);
  EXPECT_EQ(stats->connections_dropped_slow, 0u);
}

TEST(ServerTest, HealthProbesAdmittedWhileOverloadShedsWrites) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_pending_frames = 2;
  sopts.overload_retry_after_ms = 7;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("overload_ping", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  auto client = fx.Connect();

  // Frame #1 parks inside the worker; #2 and #3 fill the pool-wide cap.
  for (Key k = 1; k <= 3; ++k) {
    ASSERT_TRUE(client
                    ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                              EncodePutRequest(k, Payload(options, k)))
                    .ok());
    if (k == 1) gate.AwaitEntered();
  }
  // At the cap: a PUT is shed, but PING and STATS must still be
  // admitted — an operator diagnosing the overload needs them.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                            EncodePutRequest(4, Payload(options, 4)))
                  .ok());
  ASSERT_TRUE(client->SendRaw(static_cast<uint8_t>(Opcode::kPing), "").ok());
  ASSERT_TRUE(client->SendRaw(static_cast<uint8_t>(Opcode::kStats), "").ok());
  AwaitShedOverload(*fx.server, 1);
  gate.Release();

  // In order: three real PUT acks, the shed PUT, then the two probes —
  // both answered for real, not rejected.
  for (int i = 1; i <= 6; ++i) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok()) << "frame " << i;
    std::string_view body;
    const Status st = DecodeResponseStatus(frame.payload, &body);
    if (i == 4) {
      EXPECT_TRUE(st.IsUnavailable()) << i << ": " << st.ToString();
      EXPECT_NE(st.message().find("overloaded"), std::string::npos);
    } else {
      EXPECT_TRUE(st.ok()) << i << ": " << st.ToString();
    }
  }
  EXPECT_EQ(fx.server->counters().frames_shed_overload, 1u);
}

TEST(ServerTest, DrainAnswersEveryInFlightFrameThenRejectsLateOnes) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("drain", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();

  // Four connections each pipeline a burst of PUTs, none of which can
  // complete while the gate holds the worker.
  constexpr int kConns = 4;
  constexpr Key kBurst = 8;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) clients.push_back(fx.Connect());
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      const Key key = static_cast<Key>(c) * 1000 + i;
      ASSERT_TRUE(clients[c]
                      ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                                EncodePutRequest(key, Payload(options, key)))
                      .ok());
    }
  }
  gate.AwaitEntered();
  // Barrier: the event loop answers a wrong-version frame itself and
  // handles ready sockets in the order they became ready, so once this
  // reply is back every PUT above has been read and queued. Without it
  // the drain could close a connection whose PUTs were still unread.
  {
    RawConn barrier(fx.server->port());
    barrier.Send(HandEncodeFrame(kWireVersion + 1,
                                 static_cast<uint8_t>(Opcode::kPing), ""));
    ASSERT_FALSE(barrier.ReadUntilEof().empty());
  }

  // Drain while all 32 frames are in flight.
  std::thread drainer([&] { EXPECT_TRUE(fx.server->Drain(5000)); });
  ClientOptions copts;
  copts.port = fx.server->port();
  // Wait (bounded) for the drain to begin: the epoll thread retires the
  // listener in the same housekeeping pass that starts the drain, so the
  // first refused connection proves the drain is under way.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (Client::Connect(copts).ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The listener is gone: new connections are refused...
  {
    auto refused = Client::Connect(copts);
    EXPECT_FALSE(refused.ok());
  }
  // ...and frames arriving on live connections after drain-begin are
  // rejected, not executed.
  for (int c = 0; c < kConns; ++c) {
    ASSERT_TRUE(clients[c]
                    ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                              EncodeGetRequest(1))
                    .ok());
  }
  gate.Release();

  // Every accepted frame is answered before the connection closes: the
  // full burst succeeds, then the late frame gets kShuttingDown.
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      Frame frame;
      ASSERT_TRUE(clients[c]->ReceiveResponse(&frame).ok())
          << "conn " << c << " frame " << i;
      std::string_view body;
      EXPECT_TRUE(DecodeResponseStatus(frame.payload, &body).ok())
          << "conn " << c << " frame " << i;
    }
    Frame late;
    ASSERT_TRUE(clients[c]->ReceiveResponse(&late).ok()) << c;
    std::string_view body;
    const Status st = DecodeResponseStatus(late.payload, &body);
    EXPECT_TRUE(st.IsUnavailable()) << c << ": " << st.ToString();
    EXPECT_NE(st.message().find("shutting down"), std::string::npos);
  }
  drainer.join();

  EXPECT_EQ(fx.server->counters().frames_processed, kConns * kBurst);
  EXPECT_EQ(fx.server->counters().frames_rejected_shutdown,
            static_cast<uint64_t>(kConns));

  // Nothing accepted was lost: the store holds every acked write.
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      const Key key = static_cast<Key>(c) * 1000 + i;
      auto got = fx.db->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, Payload(options, key));
    }
  }
}

TEST(ServerTest, DrainWithIdleConnectionsCompletesImmediately) {
  ServerFixture fx("drainidle");
  auto a = fx.Connect();
  auto b = fx.Connect();
  ASSERT_TRUE(a->Ping().ok());
  ASSERT_TRUE(b->Ping().ok());
  EXPECT_TRUE(fx.server->Drain(2000));
  // Idle connections were simply closed; the next call observes it.
  Frame frame;
  EXPECT_FALSE(a->ReceiveResponse(&frame).ok());
}

TEST(ServerTest, SlowClientIsEvictedByBacklogCapNotBufferedForever) {
  ServerOptions sopts;
  sopts.max_conn_backlog_bytes = 1024;
  ServerFixture fx("slowpoke", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  {
    auto seeder = fx.Connect();
    for (Key k = 1; k <= kSeeded; ++k) {
      ASSERT_TRUE(seeder->Put(k, Payload(options, k)).ok());
    }
  }

  // A reader that requests large scans and never drains its socket. A
  // tiny fixed SO_RCVBUF (set before connect) pins the TCP window so
  // kernel autotuning cannot absorb the responses: they pile up in the
  // server's userspace backlog until the cap evicts the connection.
  // Sends are best-effort: the server may (correctly) reset the
  // connection mid-burst.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string scan = EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                                       EncodeScanRequest(1, kSeeded, 0));
  for (int i = 0; i < 1000; ++i) {
    const ssize_t n = ::send(fd, scan.data(), scan.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // Evicted while we were still pouring requests.
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->counters().connections_dropped_slow == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->counters().connections_dropped_slow, 1u);
  // The server's own backlog sees a non-reading client within a few
  // responses (the kernel holds little unsent data per socket), and the
  // worker stops executing the pipeline at the response that leaves the
  // backlog over the cap instead of running every doomed ~16 KiB scan.
  const uint64_t scans_executed =
      fx.server->counters().frames_processed - kSeeded;
  EXPECT_LT(scans_executed, 100u);
  std::printf("slow client: %llu scans executed before the eviction\n",
              static_cast<unsigned long long>(scans_executed));
  ::close(fd);

  // The abuse cost one connection, not the server: a polite client is
  // served as usual.
  auto client = fx.Connect();
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, 1));
}

// A connection the backlog cap evicted awaits the event loop's close;
// frames read in that window join the queue its worker skips and are not
// answered on the event loop. The reader pipelines scans (the first one
// makes the connection busy, and the eviction comes well within them),
// then pours GETs and PINGs, which the event loop would answer itself on
// an idle connection, until the server resets it.
TEST(ServerTest, EvictedConnectionAnswersNothingOnTheEventLoop) {
  ServerOptions sopts;
  sopts.max_conn_backlog_bytes = 1024;
  ServerFixture fx("slowinline", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  for (Key k = 1; k <= kSeeded; ++k) {
    ASSERT_TRUE(fx.db->Put(k, Payload(options, k)).ok());
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string scans;
  for (int i = 0; i < 100; ++i) {
    scans += EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                         EncodeScanRequest(1, kSeeded, 0));
  }
  ASSERT_EQ(::send(fd, scans.data(), scans.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(scans.size()));
  // A key past every leaf: an idle connection's GET of it needs no block
  // read, so only the eviction keeps it off the event loop.
  const std::string reads =
      EncodeFrame(static_cast<uint8_t>(Opcode::kGet),
                  EncodeGetRequest(kSeeded * 1000)) +
      EncodeFrame(static_cast<uint8_t>(Opcode::kPing), "");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t off = 0;  // Into `reads`: a partial send must not split frames.
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::send(fd, reads.data() + off, reads.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off = (off + static_cast<size_t>(n)) % reads.size();
    } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      break;  // Reset: the server closed the connection.
    }
  }
  ::close(fd);
  while (fx.server->counters().connections_dropped_slow == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerCounters c = fx.server->counters();
  EXPECT_EQ(c.connections_dropped_slow, 1u);
  EXPECT_EQ(c.frames_inline, 0u);
}

// The cap holds per response even inside one batch: 1,000 scans arrive
// in one send and queue behind a gated first scan, so the worker's next
// batch holds all the rest. A per-batch check would execute every one of
// them before looking at the backlog.
TEST(ServerTest, BacklogCapEvictsWithinOneBatch) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_conn_backlog_bytes = 1024;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("slowbatch", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  for (Key k = 1; k <= kSeeded; ++k) {
    ASSERT_TRUE(fx.db->Put(k, Payload(options, k)).ok());
  }

  // A reader with a pinned tiny window that never drains its socket.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  constexpr int kScans = 1000;
  std::string burst;
  for (int i = 0; i < kScans; ++i) {
    burst += EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                         EncodeScanRequest(1, kSeeded, 0));
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  gate.AwaitEntered();
  // Barrier: the event loop answers this PING itself, after the earlier
  // readiness event of the burst's socket, so every scan is queued now.
  auto prober = fx.Connect();
  ASSERT_TRUE(prober->Ping().ok());
  gate.Release();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->counters().connections_dropped_slow == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->counters().connections_dropped_slow, 1u);
  const ServerCounters c = fx.server->counters();
  const uint64_t scans_executed = c.frames_processed - c.frames_inline;
  EXPECT_LT(scans_executed, 100u);
  ::close(fd);
}

/// Reads one response frame from a raw socket, keeping any surplus bytes
/// in `*buf` for the next call. False on EOF, a malformed stream, or no
/// progress for 10 s (a lost reply fails the test instead of hanging it).
bool ReadFrame(RawConn& conn, std::string* buf, Frame* frame) {
  const timeval timeout{10, 0};
  ::setsockopt(conn.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  while (true) {
    size_t consumed = 0;
    const FrameDecodeResult r = DecodeFrame(*buf, kDefaultMaxPayloadBytes,
                                            frame, &consumed, nullptr);
    if (r == FrameDecodeResult::kFrame) {
      buf->erase(0, consumed);
      return true;
    }
    if (r == FrameDecodeResult::kMalformed) return false;
    char chunk[4096];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

// Every opcode, pipelined raw in bursts of random length, so consecutive
// frames mix the event-loop path (a GET or PING on an idle connection)
// and the worker path (everything else, and whatever queues behind it).
// A small pipelining cap makes long bursts pause reading and resume it.
// Each burst goes out in one send; each reply must match a std::map
// model advanced in request order.
TEST(ServerTest, RandomizedPipelineMatchesModelInRequestOrder) {
  ServerOptions sopts;
  sopts.max_pipelined_requests = 8;
  // Every block cached, so a GET's path depends on its connection alone.
  DbOptions dbopts = TinyDbOptions();
  dbopts.options.cache_blocks = 1 << 12;
  ServerFixture fx("randpipe", dbopts, sopts);
  const Options& options = fx.db->options();
  RawConn conn(fx.server->port());
  std::string inbuf;
  std::map<Key, std::string> model;
  std::mt19937 rng(20241019);
  auto pick = [&rng](uint32_t n) {
    return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
  };
  constexpr Key kKeySpace = 200;
  for (int burst = 0; burst < 300; ++burst) {
    struct Expected {
      Opcode op;
      Key key = 0;
      std::optional<std::string> value;  // GET: nullopt = NotFound.
      std::vector<ScanItem> items;       // SCAN.
    };
    std::vector<Expected> expected;
    std::string bytes;
    const uint32_t len = 1 + pick(burst % 4 == 0 ? 1 : 24);
    for (uint32_t i = 0; i < len; ++i) {
      const Key key = 1 + pick(kKeySpace);
      Expected e;
      e.key = key;
      switch (pick(10)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          e.op = Opcode::kGet;
          bytes += EncodeFrame(static_cast<uint8_t>(e.op),
                               EncodeGetRequest(key));
          auto it = model.find(key);
          if (it != model.end()) e.value = it->second;
          break;
        }
        case 4:
        case 5: {
          e.op = Opcode::kPut;
          // Vary the value so an overwrite is observable.
          const std::string value =
              Payload(options, key + kKeySpace * pick(3));
          bytes += EncodeFrame(static_cast<uint8_t>(e.op),
                               EncodePutRequest(key, value));
          model[key] = value;
          break;
        }
        case 6: {
          e.op = Opcode::kDelete;
          bytes += EncodeFrame(static_cast<uint8_t>(e.op),
                               EncodeDeleteRequest(key));
          model.erase(key);
          break;
        }
        case 7: {
          e.op = Opcode::kScan;
          const Key hi = key + pick(40);
          const uint32_t limit = pick(3) == 0 ? 0 : 1 + pick(10);
          bytes += EncodeFrame(static_cast<uint8_t>(e.op),
                               EncodeScanRequest(key, hi, limit));
          for (auto it = model.lower_bound(key);
               it != model.end() && it->first <= hi &&
               (limit == 0 || e.items.size() < limit);
               ++it) {
            e.items.push_back(ScanItem{it->first, it->second});
          }
          break;
        }
        default:
          e.op = Opcode::kPing;
          bytes += EncodeFrame(static_cast<uint8_t>(e.op), "");
          break;
      }
      expected.push_back(std::move(e));
    }
    conn.Send(bytes);
    for (size_t i = 0; i < expected.size(); ++i) {
      const Expected& e = expected[i];
      Frame frame;
      ASSERT_TRUE(ReadFrame(conn, &inbuf, &frame))
          << "burst " << burst << " frame " << i;
      ASSERT_EQ(frame.opcode, static_cast<uint8_t>(e.op) | kResponseBit)
          << "burst " << burst << " frame " << i << ": reply out of order";
      std::string_view body;
      const Status st = DecodeResponseStatus(frame.payload, &body);
      if (e.op == Opcode::kGet && !e.value) {
        EXPECT_TRUE(st.IsNotFound())
            << "burst " << burst << " key " << e.key << ": " << st.ToString();
        continue;
      }
      ASSERT_TRUE(st.ok()) << "burst " << burst << " frame " << i << ": "
                           << st.ToString();
      if (e.op == Opcode::kGet) {
        EXPECT_EQ(body, *e.value) << "burst " << burst << " key " << e.key;
      } else if (e.op == Opcode::kScan) {
        std::vector<ScanItem> items;
        ASSERT_TRUE(DecodeScanResponseBody(body, &items));
        ASSERT_EQ(items.size(), e.items.size()) << "burst " << burst;
        for (size_t j = 0; j < items.size(); ++j) {
          EXPECT_EQ(items[j].key, e.items[j].key) << "burst " << burst;
          EXPECT_EQ(items[j].value, e.items[j].value) << "burst " << burst;
        }
      }
    }
  }

  // A GET on a fresh (idle) connection is answered on the event loop...
  const uint64_t inline_before = fx.server->counters().frames_inline;
  auto idle = fx.Connect();
  EXPECT_EQ(idle->Get(1).ok(), model.count(1) == 1);
  EXPECT_GT(fx.server->counters().frames_inline, inline_before);

  // ...but one that arrives behind a queued PUT waits its turn on the
  // worker. PUT and GET go out in one send, so one read sees both.
  const uint64_t inline_mid = fx.server->counters().frames_inline;
  RawConn behind(fx.server->port());
  behind.Send(EncodeFrame(static_cast<uint8_t>(Opcode::kPut),
                          EncodePutRequest(7, Payload(options, 7))) +
              EncodeFrame(static_cast<uint8_t>(Opcode::kGet),
                          EncodeGetRequest(7)));
  std::string behind_buf;
  Frame put_reply;
  Frame get_reply;
  ASSERT_TRUE(ReadFrame(behind, &behind_buf, &put_reply));
  ASSERT_TRUE(ReadFrame(behind, &behind_buf, &get_reply));
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(get_reply.payload, &body).ok());
  EXPECT_EQ(body, Payload(options, 7));
  EXPECT_EQ(fx.server->counters().frames_inline, inline_mid);

  auto stats = idle->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->frames_inline, fx.server->counters().frames_inline);
}

// The event loop never waits on the device either: without a buffer
// cache, an idle connection's GET of a key in the levels goes to a
// worker, while one of a memtable key is answered on the event loop.
TEST(ServerTest, GetThatReadsTheDeviceGoesToAWorker) {
  ServerFixture fx("deviceget");
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;
  for (Key k = 1; k <= kSeeded; ++k) {
    ASSERT_TRUE(fx.db->Put(k, Payload(options, k)).ok());
  }
  LsmTree& tree = *fx.db->tree();
  ASSERT_GT(tree.num_levels(), 1u);
  ASSERT_EQ(tree.FindInMemtables(1), nullptr);
  ASSERT_NE(tree.FindInMemtables(kSeeded), nullptr);

  // The memtable GET goes first: an inline answer leaves the connection
  // idle, while a worker's reply can reach the client before that worker
  // marks the connection idle, and a GET sent then would queue behind it.
  auto client = fx.Connect();
  const uint64_t inline_before = fx.server->counters().frames_inline;
  auto got = client->Get(kSeeded);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, kSeeded));
  EXPECT_EQ(fx.server->counters().frames_inline, inline_before + 1);
  got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, 1));
  EXPECT_EQ(fx.server->counters().frames_inline, inline_before + 1);
}

// The event loop never waits on an engine lock. An open iterator pins
// the shared locks; a Put queued behind it makes every new shared
// acquisition wait (the lock prefers writers). A GET arriving then must
// not freeze the event loop: it goes to a worker, and a PING on another
// connection is still answered at once.
TEST(ServerTest, ContendedGetLeavesTheEventLoopFree) {
  ServerFixture fx("contended");
  const Options& options = fx.db->options();
  ASSERT_TRUE(fx.db->Put(1, Payload(options, 1)).ok());

  ClientOptions copts;
  copts.port = fx.server->port();
  copts.io_timeout_ms = 300;
  auto a_or = Client::Connect(copts);
  auto b_or = Client::Connect(copts);
  ASSERT_TRUE(a_or.ok() && b_or.ok());
  auto a = std::move(a_or).value();
  auto b = std::move(b_or).value();
  ASSERT_TRUE(b->Ping().ok());

  std::unique_ptr<Iterator> pin = fx.db->NewIterator();
  ASSERT_NE(pin, nullptr);
  std::thread writer([&] { EXPECT_TRUE(fx.db->Put(2, Payload(options, 2)).ok()); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool would_block = false;
  while (!would_block && std::chrono::steady_clock::now() < deadline) {
    would_block = !fx.db->TryGet(1).has_value();
    if (!would_block) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(would_block) << "the Put never queued behind the iterator";

  ASSERT_TRUE(a->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                         EncodeGetRequest(1))
                  .ok());
  Frame frame;
  const Status pending = a->ReceiveResponse(&frame);
  EXPECT_TRUE(pending.IsTimedOut()) << pending.ToString();
  EXPECT_TRUE(b->Ping().ok()) << "the event loop is blocked";

  pin.reset();
  writer.join();
  ASSERT_TRUE(a->ReceiveResponse(&frame).ok());
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(frame.payload, &body).ok());
  EXPECT_EQ(body, Payload(options, 1));
}

// A worker clears a connection's busy flag in the same critical section
// as the send of its last reply, so a GET the client sends as soon as
// that reply arrives finds the connection idle and runs on the event
// loop.
TEST(ServerTest, GetRightAfterAWorkerReplyRunsInline) {
  ServerFixture fx("afterworker");
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;
  for (Key k = 1; k <= kSeeded; ++k) {
    ASSERT_TRUE(fx.db->Put(k, Payload(options, k)).ok());
  }
  LsmTree& tree = *fx.db->tree();
  ASSERT_EQ(tree.FindInMemtables(1), nullptr);
  ASSERT_NE(tree.FindInMemtables(kSeeded), nullptr);

  auto client = fx.Connect();
  for (int round = 0; round < 20; ++round) {
    const uint64_t inline_before = fx.server->counters().frames_inline;
    auto got = client->Get(1);  // Reads the device: a worker answers.
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(fx.server->counters().frames_inline, inline_before) << round;
    got = client->Get(kSeeded);  // A memtable hit, sent at once.
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, Payload(options, kSeeded));
    EXPECT_EQ(fx.server->counters().frames_inline, inline_before + 1)
        << "round " << round
        << ": the GET queued behind a worker that had already replied";
  }
}

// A wrong-version frame pipelined behind a request that is still on a
// worker is rejected in its turn: the earlier reply goes out first, then
// the rejection, then the close.
TEST(ServerTest, UnsupportedVersionReplyWaitsForEarlierReplies) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("version_order", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();

  RawConn raw(fx.server->port());
  raw.Send(EncodeFrame(static_cast<uint8_t>(Opcode::kPut),
                       EncodePutRequest(1, Payload(options, 1))) +
           HandEncodeFrame(kWireVersion + 1, static_cast<uint8_t>(Opcode::kGet),
                           EncodeGetRequest(1)));
  gate.AwaitEntered();
  // The event loop has parsed the wrong-version frame before the PUT may
  // finish.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.server->counters().unsupported_version_frames < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fx.server->counters().unsupported_version_frames, 1u);
  gate.Release();

  std::string buf = raw.ReadUntilEof();
  Frame put_reply;
  Frame reject;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(buf, kDefaultMaxPayloadBytes, &put_reply, &consumed,
                        nullptr),
            FrameDecodeResult::kFrame);
  buf.erase(0, consumed);
  ASSERT_EQ(DecodeFrame(buf, kDefaultMaxPayloadBytes, &reject, &consumed,
                        nullptr),
            FrameDecodeResult::kFrame);
  EXPECT_EQ(consumed, buf.size()) << "bytes after the rejection";

  std::string_view body;
  EXPECT_EQ(put_reply.opcode,
            static_cast<uint8_t>(Opcode::kPut) | kResponseBit)
      << "the rejection overtook the PUT's reply";
  EXPECT_TRUE(DecodeResponseStatus(put_reply.payload, &body).ok());
  EXPECT_EQ(reject.opcode, static_cast<uint8_t>(Opcode::kGet) | kResponseBit);
  const Status st = DecodeResponseStatus(reject.payload, &body);
  EXPECT_NE(st.message().find("version"), std::string::npos) << st.ToString();
  EXPECT_TRUE(fx.db->Get(1).ok());
}

}  // namespace
}  // namespace lsmssd::net
