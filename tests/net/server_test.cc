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
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
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
  // count at zero) and then parks inside the gate.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                            EncodeGetRequest(1))
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
  // (NotFound on an empty store), then two kOverloaded rejections that
  // carry the configured retry-after hint.
  for (Key k = 1; k <= 5; ++k) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok()) << k;
    std::string_view body;
    const Status st = DecodeResponseStatus(frame.payload, &body);
    if (k <= 3) {
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
  ::close(fd);

  // The abuse cost one connection, not the server: a polite client is
  // served as usual.
  auto client = fx.Connect();
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, 1));
}

}  // namespace
}  // namespace lsmssd::net
