#ifndef LSMSSD_BENCH_HARNESS_EMBEDDED_SERVER_H_
#define LSMSSD_BENCH_HARNESS_EMBEDDED_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd::bench {

/// Configuration for an in-process bench server (Db + net::Server on a
/// loopback ephemeral port).
struct EmbeddedServerOptions {
  std::string dir;          ///< Db directory (created; wiped on Start).
  size_t shards = 1;
  size_t server_workers = 4;
  /// Maintenance knobs for soak runs: a non-zero scrub cadence keeps the
  /// online scrubber walking blocks during the workload, and a small
  /// checkpoint threshold keeps background checkpoints firing.
  uint64_t scrub_interval_ms = 0;
  uint64_t checkpoint_wal_mb = 8;
  bool background_compaction = true;
  /// Overload knobs (pass-through to net::ServerOptions); 0 = default.
  size_t max_pending_frames = 0;
  uint32_t overload_retry_after_ms = 0;
  /// Fixed port (0 = ephemeral). A chaos restart re-binds the port the
  /// clients already hold (SO_REUSEADDR makes the re-bind immediate).
  uint16_t port = 0;
  /// False = recover from an existing dir instead of wiping it — the
  /// restart half of a kill/restart cycle.
  bool wipe_dir = true;
  /// Sync the WAL on every commit instead of group-commit kEveryN. The
  /// chaos soak needs acked == durable for its lost-write oracle.
  bool wal_sync_always = false;
};

/// An lsmssd server running inside the bench process. This header
/// deliberately exposes no Db (or any engine) type: binaries that link
/// it talk to the store exclusively through src/net/client.h, which is
/// what keeps the YCSB bench an honest network client. The engine lives
/// behind the pimpl in embedded_server.cc.
class EmbeddedServer {
 public:
  /// Integrity epilogue produced by Stop(): did the sustained load leave
  /// the store clean?
  struct Report {
    uint64_t frames_processed = 0;
    uint64_t frames_inline = 0;  ///< Of those, answered on the event loop.
    uint64_t connections_dropped_malformed = 0;
    uint64_t checkpoints = 0;        ///< Includes background checkpoints.
    uint64_t memtables_sealed = 0;
    uint64_t scrub_blocks_verified = 0;
    uint64_t scrub_corruptions = 0;  ///< Must be 0 on healthy hardware.
    uint64_t quarantined_blocks = 0; ///< Must be 0.
    /// Block accounting after the final checkpoint: every live device
    /// block is referenced by exactly one leaf (summed across shards).
    uint64_t live_blocks = 0;
    uint64_t manifest_leaves = 0;
    bool leak_check_ok = false;      ///< live_blocks == manifest_leaves.
  };

  /// Wipes opts.dir, opens a fresh Db there, and serves it on
  /// 127.0.0.1:<ephemeral>.
  static StatusOr<std::unique_ptr<EmbeddedServer>> Start(
      const EmbeddedServerOptions& opts);
  ~EmbeddedServer();  ///< Stops (discarding the report) if still running.

  uint16_t port() const;

  /// Graceful shutdown: drains the server, waits out queued compaction,
  /// takes a final checkpoint, runs a full synchronous scrub, and
  /// leak-checks device blocks against the tree. The Db directory is
  /// removed afterwards.
  StatusOr<Report> Stop();

  /// Chaos kill: abruptly stops the server (connections dropped, no
  /// drain) and closes the Db WITHOUT a final checkpoint, leaving the
  /// directory behind — recovery must come from the WAL + last
  /// checkpoint, exactly as after a process kill. Restart with
  /// Start(wipe_dir=false, same dir, same port).
  Status Kill();

 private:
  struct Impl;
  EmbeddedServer();
  std::unique_ptr<Impl> impl_;
};

}  // namespace lsmssd::bench

#endif  // LSMSSD_BENCH_HARNESS_EMBEDDED_SERVER_H_
