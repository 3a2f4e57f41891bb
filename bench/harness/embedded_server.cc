#include "bench/harness/embedded_server.h"

#include <filesystem>
#include <utility>

#include "bench/harness/experiment.h"
#include "src/db/db.h"
#include "src/net/server.h"

namespace lsmssd::bench {

struct EmbeddedServer::Impl {
  std::string dir;
  std::unique_ptr<Db> db;
  std::unique_ptr<net::Server> server;
};

EmbeddedServer::EmbeddedServer() : impl_(std::make_unique<Impl>()) {}

EmbeddedServer::~EmbeddedServer() {
  if (impl_ && impl_->server) Stop();
}

uint16_t EmbeddedServer::port() const { return impl_->server->port(); }

StatusOr<std::unique_ptr<EmbeddedServer>> EmbeddedServer::Start(
    const EmbeddedServerOptions& opts) {
  if (opts.dir.empty()) {
    return Status::InvalidArgument("EmbeddedServerOptions::dir is required");
  }
  if (opts.wipe_dir) std::filesystem::remove_all(opts.dir);

  DbOptions dbopts;
  dbopts.options = BenchOptions();
  dbopts.options.annihilate_delete_put = false;  // Db requires it off.
  if (opts.wal_sync_always) {
    // Chaos soak: an acked write must be durable at the moment of the
    // ack, or the lost-write oracle has nothing to hold the server to.
    dbopts.wal_sync_mode = WalSyncMode::kAlways;
  } else {
    // Group commit: concurrent client connections (one worker each) batch
    // their WAL syncs — the regime the server exists to exercise.
    dbopts.wal_sync_mode = WalSyncMode::kEveryN;
    dbopts.wal_sync_every_n = 64;
  }
  dbopts.checkpoint_wal_bytes = opts.checkpoint_wal_mb * 1024 * 1024;
  dbopts.background_compaction = opts.background_compaction;
  dbopts.shards = opts.shards;
  dbopts.scrub_interval_ms = opts.scrub_interval_ms;

  auto db_or = Db::Open(dbopts, opts.dir);
  if (!db_or.ok()) return db_or.status();

  std::unique_ptr<EmbeddedServer> es(new EmbeddedServer());
  es->impl_->dir = opts.dir;
  es->impl_->db = std::move(db_or).value();

  net::ServerOptions sopts;
  sopts.workers = opts.server_workers;
  sopts.port = opts.port;
  if (opts.max_pending_frames != 0) {
    sopts.max_pending_frames = opts.max_pending_frames;
  }
  if (opts.overload_retry_after_ms != 0) {
    sopts.overload_retry_after_ms = opts.overload_retry_after_ms;
  }
  auto server_or = net::Server::Start(sopts, es->impl_->db.get());
  if (!server_or.ok()) return server_or.status();
  es->impl_->server = std::move(server_or).value();
  return es;
}

StatusOr<EmbeddedServer::Report> EmbeddedServer::Stop() {
  Impl& impl = *impl_;
  if (!impl.server) {
    return Status::FailedPrecondition("EmbeddedServer already stopped");
  }
  impl.server->Drain(/*deadline_ms=*/5000);
  const net::ServerCounters counters = impl.server->counters();
  Db& db = *impl.db;

  // Drain queued compaction work, then checkpoint: the checkpoint also
  // recycles deferred frees, so the leak check below is exact.
  LSMSSD_RETURN_IF_ERROR(db.WaitForCompaction());
  LSMSSD_RETURN_IF_ERROR(db.Checkpoint());
  // Full synchronous scrub on top of whatever the online scrubber
  // already covered: every manifest-live block is verified once more.
  LSMSSD_RETURN_IF_ERROR(db.Scrub());

  Report report;
  report.frames_processed = counters.frames_processed;
  report.frames_inline = counters.frames_inline;
  report.connections_dropped_malformed =
      counters.connections_dropped_malformed;
  const DbStats stats = db.Stats();
  report.checkpoints = stats.checkpoints;
  report.memtables_sealed = stats.memtables_sealed;
  report.scrub_blocks_verified = stats.scrub_blocks_verified;
  report.scrub_corruptions = stats.scrub_corruptions_found;
  report.quarantined_blocks = stats.quarantined_blocks.size();

  // Zero leaked blocks: every live device block is referenced by exactly
  // one leaf (per engine: each has its own device).
  for (size_t s = 0; s < db.shard_count(); ++s) {
    LsmTree& tree = *db.shard(s)->tree();
    report.live_blocks += tree.device()->live_blocks();
    for (size_t i = 1; i < tree.num_levels(); ++i) {
      report.manifest_leaves += tree.level(i).num_leaves();
    }
  }
  report.leak_check_ok = report.live_blocks == report.manifest_leaves;

  impl.server.reset();
  impl.db->Close();
  impl.db.reset();
  std::filesystem::remove_all(impl.dir);
  return report;
}

Status EmbeddedServer::Kill() {
  Impl& impl = *impl_;
  if (!impl.server) {
    return Status::FailedPrecondition("EmbeddedServer already stopped");
  }
  // Abrupt: connections are cut with whatever was in flight, no drain,
  // no final checkpoint, and the directory survives for the restart to
  // recover from (WAL replay + last checkpoint).
  impl.server->Stop();
  impl.server.reset();
  impl.db->Close();
  impl.db.reset();
  return Status::OK();
}

}  // namespace lsmssd::bench
