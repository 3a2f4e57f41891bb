#include "src/db/db_flags.h"

namespace lsmssd {

void AppendDbFlagNames(std::vector<std::string_view>* known) {
  static constexpr std::string_view kNames[] = {
      "policy",          "bloom",
      "cache-blocks",    "sync",
      "sync-n",          "checkpoint-wal-mb",
      "background-compaction", "shards",
      "scrub-interval-ms", "max-device-blocks",
      "vlog-threshold",  "vlog-gc-ratio",
  };
  for (std::string_view n : kNames) known->push_back(n);
}

StatusOr<DbOptions> DbOptionsFromFlags(const FlagMap& flags,
                                       const Options& base) {
  DbOptions dbopts;
  dbopts.options = base;
  // WAL replay re-applies a suffix of the history, which eager
  // tombstone+insert annihilation cannot tolerate; Db rejects it.
  dbopts.options.annihilate_delete_put = false;

  LSMSSD_ASSIGN_OR_RETURN(dbopts.options.bloom_bits_per_key,
                          FlagUint(flags, "bloom", 0));
  LSMSSD_ASSIGN_OR_RETURN(dbopts.options.cache_blocks,
                          FlagUint(flags, "cache-blocks", 0));

  const std::string policy_name = FlagOr(flags, "policy", "ChooseBest");
  if (!ParsePolicyKind(policy_name, &dbopts.policy)) {
    return Status::InvalidArgument(
        "unknown policy: " + policy_name +
        " (use Full|RR|ChooseBest|Mixed|TestMixed|PartitionedCB)");
  }

  const std::string sync = FlagOr(flags, "sync", "everyn");
  if (sync == "always") {
    dbopts.wal_sync_mode = WalSyncMode::kAlways;
  } else if (sync == "everyn") {
    dbopts.wal_sync_mode = WalSyncMode::kEveryN;
    LSMSSD_ASSIGN_OR_RETURN(dbopts.wal_sync_every_n,
                            FlagUint(flags, "sync-n", 64));
    if (dbopts.wal_sync_every_n == 0) {
      return Status::InvalidArgument("--sync-n must be >= 1");
    }
  } else if (sync == "none") {
    dbopts.wal_sync_mode = WalSyncMode::kNone;
  } else {
    return Status::InvalidArgument("unknown sync mode: " + sync +
                                   " (use always|everyn|none)");
  }

  uint64_t checkpoint_mb = 0;
  LSMSSD_ASSIGN_OR_RETURN(checkpoint_mb,
                          FlagUint(flags, "checkpoint-wal-mb", 8));
  dbopts.checkpoint_wal_bytes = checkpoint_mb * 1024 * 1024;

  LSMSSD_ASSIGN_OR_RETURN(dbopts.background_compaction,
                          FlagBool(flags, "background-compaction", false));

  LSMSSD_ASSIGN_OR_RETURN(dbopts.shards, FlagUint(flags, "shards", 1));
  if (dbopts.shards == 0) {
    return Status::InvalidArgument("--shards must be >= 1");
  }

  LSMSSD_ASSIGN_OR_RETURN(dbopts.scrub_interval_ms,
                          FlagUint(flags, "scrub-interval-ms", 0));
  LSMSSD_ASSIGN_OR_RETURN(dbopts.max_device_blocks,
                          FlagUint(flags, "max-device-blocks", 0));

  // Key–value separation (0 keeps it off, the default). The threshold is
  // a payload-size floor; Options::Validate re-checks it against the
  // pointer size, but catching it here names the flag for the user.
  LSMSSD_ASSIGN_OR_RETURN(dbopts.options.vlog_value_threshold,
                          FlagUint(flags, "vlog-threshold", 0));
  if (dbopts.options.vlog_value_threshold != 0 &&
      dbopts.options.vlog_value_threshold <= kVlogPointerSize) {
    return Status::InvalidArgument(
        "--vlog-threshold must be 0 (off) or > " +
        std::to_string(kVlogPointerSize) +
        " (smaller values would store more than they save)");
  }
  LSMSSD_ASSIGN_OR_RETURN(dbopts.vlog_gc_ratio,
                          FlagDouble(flags, "vlog-gc-ratio", 0.0));
  if (dbopts.vlog_gc_ratio < 0.0 || dbopts.vlog_gc_ratio >= 1.0) {
    return Status::InvalidArgument("--vlog-gc-ratio must be in [0, 1)");
  }
  return dbopts;
}

}  // namespace lsmssd
