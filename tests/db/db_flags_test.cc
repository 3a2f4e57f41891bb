#include "src/db/db_flags.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/flags.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

// Builds an argv from string literals and parses it like main() would.
StatusOr<FlagMap> Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (std::string& a : args) argv.push_back(a.data());
  return ParseFlagArgs(static_cast<int>(argv.size()), argv.data(), 1);
}

FlagMap MustParse(std::vector<std::string> args) {
  auto flags_or = Parse(std::move(args));
  EXPECT_TRUE(flags_or.ok()) << flags_or.status().message();
  return std::move(flags_or).value();
}

TEST(ParseFlagArgsTest, AcceptsFlagsAndBareSwitches) {
  const FlagMap flags =
      MustParse({"--shards=4", "--background-compaction", "--policy=RR"});
  EXPECT_EQ(flags.at("shards"), "4");
  EXPECT_EQ(flags.at("background-compaction"), "1");
  EXPECT_EQ(flags.at("policy"), "RR");
}

TEST(ParseFlagArgsTest, RejectsNonFlagArguments) {
  for (const char* bad : {"shards=4", "-shards=4", "positional", "--=5"}) {
    auto flags_or = Parse({bad});
    ASSERT_FALSE(flags_or.ok()) << bad;
    EXPECT_TRUE(flags_or.status().IsInvalidArgument()) << bad;
  }
}

TEST(FlagUintTest, StrictParseTable) {
  struct Case {
    const char* value;
    bool ok;
    uint64_t want;
  };
  const Case kCases[] = {
      {"0", true, 0},
      {"42", true, 42},
      {"18446744073709551615", true, UINT64_MAX},
      {"", false, 0},
      {"-3", false, 0},
      {"+3", false, 0},
      {"12abc", false, 0},
      {"0x10", false, 0},
      {"3.5", false, 0},
      {"18446744073709551616", false, 0},  // overflow
  };
  for (const Case& c : kCases) {
    FlagMap flags{{"n", c.value}};
    auto v = FlagUint(flags, "n", 7);
    EXPECT_EQ(v.ok(), c.ok) << "value: \"" << c.value << "\"";
    if (c.ok && v.ok()) {
      EXPECT_EQ(v.value(), c.want);
    }
    if (!c.ok && !v.ok()) {
      EXPECT_TRUE(v.status().IsInvalidArgument());
      // The error must name the flag so the user can find it.
      EXPECT_NE(v.status().message().find("n"), std::string::npos);
    }
  }
  // Absent flag -> fallback.
  auto fb = FlagUint(FlagMap{}, "n", 7);
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(fb.value(), 7u);
}

TEST(FlagBoolTest, OnlyCanonicalSpellings) {
  EXPECT_TRUE(FlagBool(FlagMap{{"x", "1"}}, "x", false).value());
  EXPECT_TRUE(FlagBool(FlagMap{{"x", "true"}}, "x", false).value());
  EXPECT_FALSE(FlagBool(FlagMap{{"x", "0"}}, "x", true).value());
  EXPECT_FALSE(FlagBool(FlagMap{{"x", "false"}}, "x", true).value());
  EXPECT_FALSE(FlagBool(FlagMap{{"x", "yes"}}, "x", false).ok());
  EXPECT_TRUE(FlagBool(FlagMap{}, "x", true).value());
}

TEST(CheckKnownFlagsTest, CatchesTypos) {
  std::vector<std::string_view> known = {"port", "host"};
  AppendDbFlagNames(&known);
  EXPECT_TRUE(CheckKnownFlags(MustParse({"--port=1", "--shards=2"}), known)
                  .ok());
  const Status bad =
      CheckKnownFlags(MustParse({"--shrads=2"}), known);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("shrads"), std::string::npos);
}

TEST(CheckKnownFlagsTest, CompactionWorkersIsNoLongerAFlag) {
  // One compaction thread per engine: the worker-count flag is gone, so
  // it is refused like any typo instead of being silently ignored.
  std::vector<std::string_view> known;
  AppendDbFlagNames(&known);
  const Status bad =
      CheckKnownFlags(MustParse({"--compaction-workers=2"}), known);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("compaction-workers"), std::string::npos);
}

class DbOptionsFromFlagsTest : public ::testing::Test {
 protected:
  StatusOr<DbOptions> Build(std::vector<std::string> args) {
    auto flags_or = Parse(std::move(args));
    if (!flags_or.ok()) return flags_or.status();
    return DbOptionsFromFlags(flags_or.value(), testing::TinyOptions());
  }
};

TEST_F(DbOptionsFromFlagsTest, DefaultsAreServingDefaults) {
  auto dbopts_or = Build({});
  ASSERT_TRUE(dbopts_or.ok()) << dbopts_or.status().message();
  const DbOptions& o = dbopts_or.value();
  EXPECT_EQ(o.policy, PolicyKind::kChooseBest);
  EXPECT_EQ(o.wal_sync_mode, WalSyncMode::kEveryN);
  EXPECT_EQ(o.wal_sync_every_n, 64u);
  EXPECT_EQ(o.checkpoint_wal_bytes, 8u * 1024 * 1024);
  EXPECT_FALSE(o.background_compaction);
  EXPECT_EQ(o.shards, 1u);
  EXPECT_EQ(o.scrub_interval_ms, 0u);
  EXPECT_EQ(o.max_device_blocks, 0u);
  EXPECT_EQ(o.options.vlog_value_threshold, 0u);  // KV separation off.
  EXPECT_EQ(o.vlog_gc_ratio, 0.0);
  // The builder must force annihilation off even though TinyOptions
  // leaves it configurable: WAL replay cannot tolerate it.
  EXPECT_FALSE(o.options.annihilate_delete_put);
}

TEST_F(DbOptionsFromFlagsTest, AllFlagsReachTheirFields) {
  auto dbopts_or = Build({"--policy=TestMixed", "--bloom=10",
                          "--cache-blocks=32", "--sync=always",
                          "--checkpoint-wal-mb=2", "--background-compaction",
                          "--shards=4",
                          "--scrub-interval-ms=50", "--max-device-blocks=999",
                          "--vlog-threshold=128", "--vlog-gc-ratio=0.4"});
  ASSERT_TRUE(dbopts_or.ok()) << dbopts_or.status().message();
  const DbOptions& o = dbopts_or.value();
  EXPECT_EQ(o.policy, PolicyKind::kTestMixed);
  EXPECT_EQ(o.options.bloom_bits_per_key, 10u);
  EXPECT_EQ(o.options.cache_blocks, 32u);
  EXPECT_EQ(o.wal_sync_mode, WalSyncMode::kAlways);
  EXPECT_EQ(o.checkpoint_wal_bytes, 2u * 1024 * 1024);
  EXPECT_TRUE(o.background_compaction);
  EXPECT_EQ(o.shards, 4u);
  EXPECT_EQ(o.scrub_interval_ms, 50u);
  EXPECT_EQ(o.max_device_blocks, 999u);
  EXPECT_EQ(o.options.vlog_value_threshold, 128u);
  EXPECT_EQ(o.vlog_gc_ratio, 0.4);
}

TEST_F(DbOptionsFromFlagsTest, BadValuesAreInvalidArgumentNamingTheFlag) {
  struct Case {
    std::vector<std::string> args;
    const char* names;  // Substring the error must contain.
  };
  const Case kCases[] = {
      {{"--policy=Fancy"}, "policy"},
      {{"--sync=sometimes"}, "sync"},
      {{"--sync=everyn", "--sync-n=0"}, "sync-n"},
      {{"--sync-n=abc"}, "sync-n"},
      {{"--shards=0"}, "shards"},
      {{"--shards=-1"}, "shards"},
      {{"--bloom=ten"}, "bloom"},
      {{"--checkpoint-wal-mb=1.5"}, "checkpoint-wal-mb"},
      {{"--background-compaction=maybe"}, "background-compaction"},
      {{"--vlog-threshold=8"}, "vlog-threshold"},    // <= pointer size.
      {{"--vlog-threshold=16"}, "vlog-threshold"},   // == pointer size.
      {{"--vlog-threshold=lots"}, "vlog-threshold"},
      {{"--vlog-gc-ratio=1.0"}, "vlog-gc-ratio"},    // Must stay < 1.
      {{"--vlog-gc-ratio=-0.1"}, "vlog-gc-ratio"},
      {{"--vlog-gc-ratio=half"}, "vlog-gc-ratio"},
  };
  for (const Case& c : kCases) {
    auto dbopts_or = Build(c.args);
    ASSERT_FALSE(dbopts_or.ok()) << c.args[0];
    EXPECT_TRUE(dbopts_or.status().IsInvalidArgument()) << c.args[0];
    EXPECT_NE(dbopts_or.status().message().find(c.names), std::string::npos)
        << c.args[0] << " error: " << dbopts_or.status().message();
  }
}

TEST_F(DbOptionsFromFlagsTest, FailureHasNoFilesystemSideEffects) {
  // A rejected invocation must not create the db directory (the CLI
  // validates flags before Db::Open ever runs; the builder itself is
  // pure). Guard that property at the builder layer: run every failing
  // case above and verify the tree under a scratch dir stays empty.
  const std::string dir = ::testing::TempDir() + "/db_flags_side_effects";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto dbopts_or = Build({"--policy=Fancy", "--shards=0"});
  ASSERT_FALSE(dbopts_or.ok());
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsmssd
