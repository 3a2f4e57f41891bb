// End-to-end semantic check: an LsmTree driven by a randomized mix of
// inserts, overwrites, deletes (including of absent keys), and reads must
// behave exactly like a std::map, for every merge policy, with and without
// block preservation, while maintaining all structural invariants.

#include <map>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/util/random.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

struct Case {
  PolicyKind kind;
  // An int, not a bool: gtest prints a parameter's raw bytes into the
  // test's listed name, and a bool here would leave three uninitialized
  // padding bytes in it, so the name would change from run to run.
  int preserve;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name(PolicyKindName(info.param.kind));
  name += info.param.preserve ? "_P1" : "_P0";
  return name;
}

class ReferenceModelTest : public ::testing::TestWithParam<Case> {};

TEST_P(ReferenceModelTest, MatchesStdMap) {
  Options options = TinyOptions();
  options.preserve_blocks = GetParam().preserve;
  TreeFixture fx(options, GetParam().kind);
  LsmTree& tree = *fx.tree;

  std::map<Key, std::string> reference;
  Random rng(20170405);
  constexpr Key kDomain = 3000;
  constexpr int kRequests = 6000;

  for (int step = 0; step < kRequests; ++step) {
    const Key key = rng.Uniform(kDomain);
    const uint64_t action = rng.Uniform(10);
    if (action < 6) {  // Insert or overwrite.
      const std::string payload = MakePayload(options, key + step);
      ASSERT_TRUE(tree.Put(key, payload).ok());
      reference[key] = payload;
    } else if (action < 9) {  // Delete (possibly of an absent key).
      ASSERT_TRUE(tree.Delete(key).ok());
      reference.erase(key);
    } else {  // Point read of a random key.
      auto got = tree.Get(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << "key " << key;
      } else {
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), it->second) << "key " << key;
      }
    }

    if (step % 500 == 499) {
      ASSERT_TRUE(tree.CheckInvariants(/*deep=*/true).ok())
          << tree.CheckInvariants(true).ToString();
    }
  }

  // Full-range scan must agree with the reference exactly.
  std::vector<std::pair<Key, std::string>> scanned;
  ASSERT_TRUE(tree.Scan(0, kDomain, &scanned).ok());
  ASSERT_EQ(scanned.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, value] : reference) {
    EXPECT_EQ(scanned[i].first, key);
    EXPECT_EQ(scanned[i].second, value);
    ++i;
  }

  // Every key (present or absent) must read correctly.
  for (Key key = 0; key < kDomain; ++key) {
    auto got = tree.Get(key);
    auto it = reference.find(key);
    if (it == reference.end()) {
      ASSERT_TRUE(got.status().IsNotFound()) << "key " << key;
    } else {
      ASSERT_TRUE(got.ok()) << "key " << key << ": "
                            << got.status().ToString();
      ASSERT_EQ(got.value(), it->second) << "key " << key;
    }
  }

  // Accounting cross-check: per-level write attribution must equal the
  // device's ground-truth write counter.
  EXPECT_EQ(tree.stats().TotalBlocksWritten(),
            fx.device.stats().block_writes());
  // The tree must have grown beyond L1 for this test to mean anything.
  EXPECT_GE(tree.num_levels(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReferenceModelTest,
    ::testing::Values(Case{PolicyKind::kFull, true},
                      Case{PolicyKind::kFull, false},
                      Case{PolicyKind::kRr, true},
                      Case{PolicyKind::kRr, false},
                      Case{PolicyKind::kChooseBest, true},
                      Case{PolicyKind::kChooseBest, false},
                      Case{PolicyKind::kTestMixed, true},
                      Case{PolicyKind::kTestMixed, false}),
    CaseName);

}  // namespace
}  // namespace lsmssd
