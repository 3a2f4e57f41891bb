// Pinned block counts of the paper harness (LsmTree::Put/Delete) for every
// policy the figures use. The figures' stdout is a function of exactly
// these counters, so a change to the harness's write path that moves any
// of them moves a figure: re-pin only together with the figures' golden
// files (bench/golden/). Everything is deterministic: in-memory device,
// seeded workloads, fixed Mixed parameters.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/uniform_workload.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

struct PolicyCase {
  const char* name;
  PolicyKind kind;
  bool preserve;
};

// Every policy of the figures and ablations: the seven of Section V, the
// partitioned variant, TestMixed, and Mixed with fixed thresholds.
const PolicyCase kPolicies[] = {
    {"Full", PolicyKind::kFull, true},
    {"Full-P", PolicyKind::kFull, false},
    {"RR", PolicyKind::kRr, true},
    {"RR-P", PolicyKind::kRr, false},
    {"ChooseBest", PolicyKind::kChooseBest, true},
    {"ChooseBest-P", PolicyKind::kChooseBest, false},
    {"PartitionedCB", PolicyKind::kPartitioned, true},
    {"TestMixed", PolicyKind::kTestMixed, true},
    {"Mixed", PolicyKind::kMixed, true},
};

MixedParams FixedMixedParams() {
  MixedParams params;
  params.tau = {0.0, 0.0, 0.3, 0.5, 0.5};
  params.beta = true;
  return params;
}

struct WorkloadCase {
  const char* name;
  /// Insert-only requests applied first (grows the dataset).
  uint64_t grow_requests;
  /// Requests applied after growth at `insert_ratio`.
  uint64_t mix_requests;
  double insert_ratio;
  uint64_t seed;
};

// "uniform": grow, then the paper's 50/50 insert/delete steady state
// (deletes hit indexed keys, inserts fresh ones). "insert_only": the
// Figure 10 shape.
const WorkloadCase kWorkloads[] = {
    {"uniform", 3'000, 12'000, 0.5, 11},
    {"insert_only", 15'000, 0, 1.0, 12},
};

struct Counts {
  uint64_t block_writes = 0;
  std::vector<uint64_t> blocks_written_into;
  std::vector<uint64_t> merges_into;
  std::vector<uint64_t> blocks_preserved_into;

  bool operator==(const Counts& o) const {
    return block_writes == o.block_writes &&
           blocks_written_into == o.blocks_written_into &&
           merges_into == o.merges_into &&
           blocks_preserved_into == o.blocks_preserved_into;
  }
};

std::string Vec(const std::vector<uint64_t>& v) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  out << "}";
  return out.str();
}

// The table-row syntax below, so a deliberate change can re-pin by pasting.
std::string Row(const char* policy, const char* workload, const Counts& c) {
  std::ostringstream out;
  out << "{\"" << policy << "\", \"" << workload << "\", {" << c.block_writes
      << ", " << Vec(c.blocks_written_into) << ", " << Vec(c.merges_into)
      << ", " << Vec(c.blocks_preserved_into) << "}},";
  return out.str();
}

Counts RunHarness(const PolicyCase& p, const WorkloadCase& w) {
  Options options = TinyOptions();
  options.preserve_blocks = p.preserve;
  TreeFixture fx(options, p.kind, FixedMixedParams());
  UniformWorkload::Params params;
  params.key_min = 0;
  params.key_max = 1'000'000;
  params.insert_ratio = 1.0;
  params.seed = w.seed;
  UniformWorkload workload(params);
  for (uint64_t i = 0; i < w.grow_requests + w.mix_requests; ++i) {
    if (i == w.grow_requests) workload.set_insert_ratio(w.insert_ratio);
    const Status st = ApplyRequest(fx.tree.get(), workload.Next());
    LSMSSD_CHECK(st.ok()) << st.ToString();
  }
  const LsmStats& s = fx.tree->stats();
  return Counts{fx.device.stats().block_writes(), s.blocks_written_into,
                s.merges_into, s.blocks_preserved_into};
}

struct Golden {
  const char* policy;
  const char* workload;
  Counts counts;
};

const std::vector<Golden> kGolden = {
    {"Full", "uniform", {11292, {0, 4031, 3283, 3039, 934}, {0, 374, 84, 20, 4}, {0, 150, 504, 466, 312}}},
    {"Full", "insert_only", {12770, {0, 3975, 3253, 3056, 2477, 0}, {0, 375, 86, 21, 5, 1}, {0, 139, 491, 542, 640, 1142}}},
    {"Full-P", "uniform", {12513, {0, 4448, 3617, 3210, 1235}, {0, 374, 74, 18, 4}, {0, 0, 0, 0, 0}}},
    {"Full-P", "insert_only", {16118, {0, 4482, 3718, 3438, 3200, 1280}, {0, 375, 75, 18, 4, 1}, {0, 0, 0, 0, 0, 0}}},
    {"RR", "uniform", {11753, {0, 4621, 3650, 2967, 451}, {0, 1593, 405, 96, 16}, {0, 93, 441, 447, 373}}},
    {"RR", "insert_only", {13503, {0, 4651, 3643, 3214, 1907, 0}, {0, 1600, 410, 100, 21, 1}, {0, 102, 481, 533, 463, 256}}},
    {"RR-P", "uniform", {12762, {0, 4642, 3944, 3371, 754}, {0, 1593, 391, 92, 16}, {0, 0, 0, 0, 0}}},
    {"RR-P", "insert_only", {14727, {0, 4672, 4078, 3399, 2286, 256}, {0, 1600, 399, 97, 20, 1}, {0, 0, 0, 0, 0, 0}}},
    {"ChooseBest", "uniform", {11080, {0, 3931, 3462, 3102, 566}, {0, 1494, 378, 91, 16}, {0, 37, 405, 445, 349}}},
    {"ChooseBest", "insert_only", {12636, {0, 3910, 3528, 3195, 1993, 0}, {0, 1497, 380, 94, 20, 1}, {0, 37, 378, 473, 572, 256}}},
    {"ChooseBest-P", "uniform", {12018, {0, 3912, 3758, 3477, 868}, {0, 1494, 370, 88, 16}, {0, 0, 0, 0, 0}}},
    {"ChooseBest-P", "insert_only", {13862, {0, 3992, 3831, 3543, 2240, 256}, {0, 1497, 371, 89, 19, 1}, {0, 0, 0, 0, 0, 0}}},
    {"PartitionedCB", "uniform", {13704, {0, 4350, 4227, 3937, 1061}, {0, 1493, 778, 311, 69}, {0, 155, 731, 1499, 742}}},
    {"PartitionedCB", "insert_only", {15553, {0, 4345, 4233, 4037, 2816, 0}, {0, 1497, 765, 281, 68, 2}, {0, 153, 801, 1784, 1539, 512}}},
    {"TestMixed", "uniform", {10804, {0, 3912, 3273, 2354, 1252}, {0, 1478, 361, 77, 5}, {0, 23, 457, 529, 285}}},
    {"TestMixed", "insert_only", {12023, {0, 3904, 3279, 2508, 2321, 0}, {0, 1485, 364, 80, 7, 1}, {0, 30, 418, 554, 551, 1086}}},
    {"Mixed", "uniform", {10561, {0, 3551, 2926, 2827, 1252}, {0, 1478, 256, 40, 5}, {0, 23, 423, 402, 271}}},
    {"Mixed", "insert_only", {11631, {0, 3604, 2997, 2752, 2271, 0}, {0, 1485, 273, 48, 5, 1}, {0, 31, 406, 457, 630, 1062}}},
};

TEST(PutGoldenTest, HarnessBlockCountsArePinned) {
  size_t checked = 0;
  for (const PolicyCase& p : kPolicies) {
    for (const WorkloadCase& w : kWorkloads) {
      SCOPED_TRACE(std::string(p.name) + " / " + w.name);
      const Counts actual = RunHarness(p, w);
      const Golden* golden = nullptr;
      for (const Golden& g : kGolden) {
        if (std::string(g.policy) == p.name &&
            std::string(g.workload) == w.name) {
          golden = &g;
        }
      }
      if (golden == nullptr) {
        ADD_FAILURE() << "no pinned row; actual:\n"
                      << Row(p.name, w.name, actual);
        continue;
      }
      EXPECT_GT(actual.block_writes, 0u);
      EXPECT_TRUE(actual == golden->counts)
          << "expected:\n" << Row(p.name, w.name, golden->counts)
          << "\nactual:\n" << Row(p.name, w.name, actual);
      ++checked;
    }
  }
  EXPECT_EQ(checked, kGolden.size());
}

}  // namespace
}  // namespace lsmssd
