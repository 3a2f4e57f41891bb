#ifndef LSMSSD_BENCH_HARNESS_EXPERIMENT_H_
#define LSMSSD_BENCH_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/lsm/lsm_tree.h"
#include "src/policy/mixed_learner.h"
#include "src/policy/policy_factory.h"
#include "src/storage/mem_block_device.h"
#include "src/util/table_printer.h"
#include "src/workload/driver.h"
#include "src/workload/normal_workload.h"
#include "src/workload/tpc_workload.h"
#include "src/workload/uniform_workload.h"

namespace lsmssd::bench {

/// Experiment scale multiplier from the LSMSSD_SCALE environment variable
/// (default 1.0). Dataset sizes and measurement windows scale with it;
/// structural knobs (Gamma, epsilon, delta) do not. Raise it to push the
/// experiments toward the paper's dataset sizes.
double ScaleFromEnv();

/// `git describe --always --dirty` of the working directory, or
/// "unknown" outside a git checkout. Every BENCH_*.json records it.
std::string GitDescribe();

/// CPUs of the host (std::thread::hardware_concurrency()), recorded next
/// to GitDescribe() so a result names the machine shape it came from.
unsigned HostCpus();

/// The benchmark tree configuration: the paper's setup (4 KB blocks,
/// 100-byte payloads, Gamma=10, epsilon=0.2, delta=0.07) shrunk to laptop
/// scale — 1 KiB blocks, 40-byte payloads (B=22), K0=25 blocks — so the
/// 3-to-4-level transition that shapes Figure 6 happens within a few MB
/// instead of 1.6 GB. See DESIGN.md "Substitutions".
Options BenchOptions();

/// One of the seven policies of the paper's evaluation (Section V):
/// Full-P, Full, RR-P, RR, ChooseBest-P, ChooseBest, Mixed. The "-P"
/// variants disable block-preserving merges.
struct PolicySpec {
  std::string name;
  PolicyKind kind = PolicyKind::kFull;
  bool preserve = true;
};

/// All seven, in the paper's legend order.
std::vector<PolicySpec> SevenPolicies();

/// The four block-preserving policies (Figure 6c plots only these).
std::vector<PolicySpec> FourPreservingPolicies();

enum class WorkloadKind { kUniform, kNormal, kTpc };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kUniform;
  double insert_ratio = 0.5;
  /// Normal parameters (paper defaults).
  double sigma_fraction = 0.005;
  uint64_t omega = 10'000;
  uint64_t seed = 1;
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec);

/// Converts between request volume in MB (the paper's x-axes) and record
/// counts under `options`.
uint64_t RecordsForMb(const Options& options, double mb);
double MbForRecords(const Options& options, uint64_t records);

/// A fully assembled experiment instance: device + tree + workload +
/// driver, with the Mixed learning protocol built in.
class Experiment {
 public:
  Experiment(const Options& options, const PolicySpec& policy,
             const WorkloadSpec& workload);

  /// Grow with inserts to `dataset_mb`, switch to the steady mix, run the
  /// paper's steady-state protocol, and — for Mixed — learn parameters
  /// before declaring readiness.
  Status PrepareSteadyState(double dataset_mb);

  /// Insert-only preparation (Figure 10): no steady-state wait.
  Status PrepareEmptyInsertOnly();

  /// Measures blocks-written-per-MB (and time) over `window_mb` of
  /// requests.
  StatusOr<WindowMetrics> Measure(double window_mb);

  LsmTree& tree() { return *tree_; }
  WorkloadDriver& driver() { return *driver_; }
  Workload& workload() { return *workload_; }
  MemBlockDevice& device() { return device_; }
  const Options& options() const { return options_; }
  const PolicySpec& policy_spec() const { return policy_; }
  const MixedParams& learned_params() const { return learned_; }

 private:
  Options options_;
  PolicySpec policy_;
  WorkloadSpec workload_spec_;
  MemBlockDevice device_;
  std::unique_ptr<LsmTree> tree_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<WorkloadDriver> driver_;
  MixedParams learned_;
};

/// Prints the standard bench prologue (config, scale, paper reference).
void PrintHeader(const std::string& figure, const std::string& what,
                 const Options& options);

}  // namespace lsmssd::bench

#endif  // LSMSSD_BENCH_HARNESS_EXPERIMENT_H_
