#include "bench/harness/experiment.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "src/util/logging.h"

namespace lsmssd::bench {

double ScaleFromEnv() {
  const char* scale = std::getenv("LSMSSD_SCALE");
  if (scale == nullptr) return 1.0;
  const double v = std::atof(scale);
  return v > 0 ? v : 1.0;
}

std::string GitDescribe() {
  std::string out;
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    std::array<char, 128> buf{};
    while (std::fgets(buf.data(), buf.size(), p) != nullptr) out += buf.data();
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

unsigned HostCpus() { return std::thread::hardware_concurrency(); }

Options BenchOptions() {
  Options options;
  options.block_size = 1024;
  options.key_size = 4;
  options.payload_size = 40;  // 45-byte records -> B = 22.
  options.level0_capacity_blocks = 25;
  options.gamma = 10.0;
  options.epsilon = 0.2;
  options.delta = 0.07;
  options.preserve_blocks = true;
  // The paper's consolidation rule; all three workloads draw insert keys
  // from un-indexed keys, which makes it safe (see Options).
  options.annihilate_delete_put = true;
  return options;
}

std::vector<PolicySpec> SevenPolicies() {
  return {
      {"Full-P", PolicyKind::kFull, false},
      {"Full", PolicyKind::kFull, true},
      {"RR-P", PolicyKind::kRr, false},
      {"RR", PolicyKind::kRr, true},
      {"ChooseBest-P", PolicyKind::kChooseBest, false},
      {"ChooseBest", PolicyKind::kChooseBest, true},
      {"Mixed", PolicyKind::kMixed, true},
  };
}

std::vector<PolicySpec> FourPreservingPolicies() {
  return {
      {"Full", PolicyKind::kFull, true},
      {"RR", PolicyKind::kRr, true},
      {"ChooseBest", PolicyKind::kChooseBest, true},
      {"Mixed", PolicyKind::kMixed, true},
  };
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadKind::kUniform: {
      UniformWorkload::Params p;
      p.key_max = 1'000'000'000;  // Paper: keys in [0, 1e9].
      p.insert_ratio = spec.insert_ratio;
      p.seed = spec.seed;
      return std::make_unique<UniformWorkload>(p);
    }
    case WorkloadKind::kNormal: {
      NormalWorkload::Params p;
      p.key_max = 1'000'000'000;
      p.sigma_fraction = spec.sigma_fraction;
      p.omega = spec.omega;
      p.insert_ratio = spec.insert_ratio;
      p.seed = spec.seed;
      return std::make_unique<NormalWorkload>(p);
    }
    case WorkloadKind::kTpc: {
      TpcWorkload::Params p;
      p.warehouses = 16;
      p.districts_per_warehouse = 10;
      p.insert_ratio = spec.insert_ratio;
      p.seed = spec.seed;
      return std::make_unique<TpcWorkload>(p);
    }
  }
  LSMSSD_CHECK(false);
  return nullptr;
}

uint64_t RecordsForMb(const Options& options, double mb) {
  return static_cast<uint64_t>(mb * 1024.0 * 1024.0 /
                               static_cast<double>(options.record_size()));
}

double MbForRecords(const Options& options, uint64_t records) {
  return static_cast<double>(records * options.record_size()) /
         (1024.0 * 1024.0);
}

Experiment::Experiment(const Options& options, const PolicySpec& policy,
                       const WorkloadSpec& workload)
    : options_(options), policy_(policy), device_(options.block_size) {
  options_.preserve_blocks = policy.preserve;
  auto tree_or =
      LsmTree::Open(options_, &device_, CreatePolicy(policy.kind));
  LSMSSD_CHECK(tree_or.ok()) << tree_or.status().ToString();
  tree_ = std::move(tree_or).value();
  WorkloadSpec ws = workload;
  workload_ = MakeWorkload(ws);
  workload_spec_ = ws;
  driver_ = std::make_unique<WorkloadDriver>(tree_.get(), workload_.get());
}

Status Experiment::PrepareSteadyState(double dataset_mb) {
  LSMSSD_RETURN_IF_ERROR(driver_->GrowTo(
      RecordsForMb(options_, dataset_mb) * options_.record_size()));
  LSMSSD_RETURN_IF_ERROR(
      driver_->ReachSteadyState(workload_spec_.insert_ratio));

  if (policy_.kind == PolicyKind::kMixed) {
    // The paper waits until Mixed has learned its parameters and operates
    // with the optimal settings (Section V-A). Learn on the live stream,
    // then install the learned policy and restabilize.
    auto params_or =
        MixedLearner::Learn(tree_.get(), driver_->RequestFn());
    LSMSSD_RETURN_IF_ERROR(params_or.status());
    learned_ = params_or.value();
    tree_->set_policy(std::make_unique<MixedPolicy>(learned_));
    LSMSSD_RETURN_IF_ERROR(
        driver_->ReachSteadyState(workload_spec_.insert_ratio));
  }
  return Status::OK();
}

Status Experiment::PrepareEmptyInsertOnly() {
  workload_->set_insert_ratio(1.0);
  if (policy_.kind == PolicyKind::kMixed) {
    // Figure 10 uses the thresholds learned for the steady-state runs; a
    // fresh insert-only index has nothing to learn from yet, so start from
    // TestMixed-style defaults (full merges into the bottom).
    MixedParams params;
    params.beta = true;
    learned_ = params;
    tree_->set_policy(std::make_unique<MixedPolicy>(params));
  }
  return Status::OK();
}

StatusOr<WindowMetrics> Experiment::Measure(double window_mb) {
  return driver_->MeasureWindow(static_cast<uint64_t>(
      RecordsForMb(options_, window_mb) * options_.record_size()));
}

void PrintHeader(const std::string& figure, const std::string& what,
                 const Options& options) {
  std::cout << "== " << figure << ": " << what << " ==\n"
            << "   (Thonangi & Yang, ICDE 2017 — scaled reproduction; "
               "LSMSSD_SCALE=" << ScaleFromEnv() << ")\n"
            << "   config: block=" << options.block_size
            << "B payload=" << options.payload_size
            << "B B=" << options.records_per_block()
            << " K0=" << options.level0_capacity_blocks
            << " blocks, Gamma=" << options.gamma
            << ", epsilon=" << options.epsilon
            << ", delta=" << options.delta << "\n\n";
}

}  // namespace lsmssd::bench
