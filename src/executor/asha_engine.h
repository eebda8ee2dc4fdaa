// Compiled-ASHA execution engine: asynchronous successive halving (Li et
// al., the paper's primary related system, section 7) as rung events on the
// DES kernel, integrated with the planner/executor/service stack.
//
// A fixed pool of worker gangs loops with no barriers: each freed worker
// takes the highest-rung promotable result (a trial whose accuracy placed
// in the top 1/eta of its rung) or samples a new configuration at rung 0.
// Two operating modes:
//   * bounded (AshaPlan::num_trials > 0) — the compiled-plan mode: sampling
//     stops at the trial budget and the run drains when no promotion is
//     outstanding, so an ASHA job terminates like any staged job and can
//     carry a deadline through admission control.
//   * time-limited (num_trials == 0, AshaEngineOptions::time_limit > 0) —
//     the baseline RubberBand argues against (`rubberband asha`): always
//     sampling keeps the fixed cluster busy, but under a time constraint
//     most of that spending goes to configurations that are never trained
//     far enough to win (the HyperSched observation the paper cites).
//     Compile.AshaOracleParity pins this mode to a frozen golden of the
//     retired side-car implementation (tests/golden/asha_oracle_seed11.json).
//
// Like Executor, the engine runs standalone (owns its simulation + cloud)
// or shared (joins a SharedClusterContext: the service's timeline, billing
// account, and warm pool), and reports through the same ExecutionReport so
// the tuning service admits ASHA jobs next to staged ones. Instance loss
// on a shared cluster is replacement-only: in-flight rung runs carry their
// own state, so a lost instance costs a replacement request, not rework.

#ifndef SRC_EXECUTOR_ASHA_ENGINE_H_
#define SRC_EXECUTOR_ASHA_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/executor/executor.h"
#include "src/spec/compile.h"

namespace rubberband {

struct AshaRungStats {
  int completed = 0;  // results recorded at this rung
  int promoted = 0;   // results promoted to the next rung
};

// One promotion decision: `trial` placed in the top 1/eta of rung `rung`
// and was dispatched to rung + 1. The ordered log is the scheduler's full
// decision trace — two ASHA runs agree iff their logs agree.
struct AshaPromotion {
  int rung = 0;
  int trial = -1;

  bool operator==(const AshaPromotion&) const = default;
};

struct AshaEngineOptions {
  int num_workers = 8;      // concurrent worker gangs (fixed pool)
  Seconds time_limit = 0.0; // > 0: stop dispatching at start + limit
  uint64_t seed = 0;
  bool observe = false;     // emit the stage-total timeline span
};

class AshaEngine {
 public:
  // Both constructors throw std::invalid_argument for an empty rung ladder,
  // num_workers < 1, or plan.gpus_per_trial < 1.
  //
  // Standalone: owns a fresh simulation and cloud; use Run().
  AshaEngine(const AshaPlan& plan, const WorkloadSpec& workload,
             const CloudProfile& cloud_profile, const AshaEngineOptions& options = {});

  // Shared: joins an existing timeline and instance source; use Start()
  // and let the context owner drive the simulation.
  AshaEngine(const AshaPlan& plan, const WorkloadSpec& workload,
             const SharedClusterContext& context, const AshaEngineOptions& options = {});

  AshaEngine(const AshaEngine&) = delete;
  AshaEngine& operator=(const AshaEngine&) = delete;

  // Runs to completion and reports (standalone only). Call once.
  ExecutionReport Run();

  // Kicks the run off asynchronously; `on_done` fires on the simulation
  // timeline when the pool drains (bounded mode) or retires (time limit).
  void Start(std::function<void(const ExecutionReport&)> on_done);

  // Shared-cluster instance-loss routing (replacement-only recovery).
  void OnPreemption(InstanceId instance);
  void OnCrash(InstanceId instance);
  void OnPreemptionWarning(InstanceId instance) { (void)instance; }
  bool OwnsInstance(InstanceId instance) const;

  bool finished() const { return finished_; }
  bool Quiescent() const { return finished_ && pending_slots_ == 0; }

  // Decision log and rung counters (valid once finished).
  const std::vector<AshaPromotion>& promotions() const { return promotions_; }
  const std::vector<AshaRungStats>& rung_stats() const { return rung_stats_; }
  int configurations_sampled() const { return configurations_sampled_; }
  int64_t best_config_cum_iters() const { return best_config_cum_iters_; }

 private:
  struct RungEntry {
    double accuracy = 0.0;
    int trial = -1;
    bool promoted = false;
  };
  struct WorkItem {
    int trial = -1;
    int rung = 0;
  };

  void Init();  // validates the plan and options, sizes the rungs
  void Provision();
  void StartWorkers(int count);
  // ASHA's get_job: highest-rung promotable first, then a fresh sample
  // while the budget allows; false when the worker should idle.
  bool NextJob(WorkItem* out);
  std::optional<int> FindPromotable(int rung);
  void OnWorkerFree();
  void Dispatch(const WorkItem& job);
  void OnRunComplete(const WorkItem& job, int64_t iters, Seconds duration);
  void MaybeFinish();
  void FinishRun();
  void RecordUsage(int gpus, Seconds duration);

  AshaPlan plan_;
  WorkloadSpec workload_;
  AshaEngineOptions options_;

  std::unique_ptr<Simulation> owned_sim_;
  std::unique_ptr<SimulatedCloud> owned_cloud_;
  Simulation& sim_;
  SimulatedCloud& cloud_;
  InstanceSource* source_;  // shared mode; null standalone
  const bool shared_;
  std::function<void(const ExecutionReport&)> on_done_;

  Rng config_rng_;
  SearchSpace space_;
  std::deque<SyntheticTrainer> trials_;
  std::vector<std::vector<RungEntry>> rungs_;
  std::vector<AshaRungStats> rung_stats_;
  std::vector<AshaPromotion> promotions_;
  int configurations_sampled_ = 0;
  double best_accuracy_ = 0.0;
  HyperparameterConfig best_config_;
  int64_t best_config_cum_iters_ = 0;

  // This job's attributed slice of the (possibly shared) billing account.
  BillingMeter job_meter_;
  std::map<InstanceId, Seconds> acquired_at_;
  std::set<InstanceId> owned_instances_;
  int requested_slots_ = 0;
  int resolved_slots_ = 0;
  int pending_slots_ = 0;  // in-flight provisioning callbacks

  // Pool accounting: in_flight_ + idle_workers_ + retired_workers_ equals
  // the started worker count once the pool is up.
  int workers_started_ = 0;
  int in_flight_ = 0;
  int idle_workers_ = 0;
  int retired_workers_ = 0;
  bool started_ = false;
  bool finished_ = false;

  Seconds start_ = 0.0;
  ExecutionReport report_;
  MetricsRegistry metrics_;
  Timeline timeline_;
};

}  // namespace rubberband

#endif  // SRC_EXECUTOR_ASHA_ENGINE_H_
