#include "src/executor/asha_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rubberband {

AshaEngine::AshaEngine(const AshaPlan& plan, const WorkloadSpec& workload,
                       const CloudProfile& cloud_profile, const AshaEngineOptions& options)
    : plan_(plan),
      workload_(workload),
      options_(options),
      owned_sim_(std::make_unique<Simulation>(options.seed)),
      owned_cloud_(std::make_unique<SimulatedCloud>(*owned_sim_, cloud_profile)),
      sim_(*owned_sim_),
      cloud_(*owned_cloud_),
      source_(nullptr),
      shared_(false),
      config_rng_(options.seed ^ 0xA5A5A5A5ULL) {
  Init();
}

AshaEngine::AshaEngine(const AshaPlan& plan, const WorkloadSpec& workload,
                       const SharedClusterContext& context, const AshaEngineOptions& options)
    : plan_(plan),
      workload_(workload),
      options_(options),
      sim_(*context.sim),
      cloud_(*context.cloud),
      source_(context.source),
      shared_(true),
      config_rng_(options.seed ^ 0xA5A5A5A5ULL) {
  Init();
}

void AshaEngine::Init() {
  if (plan_.rung_budgets.empty()) {
    throw std::invalid_argument("AshaPlan has no rungs");
  }
  if (options_.num_workers < 1) {
    throw std::invalid_argument("ASHA needs at least one worker (got " +
                                std::to_string(options_.num_workers) + ")");
  }
  if (plan_.gpus_per_trial < 1) {
    throw std::invalid_argument("ASHA needs at least one GPU per trial (got " +
                                std::to_string(plan_.gpus_per_trial) + ")");
  }
  rungs_.resize(plan_.rung_budgets.size());
  rung_stats_.resize(plan_.rung_budgets.size());
  space_ = SearchSpace(plan_.space);
}

ExecutionReport AshaEngine::Run() {
  if (shared_) {
    throw std::logic_error("Run() drives its own simulation; shared engines use Start()");
  }
  Start(nullptr);
  sim_.Run();
  if (!finished_) {
    throw std::logic_error("simulation drained without completing the ASHA run");
  }
  return std::move(report_);
}

void AshaEngine::Start(std::function<void(const ExecutionReport&)> on_done) {
  if (started_) {
    throw std::logic_error("AshaEngine may only be started once");
  }
  on_done_ = std::move(on_done);
  start_ = sim_.now();
  Provision();
}

void AshaEngine::Provision() {
  const int gpg = cloud_.profile().gpus_per_instance();
  const int total_gpus = options_.num_workers * plan_.gpus_per_trial;
  const int instances = (total_gpus + gpg - 1) / gpg;
  requested_slots_ = instances;
  pending_slots_ = instances;
  if (!shared_) {
    // Standalone sequencing, pinned by the frozen oracle golden: request
    // the pool, then start every worker at the mean ready latency (ASHA
    // assumes a fixed cluster that exists for the whole run).
    cloud_.RequestInstances(instances, workload_.dataset.size_gb, [this](InstanceId id) {
      --pending_slots_;
      owned_instances_.insert(id);
      acquired_at_[id] = sim_.now();
    });
    sim_.ScheduleIn(cloud_.profile().provisioning.MeanReadyLatency() + 1e-9,
                    [this] { StartWorkers(options_.num_workers); });
    return;
  }
  // Shared cluster: draw from the service's instance source (typically the
  // warm pool, so slots may resolve instantly) and start the pool once
  // every slot settles, scaled down to whatever capacity arrived.
  source_->RequestInstances(
      instances, workload_.dataset.size_gb,
      [this](InstanceId id) {
        --pending_slots_;
        if (finished_) {
          source_->ReleaseInstance(id);  // late arrival after an empty run
          return;
        }
        owned_instances_.insert(id);
        acquired_at_[id] = sim_.now();
        if (++resolved_slots_ == requested_slots_) {
          const int gpg2 = cloud_.profile().gpus_per_instance();
          const int capacity = static_cast<int>(owned_instances_.size()) * gpg2;
          StartWorkers(std::min(options_.num_workers, capacity / plan_.gpus_per_trial));
        }
      },
      [this] {
        --pending_slots_;
        if (finished_) {
          return;
        }
        if (++resolved_slots_ == requested_slots_) {
          const int gpg2 = cloud_.profile().gpus_per_instance();
          const int capacity = static_cast<int>(owned_instances_.size()) * gpg2;
          StartWorkers(std::min(options_.num_workers, capacity / plan_.gpus_per_trial));
        }
      });
}

void AshaEngine::StartWorkers(int count) {
  started_ = true;
  workers_started_ = count;
  if (count < 1) {
    FinishRun();  // provisioning delivered nothing; settle an empty run
    return;
  }
  for (int w = 0; w < count; ++w) {
    OnWorkerFree();
  }
}

bool AshaEngine::NextJob(WorkItem* out) {
  for (int r = static_cast<int>(rungs_.size()) - 2; r >= 0; --r) {
    std::optional<int> promotable = FindPromotable(r);
    if (promotable.has_value()) {
      ++rung_stats_[static_cast<size_t>(r)].promoted;
      promotions_.push_back(AshaPromotion{r, *promotable});
      *out = WorkItem{*promotable, r + 1};
      return true;
    }
  }
  if (plan_.num_trials == 0 || configurations_sampled_ < plan_.num_trials) {
    const HyperparameterConfig config = space_.Sample(config_rng_);
    const int id = static_cast<int>(trials_.size());
    trials_.emplace_back(workload_, config,
                         options_.seed * 6364136223846793005ULL + static_cast<uint64_t>(id));
    ++configurations_sampled_;
    *out = WorkItem{id, 0};
    return true;
  }
  return false;
}

std::optional<int> AshaEngine::FindPromotable(int rung) {
  auto& entries = rungs_[static_cast<size_t>(rung)];
  const int top_k = static_cast<int>(entries.size()) / plan_.reduction_factor;
  if (top_k < 1) {
    return std::nullopt;
  }
  std::vector<RungEntry*> sorted;
  sorted.reserve(entries.size());
  for (RungEntry& entry : entries) {
    sorted.push_back(&entry);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const RungEntry* a, const RungEntry* b) { return a->accuracy > b->accuracy; });
  for (int i = 0; i < top_k; ++i) {
    if (!sorted[static_cast<size_t>(i)]->promoted) {
      sorted[static_cast<size_t>(i)]->promoted = true;
      return sorted[static_cast<size_t>(i)]->trial;
    }
  }
  return std::nullopt;
}

void AshaEngine::OnWorkerFree() {
  if (options_.time_limit > 0.0 && sim_.now() >= start_ + options_.time_limit) {
    ++retired_workers_;
    MaybeFinish();
    return;
  }
  WorkItem job;
  if (!NextJob(&job)) {
    ++idle_workers_;
    MaybeFinish();
    return;
  }
  Dispatch(job);
}

void AshaEngine::Dispatch(const WorkItem& job) {
  ++in_flight_;
  SyntheticTrainer& trainer = trials_[static_cast<size_t>(job.trial)];
  trainer.Configure(plan_.gpus_per_trial, /*colocated=*/true);
  const int64_t target = plan_.rung_budgets[static_cast<size_t>(job.rung)];
  const int64_t iters = target - trainer.cum_iters();
  Seconds duration = workload_.trial_startup_seconds;
  for (int64_t i = 0; i < iters; ++i) {
    duration += trainer.SampleIterLatency();
  }
  sim_.ScheduleIn(duration,
                  [this, job, iters, duration] { OnRunComplete(job, iters, duration); });
}

void AshaEngine::OnRunComplete(const WorkItem& job, int64_t iters, Seconds duration) {
  SyntheticTrainer& trainer = trials_[static_cast<size_t>(job.trial)];
  trainer.Advance(iters);
  const double accuracy = trainer.Evaluate();
  rungs_[static_cast<size_t>(job.rung)].push_back(RungEntry{accuracy, job.trial, false});
  ++rung_stats_[static_cast<size_t>(job.rung)].completed;
  RecordUsage(plan_.gpus_per_trial, duration);
  if (accuracy > best_accuracy_) {
    best_accuracy_ = accuracy;
    best_config_ = trainer.config();
    best_config_cum_iters_ = trainer.cum_iters();
  }
  --in_flight_;
  OnWorkerFree();  // the completing worker claims the next job first
  // This result may have unblocked a promotion an idle worker was waiting
  // for; wake as many as find work.
  while (idle_workers_ > 0 && !finished_) {
    WorkItem next;
    if (!NextJob(&next)) {
      break;
    }
    --idle_workers_;
    Dispatch(next);
  }
}

void AshaEngine::MaybeFinish() {
  if (!finished_ && started_ && in_flight_ == 0) {
    FinishRun();
  }
}

void AshaEngine::FinishRun() {
  finished_ = true;
  const Seconds now = sim_.now();
  report_.jct = now;
  const CloudProfile& profile = cloud_.profile();
  if (!shared_) {
    cloud_.TerminateAll();
    report_.cost = cloud_.Cost();
  } else {
    for (InstanceId id : owned_instances_) {
      auto it = acquired_at_.find(id);
      if (it != acquired_at_.end()) {
        job_meter_.RecordInstanceUsage(it->second, now, 1.0, false);
      }
      source_->ReleaseInstance(id);
    }
    owned_instances_.clear();
    acquired_at_.clear();
    const InstanceType billed_type = profile.pricing.billing == BillingModel::kPerFunction
                                         ? profile.BilledInstance()
                                         : profile.instance;
    report_.cost = job_meter_.Price(billed_type, profile.pricing);
  }
  report_.best_accuracy = best_accuracy_;
  report_.best_config = best_config_;
  // Busy GPU-seconds over provisioned GPU-seconds, from whichever meter
  // closed this job's billing intervals above.
  const BillingMeter& meter = shared_ ? job_meter_ : cloud_.meter();
  const double provisioned = meter.TotalInstanceSeconds() * profile.gpus_per_instance();
  report_.realized_utilization =
      provisioned > 0.0 ? meter.TotalGpuSecondsUsed() / provisioned : 0.0;

  // One stage-log row per rung (the async analogue of the stage table).
  int64_t previous_budget = 0;
  for (size_t r = 0; r < plan_.rung_budgets.size(); ++r) {
    StageLogEntry entry;
    entry.stage = static_cast<int>(r);
    entry.num_trials = rung_stats_[r].completed;
    entry.gpus = workers_started_ * plan_.gpus_per_trial;
    entry.gpus_per_trial = plan_.gpus_per_trial;
    entry.instances = requested_slots_;
    entry.start_cum_iters = previous_budget;
    entry.end_cum_iters = plan_.rung_budgets[r];
    entry.start = start_;
    entry.end = now;
    previous_budget = plan_.rung_budgets[r];
    report_.stage_log.push_back(entry);
  }

  MetricsScope executor_scope = metrics_.scope("executor");
  obs::Set(executor_scope.GetGauge("jct_seconds"), report_.jct);
  obs::Set(executor_scope.GetGauge("cost_dollars"), report_.cost.Total().dollars());
  obs::Set(executor_scope.GetGauge("best_accuracy"), report_.best_accuracy);
  MetricsScope asha_scope = metrics_.scope("asha");
  obs::Inc(asha_scope.GetCounter("configurations_sampled"), configurations_sampled_);
  obs::Inc(asha_scope.GetCounter("promotions"), static_cast<int64_t>(promotions_.size()));
  obs::Set(asha_scope.GetGauge("rungs"), static_cast<double>(plan_.rung_budgets.size()));
  report_.metrics = metrics_.Snapshot();
  if (!shared_) {
    report_.metrics.Merge(cloud_.metrics().Snapshot());
  }
  if (options_.observe) {
    // The whole run is one barrier-free phase; its span tiles [start, JCT].
    timeline_.Record(TimelineSpan{"stage-total", "executor", start_, now, 1, 0, -1, -1});
  }
  report_.timeline = std::move(timeline_);
  if (on_done_) {
    on_done_(report_);
  }
}

void AshaEngine::RecordUsage(int gpus, Seconds duration) {
  cloud_.RecordFunctionUsage(gpus, duration);
  job_meter_.RecordFunctionUsage(gpus, duration);
}

bool AshaEngine::OwnsInstance(InstanceId instance) const {
  return owned_instances_.count(instance) > 0;
}

void AshaEngine::OnPreemption(InstanceId instance) {
  if (owned_instances_.erase(instance) == 0) {
    return;
  }
  auto it = acquired_at_.find(instance);
  if (it != acquired_at_.end()) {
    job_meter_.RecordInstanceUsage(it->second, sim_.now(), 1.0, true);
    acquired_at_.erase(it);
  }
  ++report_.preemptions;
  if (!finished_ && source_ != nullptr) {
    // Replacement-only recovery: in-flight rung runs carry their own
    // trainer state, so the loss costs a provisioning round, not rework.
    ++pending_slots_;
    source_->RequestInstances(
        1, workload_.dataset.size_gb,
        [this](InstanceId id) {
          --pending_slots_;
          if (finished_) {
            source_->ReleaseInstance(id);
            return;
          }
          owned_instances_.insert(id);
          acquired_at_[id] = sim_.now();
        },
        [this] { --pending_slots_; });
  }
}

void AshaEngine::OnCrash(InstanceId instance) {
  if (owned_instances_.erase(instance) == 0) {
    return;
  }
  auto it = acquired_at_.find(instance);
  if (it != acquired_at_.end()) {
    job_meter_.RecordInstanceUsage(it->second, sim_.now(), 1.0, false);
    acquired_at_.erase(it);
  }
  ++report_.crashes;
  if (!finished_ && source_ != nullptr) {
    ++pending_slots_;
    source_->RequestInstances(
        1, workload_.dataset.size_gb,
        [this](InstanceId id) {
          --pending_slots_;
          if (finished_) {
            source_->ReleaseInstance(id);
            return;
          }
          owned_instances_.insert(id);
          acquired_at_[id] = sim_.now();
        },
        [this] { --pending_slots_; });
  }
}

}  // namespace rubberband
