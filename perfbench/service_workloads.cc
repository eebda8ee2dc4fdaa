// The two TuningService workloads.
//
// fleet  — many small compiled experiments (mostly sha, some hyperband /
//          asha / random / grid) arriving at a steady seeded rate on a wide,
//          clean on-demand cluster with the warm pool on and the fleet
//          service settings. Admission planning is almost all memo hits, so
//          the time goes to the control plane, the DES kernel, per-job
//          executor setup and the warm pool.
// faults — larger experiments of all five kinds on a contended cluster with
//          a volatile spot market, crashes, init and provisioning failures,
//          persistent stragglers (mitigated) and fault replans: the only
//          workload that takes the executor's recovery paths and the cloud
//          fault models, and where cost and deadline hits are non-trivial.
//
// The faults trace is split into independent shards (one service each), so
// one seed averages over several price walks and fault draws.
//
// One repetition = per shard, build the service, submit the trace and time
// the batch Run() (throughput). The first repetition also replays the trace
// live through StartLive/SubmitExperiment/AdvanceUntil (decision latency per
// arrival), which must reproduce the batch outcomes bit for bit.
// Repetitions continue until --seconds is used up; every one must reproduce
// the first one's outcomes, allocation count and event count exactly.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/plan_probe.h"
#include "src/rubberband.h"

namespace perfbench {
namespace {

using namespace rubberband;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 40;
constexpr int kSetupsPerRep = 3;

// One independent service instance and its arrival trace.
struct Shard {
  ServiceConfig config;
  std::vector<ExperimentRequest> experiments;
};

using Trace = std::vector<Shard>;

// ---- trace generators ------------------------------------------------------

ExperimentIR SmallIr(SchedulerKind kind, Rng& rng) {
  ExperimentIR ir;
  ir.scheduler = kind;
  ir.reduction_factor = 2;
  ir.max_iters = rng.UniformInt(0, 1) == 0 ? 4 : 8;
  switch (kind) {
    case SchedulerKind::kSha:
    case SchedulerKind::kAsha:
      ir.num_trials = static_cast<int>(rng.UniformInt(3, 6));
      break;
    case SchedulerKind::kRandom:
      ir.num_trials = static_cast<int>(rng.UniformInt(2, 4));
      break;
    case SchedulerKind::kHyperband:
      ir.max_iters = 4;  // three brackets
      break;
    case SchedulerKind::kGrid:
      ir.grid = GridShape{static_cast<int>(rng.UniformInt(1, 3)), 1, 1};
      break;
  }
  return ir;
}

// Mostly sha; one in ten of each other kind.
SchedulerKind FleetKind(Rng& rng) {
  const int64_t draw = rng.UniformInt(0, 9);
  if (draw < 6) return SchedulerKind::kSha;
  static constexpr SchedulerKind kOthers[] = {SchedulerKind::kHyperband, SchedulerKind::kAsha,
                                              SchedulerKind::kRandom, SchedulerKind::kGrid};
  return kOthers[draw - 6];
}

Trace FleetTrace(uint64_t seed) {
  constexpr int kExperiments = 3000;
  Shard shard;
  ServiceConfig& config = shard.config;
  config.cloud.instance = P3_8xlarge();
  config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);
  config.capacity_gpus = 1024;
  config.warm_pool.max_parked = 256;
  config.warm_pool.max_idle_seconds = 600.0;
  config.seed = seed;
  config.share_admission_evaluator = true;
  config.keep_job_artifacts = false;
  config.per_tenant_metrics = false;

  Rng rng(seed ^ 0xF1EE7ULL);
  Seconds at = 0.0;
  for (int i = 0; i < kExperiments; ++i) {
    ExperimentRequest request;
    request.name = "fleet-" + std::to_string(i);
    request.ir = SmallIr(FleetKind(rng), rng);
    request.workload = ResNet101Cifar10();
    at += rng.Exponential(2.0);  // Poisson arrivals, mean gap 2 s
    request.submit_at = at;
    request.deadline = Hours(4.0);
    shard.experiments.push_back(std::move(request));
  }
  return {shard};
}

// Experiment i of a faults shard: the kind cycles through all five and the
// size through three classes, so every seed carries the same mix and only
// arrival times and provider draws differ.
ExperimentIR LargeIr(int i) {
  static constexpr SchedulerKind kKinds[] = {SchedulerKind::kSha, SchedulerKind::kHyperband,
                                             SchedulerKind::kAsha, SchedulerKind::kRandom,
                                             SchedulerKind::kGrid};
  const int size = (i / 5) % 3;
  ExperimentIR ir;
  ir.scheduler = kKinds[i % 5];
  ir.reduction_factor = 3;
  ir.max_iters = 27;
  switch (ir.scheduler) {
    case SchedulerKind::kSha:
    case SchedulerKind::kAsha:
      ir.num_trials = 16 * (size + 1);
      break;
    case SchedulerKind::kRandom:
      ir.num_trials = 4 + 2 * size;
      break;
    case SchedulerKind::kHyperband:
      break;
    case SchedulerKind::kGrid:
      ir.grid = GridShape{2 + (size + 1) / 2, 2, 1};
      break;
  }
  return ir;
}

Trace FaultsTrace(uint64_t seed) {
  constexpr int kShards = 12;
  constexpr int kExperiments = 200;  // per shard
  Trace trace;
  for (int s = 0; s < kShards; ++s) {
    Shard shard;
    ServiceConfig& config = shard.config;
    CloudProfile& cloud = config.cloud;
    cloud.instance = P3_8xlarge();
    cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);
    cloud.spot.enabled = true;
    cloud.spot.mean_time_to_preemption = Hours(4.0);
    cloud.spot.volatility = 0.05;
    cloud.spot.hazard_coupling = 1.0;
    cloud.spot.storm_mean_interval_s = Hours(1.5);
    cloud.spot.storm_fraction = 0.1;
    cloud.spot.reclamation_warning_s = 120.0;
    cloud.fault.provision_failure_rate = 0.02;
    cloud.fault.init_failure_rate = 0.05;
    cloud.fault.mtbf = Hours(12.0);
    cloud.fault.straggler_rate = 0.3;
    cloud.fault.straggler_factor_min = 2.0;
    cloud.fault.straggler_factor_max = 4.0;
    config.capacity_gpus = 512;
    config.overcommit = 1.5;
    config.warm_pool.max_parked = 16;
    config.warm_pool.max_idle_seconds = 300.0;
    config.replan_on_faults = true;
    config.straggler.detect = true;
    config.straggler.mitigate = true;
    config.share_admission_evaluator = true;
    config.keep_job_artifacts = false;
    config.seed = seed * kShards + static_cast<uint64_t>(s);

    Rng rng = Rng::ForStream(seed, 0xFA017ULL, static_cast<uint64_t>(s));
    Seconds at = 0.0;
    for (int i = 0; i < kExperiments; ++i) {
      ExperimentRequest request;
      request.name = "faults-" + std::to_string(s) + "-" + std::to_string(i);
      request.ir = LargeIr(i);
      request.workload = ResNet101Cifar10();
      at += rng.Uniform(15.0, 45.0);
      request.submit_at = at;
      request.deadline = Hours(2.0 + 1.5 * ((i / 15) % 3));
      shard.experiments.push_back(std::move(request));
    }
    trace.push_back(std::move(shard));
  }
  return trace;
}

// ---- one repetition --------------------------------------------------------

bool Terminal(JobState state) {
  switch (state) {
    case JobState::kCompleted:
    case JobState::kRejectedInfeasible:
    case JobState::kRejectedOverBudget:
    case JobState::kRejectedStale:
    case JobState::kCancelled:
      return true;
    default:
      return false;
  }
}

// Exact outcome fingerprint (names, states, times and costs to the
// micro-dollar) for the same-seed and live-vs-batch identity checks.
std::string JobsDigest(const std::vector<JobOutcome>& jobs) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const JobOutcome& job : jobs) {
    mix(job.name.data(), job.name.size());
    const int state = static_cast<int>(job.state);
    const int64_t cost = job.cost.micros();
    mix(&state, sizeof(state));
    mix(&job.started_at, sizeof(job.started_at));
    mix(&job.finished_at, sizeof(job.finished_at));
    mix(&cost, sizeof(cost));
    mix(job.plan.stage_gpus().data(), job.plan.stage_gpus().size() * sizeof(int));
  }
  char text[32];
  std::snprintf(text, sizeof(text), "%016" PRIx64, hash);
  return std::string(text) + "/" + std::to_string(jobs.size());
}

// What is left to read after an exception escaped Run(): SnapshotReport
// is live-mode only, so the report is rebuilt from the public per-job
// outcomes and the registry.
ServiceReport PartialReport(const TuningService& service) {
  ServiceReport report;
  for (size_t i = 0; i < service.num_jobs(); ++i) {
    const JobOutcome& job = service.outcome(i);
    report.completed += job.state == JobState::kCompleted;
    report.cancelled += job.state == JobState::kCancelled;
    report.rejected += job.state == JobState::kRejectedInfeasible ||
                       job.state == JobState::kRejectedOverBudget ||
                       job.state == JobState::kRejectedStale;
    report.jobs.push_back(job);
  }
  report.metrics = service.MetricsNow();
  return report;
}

int64_t Counter(const MetricsSnapshot& metrics, const std::string& name) {
  const auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

double Gauge(const MetricsSnapshot& metrics, const std::string& name) {
  const auto it = metrics.gauges.find(name);
  return it == metrics.gauges.end() ? 0.0 : it->second;
}

struct ShardRun {
  ServiceReport report;
  std::string run_error;  // exception escaping Run(), if any
  std::string live_digest;
  std::string live_error;
};

struct Rep {
  std::vector<ShardRun> shards;  // dropped by Compact() after the first rep
  double run_s = 0.0;            // summed over shards
  std::vector<double> shard_run_s;
  double wall_s = 0.0;           // whole repetition
  int64_t run_allocs = 0;
  // Live replay: SubmitExperiment + AdvanceUntil(arrival), per arrival in
  // trace order.
  std::vector<double> decision_ms;
  Samples admit_us;    // traced: live SubmitExperiment alone
  Samples advance_ms;  // traced: AdvanceUntil alone
  Samples submit_us;   // traced: batch SubmitExperiment per experiment
  // Summary, filled by Summarize() and kept by Compact().
  std::string digest;
  int64_t events = 0;
  int completed = 0;

  void Summarize() {
    for (const ShardRun& shard : shards) {
      digest += JobsDigest(shard.report.jobs) + ";";
      events += Counter(shard.report.metrics, "sim.events.run");
      completed += shard.report.completed;
    }
  }
  // Later repetitions only need their summary and timings; dropping the
  // reports keeps peak memory independent of how many repetitions fit.
  void Compact() { shards = {}; }
};

// Runs one shard's batch Run() and, when `live_replay` is set, its live replay.
void RunShard(const Shard& shard, bool traced, bool live_replay, Rep* rep) {
  ShardRun run;
  {
    auto service = std::make_unique<TuningService>(shard.config);
    for (const ExperimentRequest& request : shard.experiments) {
      const int64_t t0 = NowNs();
      service->SubmitExperiment(request);
      if (traced) rep->submit_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    }
    const int64_t allocs = AllocCount();
    const int64_t run_start = NowNs();
    try {
      run.report = service->Run();
    } catch (const std::exception& e) {
      run.run_error = e.what();
    }
    rep->shard_run_s.push_back(SinceS(run_start));
    rep->run_s += rep->shard_run_s.back();
    rep->run_allocs += AllocCount() - allocs;
    if (!run.run_error.empty()) run.report = PartialReport(*service);
  }

  if (!live_replay) {
    rep->shards.push_back(std::move(run));
    return;
  }
  // Live replay: one arrival at a time, each timed from submission until
  // its admission decision has been taken.
  TuningService live(shard.config);
  live.StartLive();
  try {
    for (const ExperimentRequest& request : shard.experiments) {
      const int64_t t0 = NowNs();
      const std::vector<size_t> indices = live.SubmitExperiment(request);
      const int64_t t1 = NowNs();
      live.AdvanceUntil(request.submit_at);
      const int64_t t2 = NowNs();
      rep->decision_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
      if (traced) {
        rep->admit_us.Add(static_cast<double>(t1 - t0) / 1e3);
        rep->advance_ms.Add(static_cast<double>(t2 - t1) / 1e6);
      }
      if (live.outcome(indices.front()).state == JobState::kPending) {
        run.live_error = "live job " + request.name + " has no decision after its arrival";
        break;
      }
    }
    if (run.live_error.empty()) live.FinishLive();
  } catch (const std::exception& e) {
    run.live_error = e.what();
  }
  if (run.live_error.empty()) run.live_digest = JobsDigest(live.SnapshotReport().jobs);
  rep->shards.push_back(std::move(run));
}

Rep RunRep(const Trace& trace, bool traced, bool live_replay) {
  Rep rep;
  const int64_t start = NowNs();
  for (const Shard& shard : trace) RunShard(shard, traced, live_replay, &rep);
  rep.wall_s = SinceS(start);
  rep.Summarize();
  return rep;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

size_t CompiledJobs(const Shard& shard) {
  size_t jobs = 0;
  for (const ExperimentRequest& request : shard.experiments) {
    jobs += CompileExperiment(request.ir).units.size();
  }
  return jobs;
}

int64_t Cents(Money money) { return (money.micros() + 5000) / 10000; }

// Outcome checks on one shard. Returns the shard's unfinished job count
// (jobs an exception escaping Run() left without a terminal state).
int CheckShard(size_t index, const ShardRun& run, size_t submitted, Money* ledger,
               Money* attributed, WorkloadResult* result) {
  const ServiceReport& report = run.report;
  int terminal = 0, completed = 0, rejected = 0, cancelled = 0;
  Money job_costs;
  for (const JobOutcome& job : report.jobs) {
    terminal += Terminal(job.state);
    completed += job.state == JobState::kCompleted;
    cancelled += job.state == JobState::kCancelled;
    rejected += job.state == JobState::kRejectedInfeasible ||
                job.state == JobState::kRejectedOverBudget ||
                job.state == JobState::kRejectedStale;
    job_costs += job.cost;
  }
  result->Check(report.jobs.size() == submitted,
                "report lists " + std::to_string(report.jobs.size()) + " jobs, submitted " +
                    std::to_string(submitted));
  result->Check(completed == report.completed && rejected == report.rejected &&
                    cancelled == report.cancelled,
                "report totals disagree with per-job states");
  result->Check(Counter(report.metrics, "sim.callback_heap_fallbacks") == 0,
                "sim.callback_heap_fallbacks != 0");
  if (!run.run_error.empty()) {
    // Only the known defect may stop a run, and it must stop the batch run
    // and the live replay alike.
    result->Check(!run.live_error.empty(), "batch Run() threw but the live replay did not");
    const int unfinished = static_cast<int>(submitted) - terminal;
    result->defects.push_back("Run() threw '" + run.run_error + "'; " +
                              std::to_string(unfinished) + " unfinished jobs counted as failed");
    return unfinished;
  }
  result->Check(run.live_error.empty(),
                "live replay threw '" + run.live_error + "' but the batch Run() did not");
  result->Check(run.live_digest.empty() || run.live_digest == JobsDigest(report.jobs),
                "live replay of the trace differs from its batch Run()");
  result->Check(terminal == static_cast<int>(submitted),
                std::to_string(submitted - terminal) + " jobs never reached a terminal state");
  result->Check(completed + rejected + cancelled == static_cast<int>(submitted),
                "completed + rejected + cancelled != submitted");
  // Cost attribution: the account ledger bills every job's instances plus
  // what no job holds (init time, acquisition minimums, parked warm-pool
  // time), so the per-job costs may sum to less than the ledger, never to
  // more. Checked to the cent on shards whose Run() finished: an aborted
  // run leaves held instances off the ledger.
  const int64_t ledger_cents = Cents(report.total_cost.Total());
  const int64_t attributed_cents = Cents(job_costs);
  if (attributed_cents > ledger_cents) {
    char text[200];
    std::snprintf(text, sizeof(text),
                  "shard %zu: per-job costs sum to $%.2f, more than the service total $%.2f",
                  index, attributed_cents / 100.0, ledger_cents / 100.0);
    result->errors.push_back(text);
  }
  *ledger += report.total_cost.Total();
  *attributed += job_costs;
  return 0;
}

WorkloadResult RunServiceWorkload(Trace (*make_trace)(uint64_t), const RunOptions& options) {
  WorkloadResult result;
  // Set-up: generate the trace, build the services and submit every
  // experiment. Sampled kSetupsPerRep times after each repetition: spread
  // over the run, as the host's speed drifts over seconds, and each from
  // the heap a repetition leaves (a fresh process's first set-ups also pay
  // for growing the heap).
  Samples setup_s;
  const auto set_up = [&] {
    const int64_t start = NowNs();
    for (const Shard& shard : make_trace(options.seed)) {
      TuningService service(shard.config);
      for (const ExperimentRequest& request : shard.experiments) {
        service.SubmitExperiment(request);
      }
    }
    setup_s.Add(SinceS(start));
  };
  const Trace trace = make_trace(options.seed);
  std::vector<size_t> shard_jobs;
  size_t submitted = 0, experiments = 0;
  for (const Shard& shard : trace) {
    shard_jobs.push_back(CompiledJobs(shard));
    submitted += shard_jobs.back();
    experiments += shard.experiments.size();
  }

  const int64_t begin = NowNs();
  std::vector<Rep> reps;
  while (reps.size() < static_cast<size_t>(kMinReps) ||
         (SinceS(begin) < options.seconds && reps.size() < static_cast<size_t>(kMaxReps))) {
    // Only the first repetition replays live: the replay's identity check
    // and latency need it once, and the batch timing gets more repetitions.
    Rep rep = RunRep(trace, /*traced=*/false, /*live_replay=*/reps.empty());
    if (!reps.empty()) rep.Compact();
    reps.push_back(std::move(rep));
    for (int i = 0; i < kSetupsPerRep; ++i) set_up();
    if (options.trace) break;  // traced runs measure below
  }

  // ---- checks ----
  const Rep& first = reps.front();
  int unfinished = 0;
  Money ledger, attributed;
  for (size_t s = 0; s < trace.size(); ++s) {
    unfinished += CheckShard(s, first.shards[s], shard_jobs[s], &ledger, &attributed, &result);
  }
  char cost_note[200];
  std::snprintf(cost_note, sizeof(cost_note),
                "cost: service total $%.2f, per-job costs $%.2f, unattributed $%.2f "
                "(shards whose Run() finished)",
                Cents(ledger) / 100.0, Cents(attributed) / 100.0,
                (Cents(ledger) - Cents(attributed)) / 100.0);
  result.notes.push_back(cost_note);
  for (const Rep& rep : reps) {
    result.Check(rep.digest == first.digest && rep.run_allocs == first.run_allocs &&
                     rep.events == first.events,
                 "repetitions of one seed disagree (outcomes, allocations or events)");
  }

  // ---- aggregate outcomes over shards ----
  MetricsSnapshot m;
  double queue_high_water = 0.0;
  int completed = 0, rejected = 0, met = 0;
  Money completed_cost, on_demand_cost;
  Samples jct, queue_wait;
  for (const ShardRun& shard : first.shards) {
    m.Merge(shard.report.metrics);
    queue_high_water =
        std::max(queue_high_water, Gauge(shard.report.metrics, "sim.queue.depth_high_water"));
    completed += shard.report.completed;
    rejected += shard.report.rejected;
    for (const JobOutcome& job : shard.report.jobs) {
      if (job.state != JobState::kCompleted) continue;
      met += job.met_deadline;
      jct.Add(job.jct);
      queue_wait.Add(job.queue_wait);
      completed_cost += job.cost;
      on_demand_cost += job.cost + job.spot_savings;
    }
  }
  // Attributed cost per completed job, as billed and at on-demand rates
  // (billed + spot savings). The second strips the spot price walk, whose
  // level differs by seed, and keeps what the decisions used; it is the
  // bounded metric. Both are readable whether or not Run() ended normally.
  const double cost_per_job = Ratio(completed_cost.dollars(), completed);
  const double on_demand_per_job = Ratio(on_demand_cost.dollars(), completed);
  // Decision quality over the jobs that reached a terminal state; jobs the
  // known defect left unfinished are counted in `failed` instead (the
  // all-jobs rate, which counts them as misses, is printed alongside).
  const double hit_rate = Ratio(met, static_cast<double>(submitted - unfinished));
  const double hit_rate_all = Ratio(met, static_cast<double>(submitted));

  result.attempted = static_cast<int64_t>(submitted);
  result.failed = unfinished;
  result.succeeded = result.attempted - result.failed;

  char note[240];
  std::snprintf(note, sizeof(note),
                "%zu experiments in %zu shard(s) -> %zu jobs: %d completed, %d rejected; "
                "%zu repetitions",
                experiments, trace.size(), submitted, completed, rejected, reps.size());
  result.notes.push_back(note);
  std::snprintf(note, sizeof(note),
                "queued %lld, preempted %lld, crashed %lld, trial restarts %lld, replans %lld, "
                "stragglers detected %lld, quarantined %lld",
                static_cast<long long>(Counter(m, "service.jobs_queued")),
                static_cast<long long>(Counter(m, "cloud.instances_preempted")),
                static_cast<long long>(Counter(m, "cloud.instances_crashed")),
                static_cast<long long>(Counter(m, "executor.trial_restarts")),
                static_cast<long long>(Counter(m, "executor.replans")),
                static_cast<long long>(Counter(m, "executor.stragglers_detected")),
                static_cast<long long>(Counter(m, "executor.stragglers_quarantined")));
  result.notes.push_back(note);

  // Every repetition does identical work, and interference from the rest
  // of the host only ever adds time, so Run() time is each shard's best.
  std::vector<double> best_shard_s = first.shard_run_s;
  for (const Rep& rep : reps) {
    for (size_t i = 0; i < best_shard_s.size(); ++i) {
      best_shard_s[i] = std::min(best_shard_s[i], rep.shard_run_s[i]);
    }
  }
  double best_run_s = 0.0;
  for (const double t : best_shard_s) best_run_s += t;
  const double jobs_per_s = Ratio(first.completed, best_run_s);
  Samples decision_ms;
  for (const double t : first.decision_ms) decision_ms.Add(t);

  result.Named("setup_s", setup_s.Median(), "s");
  result.Named("peak_rss_mb", PeakRssMb(), "MB");
  result.Named("jobs_per_s", jobs_per_s, "1/s");
  result.Named("sim_cost_per_job_usd", cost_per_job, "USD");
  result.Named("sim_on_demand_cost_per_job_usd", on_demand_per_job, "USD");
  result.Named("sim_deadline_hit_rate", hit_rate, "ratio");
  result.Named("sim_deadline_hit_rate_all_jobs", hit_rate_all, "ratio");
  result.Named("sim_mean_jct_s", jct.Mean(), "s");
  result.Named("live_decision_p50_ms", decision_ms.Median(), "ms");
  result.Named("live_decision_p95_ms", decision_ms.Quantile(0.95), "ms");
  result.Named("live_decision_p99_ms", decision_ms.Quantile(0.99), "ms");

  result.E2e("setup_s", setup_s.Median(), "s");
  result.E2e("peak_rss_mb", PeakRssMb(), "MB");
  result.E2e("throughput_per_s", jobs_per_s, "1/s");
  result.E2e("sim_cost_usd", on_demand_per_job, "USD");
  result.E2e("sim_deadline_hit_rate", hit_rate, "ratio");
  result.E2e("sim_jct_s", jct.Mean(), "s");

  if (!options.trace) return result;

  // ---- traced run: per-call timers, alternated with plain repetitions ----
  Samples plain_wall, traced_wall;
  Rep traced;
  for (int round = 0; round < 2; ++round) {
    plain_wall.Add(RunRep(trace, false, true).wall_s);
    traced = RunRep(trace, true, true);
    traced_wall.Add(traced.wall_s);
    result.Check(traced.digest == first.digest && traced.run_allocs == first.run_allocs,
                 "traced repetition disagrees with the untraced one");
  }
  result.trace_overhead = traced_wall.Median() / plain_wall.Median() - 1.0;
  result.traced_wall_s = traced.wall_s;
  result.layer_rows.push_back({"service", "SubmitExperiment", traced.submit_us.Sum() / 1e6});
  result.layer_rows.push_back({"service", "Run", traced.run_s});
  result.layer_rows.push_back({"service", "live SubmitExperiment", traced.admit_us.Sum() / 1e6});
  result.layer_rows.push_back({"service", "live AdvanceUntil", traced.advance_ms.Sum() / 1e3});

  // spec: CompileExperiment over the trace's experiments.
  Samples compile_us;
  for (const Shard& shard : trace) {
    for (const ExperimentRequest& request : shard.experiments) {
      const int64_t t0 = NowNs();
      const CompiledPlan compiled = CompileExperiment(request.ir);
      compile_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  // planner: one cold plan per distinct experiment shape in the trace (the
  // work the shared admission memo saves), plus the services' own cache
  // counters.
  const ServiceConfig& config = trace.front().config;
  ProfilerOptions profiler = config.profiler;
  profiler.seed = config.seed;
  const ModelProfile model = ProfileWorkload(ResNet101Cifar10(), profiler).profile;
  std::map<std::string, const ExperimentRequest*> shapes;
  for (const ExperimentRequest& request : trace.front().experiments) {
    shapes.emplace(request.ir.ToString() + "@" + std::to_string(request.deadline), &request);
  }
  PlanProbeTotals probe;
  for (const auto& [key, request] : shapes) {
    ProbePlan(CompileExperiment(request->ir), model, config.cloud, request->deadline,
              config.planner, &probe);
  }
  result.Check(probe.matched, "evaluator re-plan differs from PlanCompiledExperiment");

  PlannerCacheStats cache;
  cache.plan_evaluations = Counter(m, "planner.plan_evaluations");
  cache.plan_memo_hits = Counter(m, "planner.plan_memo_hits");
  cache.stage_evaluations = Counter(m, "planner.stage_evaluations");
  cache.stage_cache_hits = Counter(m, "planner.stage_cache_hits");
  const double jobs = static_cast<double>(submitted);
  const double sim_events = static_cast<double>(Counter(m, "sim.events.run"));
  const double detected = static_cast<double>(Counter(m, "executor.stragglers_detected"));

  result.Layer("spec.compile_us", compile_us.Mean(), "us");
  AddPlannerTimes(probe, &result);
  result.Layer("planner.stage_evaluations", static_cast<double>(cache.stage_evaluations), "count");
  result.Layer("planner.plan_evaluations", static_cast<double>(cache.plan_evaluations), "count");
  result.Layer("planner.stage_hit_rate", cache.StageHitRate(), "ratio");
  result.Layer("planner.plan_hit_rate", cache.PlanHitRate(), "ratio");
  result.Layer("service.submit_us", traced.submit_us.Mean(), "us");
  result.Layer("service.run_s", traced.run_s, "s");
  result.Layer("service.allocs_per_job", static_cast<double>(first.run_allocs) / jobs, "count");
  result.Layer("service.admit_us", traced.admit_us.Mean(), "us");
  result.Layer("service.advance_ms", traced.advance_ms.Mean(), "ms");
  result.Layer("service.jobs_queued", static_cast<double>(Counter(m, "service.jobs_queued")),
               "count");
  result.Layer("service.jobs_rejected", rejected, "count");
  result.Layer("service.queue_wait_s_p50", queue_wait.Median(), "s");
  result.Layer("executor.trial_restarts",
               static_cast<double>(Counter(m, "executor.trial_restarts")), "count");
  result.Layer("executor.checkpoint_saves",
               static_cast<double>(Counter(m, "executor.checkpoint_saves")), "count");
  result.Layer("executor.replans", static_cast<double>(Counter(m, "executor.replans")), "count");
  result.Layer("executor.stragglers_quarantined",
               static_cast<double>(Counter(m, "executor.stragglers_quarantined")), "count");
  result.Layer("executor.straggler_false_positive_ratio",
               Ratio(static_cast<double>(Counter(m, "executor.straggler_false_positives")),
                     detected),
               "ratio");
  result.Layer("executor.recovery_seconds", Gauge(m, "executor.recovery_seconds"), "s");
  result.Layer("sim.events_per_job", sim_events / jobs, "count");
  result.Layer("sim.ns_per_event", Ratio(traced.run_s * 1e9, sim_events), "ns");
  result.Layer("sim.events_cancelled_ratio",
               Ratio(static_cast<double>(Counter(m, "sim.events.cancelled")),
                     static_cast<double>(Counter(m, "sim.events.scheduled"))),
               "ratio");
  result.Layer("sim.queue_depth_high_water", queue_high_water, "count");
  result.Layer("sim.callback_heap_fallbacks",
               static_cast<double>(Counter(m, "sim.callback_heap_fallbacks")), "count");
  result.Layer("cloud.warm_hit_rate",
               Ratio(static_cast<double>(Counter(m, "cloud.warm.warm_hits")),
                     static_cast<double>(Counter(m, "cloud.warm.requests"))),
               "ratio");
  result.Layer("cloud.launches_per_job",
               static_cast<double>(Counter(m, "cloud.instances_launched")) / jobs, "count");
  result.Layer("cloud.billed_instance_seconds", Gauge(m, "cloud.billed_instance_seconds"), "s");
  result.Layer("cloud.instances_preempted",
               static_cast<double>(Counter(m, "cloud.instances_preempted")), "count");
  result.Layer("cloud.instances_crashed",
               static_cast<double>(Counter(m, "cloud.instances_crashed")), "count");
  return result;
}

}  // namespace

WorkloadResult RunFleet(const RunOptions& options) {
  return RunServiceWorkload(FleetTrace, options);
}

WorkloadResult RunFaults(const RunOptions& options) {
  return RunServiceWorkload(FaultsTrace, options);
}

}  // namespace perfbench
