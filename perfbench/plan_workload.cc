// plan — cold planning of a set of 100 distinct experiments: all five
// scheduler kinds, trial counts from 4 to 256, tight to loose deadlines,
// per-instance and per-function billing, two model profiles. Each is CompileExperiment +
// PlanCompiledExperiment with a fresh evaluator on one thread, which is what
// a `rubberband plan` user waits for. The planner, the DAG simulation and
// keyed RNG seeding do the work; service, executor and sim do none.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/plan_probe.h"
#include "src/rubberband.h"

namespace perfbench {
namespace {

using namespace rubberband;

constexpr int kSetups = 11;
constexpr int kMinPasses = 3;

struct PlanCase {
  ExperimentIR ir;
  CloudProfile cloud;
  Seconds deadline = 0.0;
  int workload = 0;  // index into PlanSet::models
};

struct PlanSet {
  std::vector<ModelProfile> models;
  std::vector<PlanCase> cases;
};

// A fixed grid of cases — every scheduler kind x five sizes x both billing
// models x two model profiles, with deadlines from tight to loose — so every
// seed plans the same mix; the seed jitters each deadline.
PlanSet MakePlanSet(uint64_t seed) {
  PlanSet set;
  ProfilerOptions profiler;
  profiler.seed = seed;
  for (const WorkloadSpec& workload : {ResNet101Cifar10(), BertRte()}) {
    set.models.push_back(ProfileWorkload(workload, profiler).profile);
  }
  static constexpr SchedulerKind kKinds[] = {SchedulerKind::kSha, SchedulerKind::kHyperband,
                                             SchedulerKind::kAsha, SchedulerKind::kRandom,
                                             SchedulerKind::kGrid};
  static constexpr int kTrials[] = {4, 16, 64, 128, 256};
  Rng rng(seed ^ 0x91A4ULL);
  for (const SchedulerKind kind : kKinds) {
    for (int size = 0; size < 5; ++size) {
      for (const BillingModel billing : {BillingModel::kPerInstance, BillingModel::kPerFunction}) {
        for (int workload = 0; workload < 2; ++workload) {
          PlanCase c;
          ExperimentIR& ir = c.ir;
          ir.scheduler = kind;
          ir.reduction_factor = 3;
          ir.max_iters = size % 2 == 0 ? 27 : 81;
          switch (kind) {
            case SchedulerKind::kSha:
            case SchedulerKind::kAsha:
              ir.num_trials = kTrials[size];
              break;
            case SchedulerKind::kRandom:
              ir.num_trials = kTrials[size] / 4;
              ir.max_iters /= 3;
              break;
            case SchedulerKind::kHyperband:
              break;
            case SchedulerKind::kGrid:
              ir.grid = GridShape{2 + size, 2, 2};
              ir.max_iters /= 3;
              break;
          }
          c.cloud.instance = P3_8xlarge();
          c.cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
          c.cloud.pricing.billing = billing;
          c.workload = workload;
          // Deadlines step from tight to loose across the set; the seed
          // jitters each by +-5%. The tightest step stays above the
          // fastest plan of the largest experiments (~23 min), so every
          // case has a feasible plan and its cost is not a best-effort one.
          static constexpr double kDeadlineMin[] = {30.0, 60.0, 105.0, 165.0, 240.0};
          c.deadline = Minutes(kDeadlineMin[set.cases.size() % 5]) * rng.Uniform(0.95, 1.05);
          set.cases.push_back(c);
        }
      }
    }
  }
  return set;
}

// One pass over the set: compile + plan each case, its wall time in
// `ms[i]`. Returns the pass's wall seconds.
double PlanPass(const PlanSet& set, const PlannerOptions& options,
                std::vector<CompiledPlannedExperiment>* out, std::vector<double>* ms) {
  const int64_t start = NowNs();
  for (size_t i = 0; i < set.cases.size(); ++i) {
    const PlanCase& c = set.cases[i];
    const int64_t t0 = NowNs();
    const CompiledPlan compiled = CompileExperiment(c.ir);
    (*out)[i] = PlanCompiledExperiment(compiled, set.models[c.workload], c.cloud, c.deadline,
                                       options);
    (*ms)[i] = static_cast<double>(NowNs() - t0) / 1e6;
  }
  return SinceS(start);
}

}  // namespace

WorkloadResult RunPlan(const RunOptions& options) {
  WorkloadResult result;
  // Set-up samples: kSetups before the passes and one after each, as the
  // host's speed drifts over seconds.
  Samples setup_s;
  const auto set_up = [&](PlanSet* set) {
    const int64_t start = NowNs();
    *set = MakePlanSet(options.seed);
    setup_s.Add(SinceS(start));
  };
  PlanSet set;
  for (int i = 0; i < kSetups; ++i) set_up(&set);
  const size_t n = set.cases.size();
  PlannerOptions planner;  // defaults: one evaluation thread

  const int64_t begin = NowNs();
  std::vector<CompiledPlannedExperiment> first(n), again(n);
  // Every pass does identical work, and interference from the rest of the
  // host only ever adds time, so each case's time is its best pass.
  std::vector<double> best_ms(n), ms(n);
  PlanPass(set, planner, &first, &best_ms);
  int passes = 1;
  while (passes < kMinPasses || (SinceS(begin) < options.seconds && !options.trace)) {
    PlanPass(set, planner, &again, &ms);
    ++passes;
    PlanSet spare;
    set_up(&spare);
    for (size_t i = 0; i < n; ++i) {
      best_ms[i] = std::min(best_ms[i], ms[i]);
      result.Check(SamePlans(first[i], again[i]), "plan " + std::to_string(i) +
                                                      " differs between passes of one seed");
    }
  }
  Samples plan_ms;
  for (const double t : best_ms) plan_ms.Add(t);
  const double plans_per_s = static_cast<double>(n) / (plan_ms.Sum() / 1e3);

  // A sample of plans must not depend on the evaluator's thread count.
  PlannerOptions threaded = planner;
  threaded.eval_threads = 4;
  for (size_t i = 0; i < n; i += 3) {
    const PlanCase& c = set.cases[i];
    const CompiledPlannedExperiment parallel = PlanCompiledExperiment(
        CompileExperiment(c.ir), set.models[c.workload], c.cloud, c.deadline, threaded);
    result.Check(SamePlans(first[i], parallel),
                 "plan " + std::to_string(i) + " differs at eval_threads 4");
  }

  double cost = 0.0, jct = 0.0;
  int feasible = 0;
  for (const CompiledPlannedExperiment& planned : first) {
    cost += planned.EstimatedCost().dollars();
    jct += planned.EstimatedJct();
    feasible += planned.feasible;
    result.Check(!planned.units.empty() && planned.EstimatedCost().dollars() > 0.0,
                 "a plan has no units or no cost");
  }
  const double mean_cost = cost / static_cast<double>(n);
  const double mean_jct = jct / static_cast<double>(n);
  const double feasible_rate = static_cast<double>(feasible) / static_cast<double>(n);

  result.attempted = static_cast<int64_t>(n) * passes;
  result.succeeded = result.attempted;
  char note[160];
  std::snprintf(note, sizeof(note), "%zu experiments x %d passes; %d of %zu plans feasible", n,
                passes, feasible, n);
  result.notes.push_back(note);

  result.Named("setup_s", setup_s.Median(), "s");
  result.Named("peak_rss_mb", PeakRssMb(), "MB");
  result.Named("plans_per_s", plans_per_s, "1/s");
  result.Named("plan_p50_ms", plan_ms.Median(), "ms");
  result.Named("plan_p95_ms", plan_ms.Quantile(0.95), "ms");
  result.Named("plan_cost_usd", mean_cost, "USD");
  result.Named("plan_feasible_rate", feasible_rate, "ratio");
  result.Named("plan_mean_jct_s", mean_jct, "s");

  result.E2e("setup_s", setup_s.Median(), "s");
  result.E2e("peak_rss_mb", PeakRssMb(), "MB");
  result.E2e("throughput_per_s", plans_per_s, "1/s");
  result.E2e("sim_cost_usd", mean_cost, "USD");
  result.E2e("sim_deadline_hit_rate", feasible_rate, "ratio");
  result.E2e("sim_jct_s", mean_jct, "s");

  if (!options.trace) return result;

  // ---- traced run: per-call timers around compile and plan, alternated
  // with plain passes for the overhead ----
  Samples plain_wall, traced_wall, compile_us;
  double traced_plan_s = 0.0;
  for (int round = 0; round < 2; ++round) {
    plain_wall.Add(PlanPass(set, planner, &again, &ms));
    const int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const PlanCase& c = set.cases[i];
      const int64_t t0 = NowNs();
      const CompiledPlan compiled = CompileExperiment(c.ir);
      compile_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      const int64_t plan_start = NowNs();
      const CompiledPlannedExperiment planned = PlanCompiledExperiment(
          compiled, set.models[c.workload], c.cloud, c.deadline, planner);
      traced_plan_s += SinceS(plan_start);
      result.Check(SamePlans(first[i], planned), "traced plan differs");
    }
    traced_wall.Add(SinceS(start));
  }
  // Counters and allocations: the same plans once more, outside the traced
  // phase, through evaluators the benchmark owns.
  PlanProbeTotals probe;
  for (const PlanCase& c : set.cases) {
    ProbePlan(CompileExperiment(c.ir), set.models[c.workload], c.cloud, c.deadline, planner,
              &probe);
  }
  result.Check(probe.matched, "evaluator re-plan differs from PlanCompiledExperiment");
  result.trace_overhead = traced_wall.Median() / plain_wall.Median() - 1.0;
  result.traced_wall_s = traced_wall.Sum();
  result.layer_rows.push_back({"spec", "CompileExperiment", compile_us.Sum() / 1e6});
  result.layer_rows.push_back({"planner", "PlanCompiledExperiment", traced_plan_s});

  result.Layer("spec.compile_us", compile_us.Mean(), "us");
  AddPlannerTimes(probe, &result);
  result.Layer("planner.stage_evaluations", static_cast<double>(probe.stats.stage_evaluations),
               "count");
  result.Layer("planner.plan_evaluations", static_cast<double>(probe.stats.plan_evaluations),
               "count");
  result.Layer("planner.stage_hit_rate", probe.stats.StageHitRate(), "ratio");
  result.Layer("planner.plan_hit_rate", probe.stats.PlanHitRate(), "ratio");
  return result;
}

}  // namespace perfbench
