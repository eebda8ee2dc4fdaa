#include "perfbench/plan_probe.h"

#include "src/planner/planner.h"

namespace perfbench {

using namespace rubberband;

void ProbePlan(const CompiledPlan& compiled, const ModelProfile& model, const CloudProfile& cloud,
               Seconds deadline, const PlannerOptions& options, PlanProbeTotals* totals) {
  const int64_t allocs = AllocCount();
  const int64_t start = NowNs();
  const CompiledPlannedExperiment timed =
      PlanCompiledExperiment(compiled, model, cloud, deadline, options);
  totals->plan_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
  totals->allocs += AllocCount() - allocs;
  ++totals->plans;

  // PlanCompiledExperiment plans each unit with a private evaluator; doing
  // the same with an evaluator we own exposes its counters.
  for (size_t i = 0; i < compiled.units.size(); ++i) {
    PlanEvaluator evaluator(PlannerInputs{compiled.units[i].spec, model, cloud, deadline},
                            options);
    const PlannedJob job = compiled.asha ? PlanStatic(evaluator) : PlanGreedy(evaluator);
    totals->stats += evaluator.stats();
    totals->matched = totals->matched && job.plan == timed.units[i].plan &&
                      job.estimate.cost_mean == timed.units[i].estimate.cost_mean;
  }
}

void AddPlannerTimes(const PlanProbeTotals& totals, WorkloadResult* result) {
  const double stage_evals = static_cast<double>(totals.stats.stage_evaluations);
  result->Layer("planner.plan_ms", totals.plan_ms.Mean(), "ms");
  result->Layer("planner.ns_per_stage_eval",
                stage_evals > 0 ? totals.plan_ms.Sum() * 1e6 / stage_evals : 0.0, "ns");
  result->Layer("planner.allocs_per_plan",
                totals.plans > 0 ? static_cast<double>(totals.allocs) / totals.plans : 0.0,
                "count");
}

bool SamePlans(const CompiledPlannedExperiment& a, const CompiledPlannedExperiment& b) {
  if (a.units.size() != b.units.size() || a.feasible != b.feasible ||
      a.asha_workers != b.asha_workers) {
    return false;
  }
  for (size_t i = 0; i < a.units.size(); ++i) {
    const PlannedJob& x = a.units[i];
    const PlannedJob& y = b.units[i];
    if (!(x.plan == y.plan) || x.feasible != y.feasible ||
        x.estimate.cost_mean != y.estimate.cost_mean ||
        x.estimate.jct_mean != y.estimate.jct_mean) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
