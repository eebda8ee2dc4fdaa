// Planner probe shared by the plan, fleet and faults workloads: times the
// public PlanCompiledExperiment call and, separately, re-plans each unit
// through an explicit PlanEvaluator so the evaluator's cache counters
// (PlannerCacheStats) can be read for exactly the same planning work.

#ifndef PERFBENCH_PLAN_PROBE_H_
#define PERFBENCH_PLAN_PROBE_H_

#include "perfbench/common.h"
#include "src/planner/compiled.h"
#include "src/planner/evaluator.h"

namespace perfbench {

struct PlanProbeTotals {
  rubberband::PlannerCacheStats stats;
  Samples plan_ms;      // PlanCompiledExperiment wall per call
  int64_t allocs = 0;   // heap allocations inside PlanCompiledExperiment
  int64_t plans = 0;
  bool matched = true;  // evaluator re-plan reproduced every timed plan
};

// Plans `compiled` through PlanCompiledExperiment (timed, allocations
// counted) and again unit by unit through explicit evaluators (counters).
void ProbePlan(const rubberband::CompiledPlan& compiled, const rubberband::ModelProfile& model,
               const rubberband::CloudProfile& cloud, rubberband::Seconds deadline,
               const rubberband::PlannerOptions& options, PlanProbeTotals* totals);

// planner.plan_ms, planner.ns_per_stage_eval and planner.allocs_per_plan.
void AddPlannerTimes(const PlanProbeTotals& totals, WorkloadResult* result);

// Bit-equality of two planned experiments (plans and estimates).
bool SamePlans(const rubberband::CompiledPlannedExperiment& a,
               const rubberband::CompiledPlannedExperiment& b);

}  // namespace perfbench

#endif  // PERFBENCH_PLAN_PROBE_H_
