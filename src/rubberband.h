// RubberBand public API (umbrella header).
//
// Mirrors the paper's Figure 6 workflow:
//
//   auto spec = rubberband::MakeSha(/*n=*/32, /*r=*/1, /*R=*/50, /*eta=*/3);
//   auto workload = rubberband::ResNet101Cifar10();
//   auto profile = rubberband::ProfileWorkload(workload).profile;
//   rubberband::CloudProfile cloud;  // p3.8xlarge, per-instance billing
//   auto plan = rubberband::CompilePlan(spec, profile, cloud,
//                                       rubberband::Minutes(20));
//   auto report = rubberband::Execute(spec, plan.plan, workload, cloud);

#ifndef SRC_RUBBERBAND_H_
#define SRC_RUBBERBAND_H_

#include "src/cloud/billing.h"
#include "src/cloud/cloud_profile.h"
#include "src/cloud/fault.h"
#include "src/cloud/instance.h"
#include "src/cloud/pricing.h"
#include "src/cloud/provisioning.h"
#include "src/cloud/simulated_cloud.h"
#include "src/cloud/warm_pool.h"
#include "src/common/distribution.h"
#include "src/common/money.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/dag/builder.h"
#include "src/dag/node.h"
#include "src/dag/simulate.h"
#include "src/executor/asha_engine.h"
#include "src/executor/executor.h"
#include "src/executor/run_compiled.h"
#include "src/model/profile.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/model/profiler.h"
#include "src/model/scaling.h"
#include "src/placement/controller.h"
#include "src/planner/compiled.h"
#include "src/planner/plan.h"
#include "src/planner/planner.h"
#include "src/planner/render.h"
#include "src/service/fair_share.h"
#include "src/service/tuning_service.h"
#include "src/spec/compile.h"
#include "src/spec/experiment_spec.h"
#include "src/spec/hyperband.h"
#include "src/spec/ir.h"
#include "src/spec/sha.h"
#include "src/trainer/dataset.h"
#include "src/trainer/model_zoo.h"
#include "src/trainer/search_space.h"
#include "src/trainer/synthetic_trainer.h"

namespace rubberband {

// Compiles an elastic, cost-minimizing resource allocation plan for the
// experiment under the deadline (RubberBand's planner, Algorithm 2).
inline PlannedJob CompilePlan(const ExperimentSpec& spec, const ModelProfile& model,
                              const CloudProfile& cloud, Seconds deadline,
                              const PlannerOptions& options = {}) {
  return PlanGreedy(PlannerInputs{spec, model, cloud, deadline}, options);
}

// Executes a plan end-to-end on the simulated cloud.
inline ExecutionReport Execute(const ExperimentSpec& spec, const AllocationPlan& plan,
                               const WorkloadSpec& workload, const CloudProfile& cloud,
                               const ExecutorOptions& options = {}) {
  return ExecutePlan(spec, plan, workload, cloud, options);
}

}  // namespace rubberband

#endif  // SRC_RUBBERBAND_H_
