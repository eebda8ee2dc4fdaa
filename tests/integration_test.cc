// Cross-module integration: planner predictions vs executor reality, and the
// paper's headline invariants (RubberBand never costs more than static, both
// meet the deadline, accuracy is policy-independent).

#include <gtest/gtest.h>

#include <ostream>

#include "src/rubberband.h"

namespace rubberband {
namespace {

struct EndToEndCase {
  const char* name;
  int trials;
  int64_t min_iters;
  int64_t max_iters;
  int eta;
  double deadline_minutes;
  uint64_t seed;
};

// gtest lists each case with a printout of its parameter; without this it
// dumps the struct's bytes, which hold the address of `name` and padding, so
// the listed test names would change from build to build.
void PrintTo(const EndToEndCase& c, std::ostream* os) { *os << c.name; }

class EndToEnd : public ::testing::TestWithParam<EndToEndCase> {
 protected:
  static CloudProfile Cloud() {
    CloudProfile cloud;
    cloud.instance = P3_8xlarge();
    cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
    return cloud;
  }
};

TEST_P(EndToEnd, SimulationPredictsExecution) {
  const EndToEndCase& c = GetParam();
  const ExperimentSpec spec = MakeSha(c.trials, c.min_iters, c.max_iters, c.eta);
  const WorkloadSpec workload = ResNet101Cifar10();
  ProfilerOptions profiler_options;
  profiler_options.seed = c.seed;
  const ModelProfile profile = ProfileWorkload(workload, profiler_options).profile;

  const PlannedJob job = CompilePlan(spec, profile, Cloud(), Minutes(c.deadline_minutes));
  if (!job.feasible) {
    GTEST_SKIP() << "deadline infeasible for this case";
  }

  ExecutorOptions exec_options;
  exec_options.seed = c.seed;
  const ExecutionReport report = Execute(spec, job.plan, workload, Cloud(), exec_options);

  // The paper's fidelity claim: low error between simulated and realized
  // JCT and cost (Table 2 shows a few percent; we allow 20%).
  EXPECT_NEAR(report.jct, job.estimate.jct_mean, 0.20 * job.estimate.jct_mean) << c.name;
  EXPECT_NEAR(report.cost.Total().dollars(), job.estimate.cost_mean.dollars(),
              0.20 * job.estimate.cost_mean.dollars())
      << c.name;
}

TEST_P(EndToEnd, RubberBandNeverCostsMoreThanStatic) {
  const EndToEndCase& c = GetParam();
  const ExperimentSpec spec = MakeSha(c.trials, c.min_iters, c.max_iters, c.eta);
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const PlannerInputs inputs{spec, profile, Cloud(), Minutes(c.deadline_minutes)};

  const PlannedJob fixed = PlanStatic(inputs);
  const PlannedJob elastic = PlanGreedy(inputs);
  if (!fixed.feasible) {
    GTEST_SKIP() << "static infeasible";
  }
  ASSERT_TRUE(elastic.feasible);
  EXPECT_LE(elastic.estimate.cost_mean.dollars(), fixed.estimate.cost_mean.dollars() + 1e-6)
      << c.name;
  EXPECT_LE(elastic.estimate.jct_mean, inputs.deadline) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EndToEnd,
    ::testing::Values(EndToEndCase{"table2_20min", 32, 1, 50, 3, 20.0, 1},
                      EndToEndCase{"table2_30min", 32, 1, 50, 3, 30.0, 2},
                      EndToEndCase{"table2_40min", 32, 1, 50, 3, 40.0, 3},
                      EndToEndCase{"eta2_small", 16, 2, 30, 2, 45.0, 4},
                      EndToEndCase{"deep_eta2", 64, 1, 62, 2, 90.0, 5}),
    [](const ::testing::TestParamInfo<EndToEndCase>& param_info) { return param_info.param.name; });

TEST(Integration, AccuracyComparableAcrossPolicies) {
  // Resource allocation must not change *what* is learned, only where it
  // runs: same spec, same seed -> same winning configuration regardless of
  // the plan.
  const ExperimentSpec spec = MakeSha(16, 2, 30, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  ExecutorOptions options;
  options.seed = 17;
  const ExecutionReport wide =
      ExecutePlan(spec, AllocationPlan({32, 16, 16, 8}), workload, cloud, options);
  const ExecutionReport narrow =
      ExecutePlan(spec, AllocationPlan({4, 4, 4, 4}), workload, cloud, options);
  EXPECT_EQ(wide.best_config.id, narrow.best_config.id);
  EXPECT_NEAR(wide.best_accuracy, narrow.best_accuracy, 0.03);
}

TEST(Integration, HyperbandPlansAndRunsEveryCompiledBracket) {
  // Hyperband as a multi-job (paper Figure 6): one SHA bracket per
  // aggressiveness level, each with its own elastic plan, all running
  // concurrently under one shared deadline.
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kHyperband;
  ir.max_iters = 16;
  ir.reduction_factor = 4;
  const CompiledPlan compiled = CompileExperiment(ir);
  const WorkloadSpec workload = ResNet50(Cifar10(), 512);
  const ModelProfile profile = ProfileWorkload(workload).profile;
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();

  const CompiledPlannedExperiment planned =
      PlanCompiledExperiment(compiled, profile, cloud, Hours(2));
  ASSERT_TRUE(planned.feasible);
  const CompiledExecutionReport report = ExecuteCompiled(compiled, planned, workload, cloud);
  ASSERT_EQ(report.units.size(), compiled.units.size());
  for (const ExecutionReport& bracket : report.units) {
    EXPECT_GT(bracket.best_accuracy, 0.2);
  }
  EXPECT_GT(planned.EstimatedCost().dollars(), 0.0);
}

TEST(Integration, PerFunctionPlansAreNoMoreExpensiveThanPerInstance) {
  // Per-function billing never charges for idle straggler-wait, so the
  // same plan can only get cheaper.
  const ExperimentSpec spec = MakeSha(16, 2, 30, 2);
  const ModelProfile profile = ProfileWorkload(ResNet101Cifar10()).profile;
  CloudProfile per_instance;
  per_instance.instance = P3_8xlarge();
  CloudProfile per_function = per_instance;
  per_function.pricing.billing = BillingModel::kPerFunction;

  const AllocationPlan plan({16, 16, 16, 16});
  PlannerOptions options;
  const PlanEstimate inst =
      EstimatePlan({spec, profile, per_instance, Hours(1)}, plan, options);
  const PlanEstimate func =
      EstimatePlan({spec, profile, per_function, Hours(1)}, plan, options);
  EXPECT_LE(func.cost_mean.dollars(), inst.cost_mean.dollars() + 1e-9);
}

TEST(Integration, DataHeavyJobShrinksElasticAdvantage) {
  // Figure 10's mechanism: when ingress dominates, elastic and static
  // costs converge (but elastic never loses).
  const ExperimentSpec spec = MakeSha(16, 2, 30, 2);
  WorkloadSpec workload = ResNet50(ImageNet(), 512);
  const ModelProfile profile = ProfileWorkload(workload).profile;

  CloudProfile free_data;
  free_data.instance = P3_8xlarge();
  CloudProfile pricey_data = free_data;
  pricey_data.pricing.data_price_per_gb = Money::FromCents(16);

  const Seconds deadline = Hours(1);
  const PlannedJob static_free = PlanStatic({spec, profile, free_data, deadline});
  const PlannedJob elastic_free = PlanGreedy({spec, profile, free_data, deadline});
  const PlannedJob static_pricey = PlanStatic({spec, profile, pricey_data, deadline});
  const PlannedJob elastic_pricey = PlanGreedy({spec, profile, pricey_data, deadline});
  ASSERT_TRUE(static_free.feasible && elastic_free.feasible && static_pricey.feasible &&
              elastic_pricey.feasible);

  const double gain_free =
      static_free.estimate.cost_mean.dollars() / elastic_free.estimate.cost_mean.dollars();
  const double gain_pricey =
      static_pricey.estimate.cost_mean.dollars() / elastic_pricey.estimate.cost_mean.dollars();
  EXPECT_GE(gain_pricey, 0.999);       // never worse
  EXPECT_LE(gain_pricey, gain_free + 0.05);  // advantage shrinks (or holds)
}

}  // namespace
}  // namespace rubberband
