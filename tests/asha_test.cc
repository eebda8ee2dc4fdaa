// ASHA baseline: asynchronous rung promotion semantics of the compiled
// AshaEngine in time-limited mode (what `rubberband asha` runs), and the
// comparison RubberBand's evaluation leans on.

#include "src/executor/asha_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/rubberband.h"

namespace rubberband {
namespace {

CloudProfile TestCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

// The rung ladder r = 1, eta = 3 up to `max_iters`, with no sample cap: the
// engine keeps sampling fresh configurations until the time limit.
AshaPlan BaselinePlan(int64_t max_iters) {
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kAsha;
  ir.num_trials = 1;
  ir.min_iters = 1;
  ir.max_iters = max_iters;
  ir.reduction_factor = 3;
  AshaPlan plan = *CompileExperiment(ir).asha;
  plan.num_trials = 0;
  return plan;
}

AshaEngineOptions TestOptions() {
  AshaEngineOptions options;
  options.num_workers = 8;
  options.time_limit = Minutes(30);
  options.seed = 3;
  return options;
}

// A finished run's report plus the engine's rung-level counters.
struct AshaRun {
  ExecutionReport report;
  int configurations_sampled = 0;
  int64_t best_config_cum_iters = 0;
  std::vector<AshaRungStats> rungs;
};

AshaRun RunBaseline(const AshaEngineOptions& options, int64_t max_iters = 27,
                    const WorkloadSpec& workload = ResNet101Cifar10(),
                    const CloudProfile& cloud = TestCloud()) {
  AshaEngine engine(BaselinePlan(max_iters), workload, cloud, options);
  AshaRun run;
  run.report = engine.Run();
  run.configurations_sampled = engine.configurations_sampled();
  run.best_config_cum_iters = engine.best_config_cum_iters();
  run.rungs = engine.rung_stats();
  return run;
}

TEST(Asha, RunsToTimeLimitAndReports) {
  const AshaRun run = RunBaseline(TestOptions());
  EXPECT_GT(run.configurations_sampled, 8);  // kept sampling beyond the pool
  EXPECT_GT(run.report.best_accuracy, 0.5);
  EXPECT_GE(run.report.jct, Minutes(30));  // in-flight tasks drain past the limit
  // Grace: at most one in-flight top-rung task (18 iters x ~88 s at 1 GPU).
  EXPECT_LT(run.report.jct, Minutes(30) + 15.0 + 18 * 110.0);
  EXPECT_GT(run.report.cost.Total().dollars(), 0.0);
}

TEST(Asha, RungCountsFollowGeometricDecay) {
  const AshaRun run = RunBaseline(TestOptions());
  ASSERT_GE(run.rungs.size(), 3u);
  // Rung 0 completes the most results; each promotion gate passes ~1/eta.
  EXPECT_GT(run.rungs[0].completed, run.rungs[1].completed);
  EXPECT_GE(run.rungs[1].completed, run.rungs[2].completed);
  // Promotions out of a rung never exceed completions into it.
  for (size_t r = 0; r + 1 < run.rungs.size(); ++r) {
    EXPECT_LE(run.rungs[r].promoted, run.rungs[r].completed);
    EXPECT_EQ(run.rungs[r + 1].completed, run.rungs[r].promoted);
  }
}

TEST(Asha, DeterministicForFixedSeed) {
  const AshaRun a = RunBaseline(TestOptions());
  const AshaRun b = RunBaseline(TestOptions());
  EXPECT_EQ(a.configurations_sampled, b.configurations_sampled);
  EXPECT_DOUBLE_EQ(a.report.best_accuracy, b.report.best_accuracy);
  EXPECT_EQ(a.report.cost.Total(), b.report.cost.Total());
}

TEST(Asha, MoreWorkersSampleMoreConfigurations) {
  AshaEngineOptions small = TestOptions();
  small.num_workers = 4;
  AshaEngineOptions large = TestOptions();
  large.num_workers = 16;
  const AshaRun a = RunBaseline(small);
  const AshaRun b = RunBaseline(large);
  EXPECT_GT(b.configurations_sampled, a.configurations_sampled);
}

TEST(Asha, RubberBandReachesDeeperTrainingAtComparableCost) {
  // The paper's argument (via HyperSched): under a time constraint,
  // continually sampling new configurations is an ineffective use of
  // resources — RubberBand trains its winner to the full budget R, while
  // ASHA spreads the same spending over many shallow runs.
  const WorkloadSpec workload = ResNet101Cifar10();
  const CloudProfile cloud = TestCloud();

  AshaEngineOptions asha_options = TestOptions();
  asha_options.time_limit = Minutes(20);
  const AshaRun asha = RunBaseline(asha_options, /*max_iters=*/50, workload, cloud);

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const PlannedJob job = CompilePlan(spec, profile, cloud, Minutes(20));
  ASSERT_TRUE(job.feasible);
  const ExecutionReport rubberband = Execute(spec, job.plan, workload, cloud);

  // RubberBand's winner is trained to R = 50; ASHA's best is much shallower.
  EXPECT_LT(asha.best_config_cum_iters, 50);
  EXPECT_GE(rubberband.best_accuracy + 0.02, asha.report.best_accuracy);
}

TEST(Asha, EngineRejectsAnEmptyPoolOrGpulessTrials) {
  AshaEngineOptions no_workers = TestOptions();
  no_workers.num_workers = 0;
  EXPECT_THROW(AshaEngine(BaselinePlan(27), ResNet101Cifar10(), TestCloud(), no_workers),
               std::invalid_argument);
  no_workers.num_workers = -2;
  EXPECT_THROW(AshaEngine(BaselinePlan(27), ResNet101Cifar10(), TestCloud(), no_workers),
               std::invalid_argument);

  AshaPlan gpuless = BaselinePlan(27);
  gpuless.gpus_per_trial = 0;
  EXPECT_THROW(AshaEngine(gpuless, ResNet101Cifar10(), TestCloud(), TestOptions()),
               std::invalid_argument);
}

}  // namespace
}  // namespace rubberband
