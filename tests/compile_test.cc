// Plan-compiler tests: lowering shape for every scheduler kind, the
// bit-identity regression (compiled-SHA versus the legacy hard-coded path:
// same DAG arenas, same trace bytes, same report), and the ASHA oracle —
// compiled-ASHA on the engine held to a frozen golden of the retired
// side-car's run: identical promotion log and final-trial selection.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/rubberband.h"
#include "tests/golden_file.h"

namespace rubberband {
namespace {

constexpr Seconds Minutes(double m) { return m * 60.0; }
constexpr Seconds Hours(double h) { return h * 3600.0; }

ExperimentIR ShaIr(int trials, int64_t r, int64_t big_r, int eta) {
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kSha;
  ir.num_trials = trials;
  ir.min_iters = r;
  ir.max_iters = big_r;
  ir.reduction_factor = eta;
  return ir;
}

void ExpectSameStages(const ExperimentSpec& a, const ExperimentSpec& b) {
  ASSERT_EQ(a.num_stages(), b.num_stages());
  for (int i = 0; i < a.num_stages(); ++i) {
    EXPECT_EQ(a.stage(i).num_trials, b.stage(i).num_trials) << "stage " << i;
    EXPECT_EQ(a.stage(i).iters_per_trial, b.stage(i).iters_per_trial) << "stage " << i;
  }
}

void ExpectSameConfig(const HyperparameterConfig& a, const HyperparameterConfig& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
  EXPECT_EQ(a.weight_decay, b.weight_decay);
  EXPECT_EQ(a.momentum, b.momentum);
  EXPECT_EQ(a.quality, b.quality);
}

// ---- Lowering shape --------------------------------------------------------

TEST(Compile, ShaLowersToLegacySpec) {
  const CompiledPlan compiled = CompileExperiment(ShaIr(8, 2, 14, 2));
  ASSERT_EQ(compiled.units.size(), 1u);
  EXPECT_EQ(compiled.units[0].name, "sha");
  EXPECT_EQ(compiled.scheduler, SchedulerKind::kSha);
  EXPECT_EQ(compiled.asha, nullptr);
  ExpectSameStages(compiled.units[0].spec, MakeSha(8, 2, 14, 2));
  EXPECT_EQ(compiled.TotalWork(), MakeSha(8, 2, 14, 2).TotalWork());
}

TEST(Compile, ShaConfigStreamMatchesLegacyExecutor) {
  // The executor's historical inline sampling: one Rng seeded
  // `seed ^ 0xC0FFEE`, configurations drawn in trial order. The default
  // ConfigSource must replay it draw for draw or bit-identity is lost.
  const uint64_t seed = 3;
  const CompiledPlan compiled = CompileExperiment(ShaIr(8, 2, 14, 2));
  const std::vector<HyperparameterConfig> materialized =
      compiled.units[0].configs.Materialize(8, seed);

  SearchSpace sampler{SearchSpace::Options{}};
  Rng legacy_rng(seed ^ 0xC0FFEE);
  ASSERT_EQ(materialized.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const HyperparameterConfig expected = sampler.Sample(legacy_rng);
    ExpectSameConfig(materialized[static_cast<size_t>(i)], expected);
  }
}

TEST(Compile, HyperbandBracketsMatchMakeHyperband) {
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kHyperband;
  ir.max_iters = 27;
  ir.reduction_factor = 3;
  const CompiledPlan compiled = CompileExperiment(ir);

  const std::vector<ExperimentSpec> brackets = MakeHyperband(HyperbandParams{27, 3});
  ASSERT_EQ(compiled.units.size(), brackets.size());
  const int s_max = static_cast<int>(brackets.size()) - 1;
  for (size_t i = 0; i < brackets.size(); ++i) {
    EXPECT_EQ(compiled.units[i].name,
              "bracket-" + std::to_string(s_max - static_cast<int>(i)));
    ExpectSameStages(compiled.units[i].spec, brackets[i]);
    EXPECT_EQ(compiled.units[i].configs.kind, ConfigSource::Kind::kRandom);
  }
}

TEST(Compile, AshaLowersEnvelopePlusRungLadder) {
  ExperimentIR ir = ShaIr(27, 2, 18, 3);
  ir.scheduler = SchedulerKind::kAsha;
  const CompiledPlan compiled = CompileExperiment(ir);

  ASSERT_EQ(compiled.units.size(), 1u);
  EXPECT_EQ(compiled.units[0].name, "asha-envelope");
  ExpectSameStages(compiled.units[0].spec, MakeSha(27, 2, 18, 3));
  ASSERT_NE(compiled.asha, nullptr);
  EXPECT_EQ(compiled.asha->rung_budgets, (std::vector<int64_t>{2, 6, 18}));
  EXPECT_EQ(compiled.asha->reduction_factor, 3);
  EXPECT_EQ(compiled.asha->num_trials, 27);
}

TEST(Compile, RandomLowersToSingleStage) {
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kRandom;
  ir.num_trials = 6;
  ir.max_iters = 10;
  const CompiledPlan compiled = CompileExperiment(ir);
  ASSERT_EQ(compiled.units.size(), 1u);
  EXPECT_EQ(compiled.units[0].name, "random");
  ASSERT_EQ(compiled.units[0].spec.num_stages(), 1);
  EXPECT_EQ(compiled.units[0].spec.stage(0).num_trials, 6);
  EXPECT_EQ(compiled.units[0].spec.stage(0).iters_per_trial, 10);
}

TEST(Compile, GridEnumerationIsTheOrderedAxisProduct) {
  SearchSpace::Options space;
  const GridShape shape{3, 2, 2};
  const std::vector<HyperparameterConfig> points = EnumerateGrid(space, shape);
  ASSERT_EQ(points.size(), 12u);
  SearchSpace surface(space);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].id, static_cast<int>(i));  // sequential ids
    EXPECT_EQ(points[i].quality, surface.Quality(points[i]));
  }
  // Learning rate is the outer axis, log-spaced across its bounds.
  EXPECT_DOUBLE_EQ(points.front().learning_rate, std::pow(10.0, space.log10_lr_min));
  EXPECT_DOUBLE_EQ(points.back().learning_rate, std::pow(10.0, space.log10_lr_max));
  // Momentum is the inner axis: adjacent points differ in momentum only.
  EXPECT_EQ(points[0].learning_rate, points[1].learning_rate);
  EXPECT_EQ(points[0].weight_decay, points[1].weight_decay);
  EXPECT_NE(points[0].momentum, points[1].momentum);
}

TEST(Compile, SinglePointGridAxisPinsTheMidpoint) {
  SearchSpace::Options space;
  const std::vector<HyperparameterConfig> points = EnumerateGrid(space, GridShape{1, 1, 1});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].learning_rate,
                   std::pow(10.0, (space.log10_lr_min + space.log10_lr_max) / 2.0));
  EXPECT_DOUBLE_EQ(points[0].momentum, (space.momentum_min + space.momentum_max) / 2.0);
}

TEST(Compile, ExplicitSourceRejectsOverdraw) {
  ConfigSource source;
  source.kind = ConfigSource::Kind::kExplicit;
  source.points = EnumerateGrid(SearchSpace::Options{}, GridShape{1, 2, 1});
  EXPECT_EQ(source.Materialize(2, 0).size(), 2u);
  EXPECT_THROW(source.Materialize(3, 0), std::invalid_argument);
}

TEST(Compile, InvalidIrNeverCompiles) {
  ExperimentIR ir = ShaIr(0, 2, 14, 2);  // num_trials = 0
  EXPECT_THROW(CompileExperiment(ir), std::invalid_argument);
}

// ---- Planning over compiled experiments ------------------------------------

TEST(Compile, PlanCompiledHyperbandAggregatesAcrossBrackets) {
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kHyperband;
  ir.max_iters = 9;
  ir.reduction_factor = 3;
  const CompiledPlan compiled = CompileExperiment(ir);

  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile model = ProfileWorkload(workload).profile;
  const CloudProfile cloud;

  // Brackets run concurrently under one shared deadline, tightest first.
  const std::vector<Seconds> deadlines = {10.0, Minutes(25), Minutes(45), Hours(1), Hours(2)};
  Money tighter_cost;
  for (size_t d = 0; d < deadlines.size(); ++d) {
    SCOPED_TRACE("deadline " + std::to_string(deadlines[d]) + " s");
    const CompiledPlannedExperiment planned =
        PlanCompiledExperiment(compiled, model, cloud, deadlines[d]);

    // Every bracket is planned, even when the experiment cannot make it.
    ASSERT_EQ(planned.units.size(), compiled.units.size());
    Seconds slowest = 0.0;
    Money total_cost;
    bool all_feasible = true;
    for (const PlannedJob& unit : planned.units) {
      all_feasible = all_feasible && unit.feasible;
      slowest = std::max(slowest, unit.estimate.jct_mean);
      total_cost += unit.estimate.cost_mean;
    }
    EXPECT_EQ(planned.feasible, all_feasible);
    if (planned.feasible) {
      EXPECT_LE(planned.EstimatedJct(), deadlines[d]);
    }
    EXPECT_DOUBLE_EQ(planned.EstimatedJct(), slowest);
    EXPECT_EQ(planned.EstimatedCost().micros(), total_cost.micros());
    if (deadlines[d] == 10.0) {
      EXPECT_FALSE(planned.feasible);  // no bracket finishes in 10 s
    } else if (deadlines[d] == Minutes(45)) {
      EXPECT_TRUE(planned.feasible);
    }

    // Loosening the shared deadline never raises the estimated cost.
    if (d > 0) {
      EXPECT_LE(total_cost.micros(), tighter_cost.micros());
    }
    tighter_cost = total_cost;
  }
}

TEST(Compile, PlanCompiledAshaSizesTheWorkerPool) {
  ExperimentIR ir = ShaIr(27, 2, 18, 3);
  ir.scheduler = SchedulerKind::kAsha;
  const CompiledPlan compiled = CompileExperiment(ir);

  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile model = ProfileWorkload(workload).profile;
  const CloudProfile cloud;
  const CompiledPlannedExperiment planned =
      PlanCompiledExperiment(compiled, model, cloud, Hours(2));

  ASSERT_EQ(planned.units.size(), 1u);
  EXPECT_EQ(planned.units[0].planner, "static");
  EXPECT_GE(planned.asha_workers, 1);
  EXPECT_EQ(planned.asha_workers,
            std::max(1, planned.units[0].plan.MaxGpus() / compiled.asha->gpus_per_trial));
}

// ---- Bit-identity: compiled-SHA versus the legacy hard-coded path ----------

TEST(Compile, ShaBitIdentityWithLegacyPath) {
  const uint64_t seed = 3;
  const ExperimentSpec legacy_spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile model = ProfileWorkload(workload).profile;
  const CloudProfile cloud;
  const Seconds deadline = Minutes(45);

  // Legacy: hard-coded SHA spec, planner, executor.
  const PlannedJob legacy_planned =
      PlanGreedy(PlannerInputs{legacy_spec, model, cloud, deadline});
  ExecutorOptions options;
  options.seed = seed;
  const ExecutionReport legacy =
      ExecutePlan(legacy_spec, legacy_planned.plan, workload, cloud, options);

  // Compiled: the same experiment through IR -> compile -> plan -> execute.
  const CompiledPlan compiled = CompileExperiment(ShaIr(8, 2, 14, 2));
  const CompiledPlannedExperiment planned =
      PlanCompiledExperiment(compiled, model, cloud, deadline);
  ASSERT_EQ(planned.units.size(), 1u);
  EXPECT_EQ(planned.units[0].plan, legacy_planned.plan);

  // Same DAG arenas, node for node.
  const ExecutionDag legacy_dag = BuildDag(legacy_spec, legacy_planned.plan, model, cloud);
  const ExecutionDag compiled_dag =
      BuildDag(compiled.units[0].spec, planned.units[0].plan, model, cloud);
  ASSERT_EQ(compiled_dag.size(), legacy_dag.size());
  for (int id = 0; id < legacy_dag.size(); ++id) {
    EXPECT_EQ(compiled_dag.type(id), legacy_dag.type(id)) << "node " << id;
    EXPECT_EQ(compiled_dag.stage(id), legacy_dag.stage(id)) << "node " << id;
    EXPECT_EQ(compiled_dag.gpus(id), legacy_dag.gpus(id)) << "node " << id;
    EXPECT_EQ(compiled_dag.trial(id), legacy_dag.trial(id)) << "node " << id;
    EXPECT_EQ(compiled_dag.new_instances(id), legacy_dag.new_instances(id)) << "node " << id;
    EXPECT_EQ(compiled_dag.latency(id).Mean(), legacy_dag.latency(id).Mean()) << "node " << id;
    ASSERT_EQ(compiled_dag.deps(id).size(), legacy_dag.deps(id).size()) << "node " << id;
    for (size_t d = 0; d < legacy_dag.deps(id).size(); ++d) {
      EXPECT_EQ(compiled_dag.deps(id)[d], legacy_dag.deps(id)[d]) << "node " << id;
    }
  }

  ExecutorOptions base;
  base.seed = seed;
  const CompiledExecutionReport report =
      ExecuteCompiled(compiled, planned, workload, cloud, base);
  ASSERT_EQ(report.units.size(), 1u);
  const ExecutionReport& unit = report.units[0];

  // Bit-equal outcomes: makespan, billing, winner, stage blocks, and the
  // full event trace rendered to CSV.
  EXPECT_EQ(report.jct, legacy.jct);
  EXPECT_EQ(unit.jct, legacy.jct);
  EXPECT_EQ(unit.cost.compute.micros(), legacy.cost.compute.micros());
  EXPECT_EQ(unit.cost.data.micros(), legacy.cost.data.micros());
  EXPECT_EQ(unit.best_accuracy, legacy.best_accuracy);
  ExpectSameConfig(unit.best_config, legacy.best_config);
  EXPECT_EQ(unit.realized_utilization, legacy.realized_utilization);
  ASSERT_EQ(unit.stage_log.size(), legacy.stage_log.size());
  for (size_t i = 0; i < legacy.stage_log.size(); ++i) {
    EXPECT_EQ(unit.stage_log[i].stage, legacy.stage_log[i].stage);
    EXPECT_EQ(unit.stage_log[i].num_trials, legacy.stage_log[i].num_trials);
    EXPECT_EQ(unit.stage_log[i].gpus, legacy.stage_log[i].gpus);
    EXPECT_EQ(unit.stage_log[i].instances, legacy.stage_log[i].instances);
    EXPECT_EQ(unit.stage_log[i].start, legacy.stage_log[i].start);
    EXPECT_EQ(unit.stage_log[i].end, legacy.stage_log[i].end);
  }
  EXPECT_EQ(unit.trace.ToCsv(), legacy.trace.ToCsv());
}

// ---- ASHA oracle: the engine versus the retired side-car's frozen run -----
//
// tests/golden/asha_oracle_seed11.json was written by the side-car ASHA
// executor (a private simulation with the same promotion rule) before it
// was deleted. The engine in time-limited mode must reproduce it field for
// field; regenerate with RB_UPDATE_GOLDEN=1 only for an intentional change.

std::string GoldenNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Every field the side-car reported, doubles at round-trip precision, so a
// JSON-value comparison is an exact one.
std::string RenderAshaOracle(const std::vector<AshaPromotion>& promotions,
                             const std::vector<AshaRungStats>& rungs, int configurations,
                             Seconds jct, double best_accuracy,
                             const HyperparameterConfig& best_config, int64_t best_cum_iters,
                             int64_t compute_cost_micros) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"configurations_sampled\": " << configurations << ",\n";
  os << "  \"jct_s\": " << GoldenNumber(jct) << ",\n";
  os << "  \"best_accuracy\": " << GoldenNumber(best_accuracy) << ",\n";
  os << "  \"best_config\": {\"id\": " << best_config.id
     << ", \"learning_rate\": " << GoldenNumber(best_config.learning_rate)
     << ", \"weight_decay\": " << GoldenNumber(best_config.weight_decay)
     << ", \"momentum\": " << GoldenNumber(best_config.momentum)
     << ", \"quality\": " << GoldenNumber(best_config.quality) << "},\n";
  os << "  \"best_config_cum_iters\": " << best_cum_iters << ",\n";
  os << "  \"compute_cost_micros\": " << compute_cost_micros << ",\n";
  os << "  \"rungs\": [\n";
  for (size_t r = 0; r < rungs.size(); ++r) {
    os << "    {\"completed\": " << rungs[r].completed << ", \"promoted\": " << rungs[r].promoted
       << "}" << (r + 1 < rungs.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"promotions\": [\n";
  for (size_t i = 0; i < promotions.size(); ++i) {
    os << "    {\"rung\": " << promotions[i].rung << ", \"trial\": " << promotions[i].trial << "}"
       << (i + 1 < promotions.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

TEST(Compile, AshaOracleParity) {
  // The side-car's scenario, compiled: rung ladder from the IR, engine in
  // time-limited mode (num_trials = 0).
  ExperimentIR ir = ShaIr(1, 2, 18, 3);
  ir.scheduler = SchedulerKind::kAsha;
  const CompiledPlan compiled = CompileExperiment(ir);
  AshaPlan plan = *compiled.asha;
  plan.num_trials = 0;  // sample to the time limit

  AshaEngineOptions engine_options;
  engine_options.num_workers = 4;
  engine_options.time_limit = Hours(1);
  engine_options.seed = 11;
  AshaEngine engine(plan, ResNet101Cifar10(), CloudProfile{}, engine_options);
  const ExecutionReport report = engine.Run();

  // The ordered promotion log is the scheduler's complete decision trace —
  // two implementations agree iff their logs agree — plus the final-trial
  // selection and outcome.
  CompareAgainstGolden(
      RenderAshaOracle(engine.promotions(), engine.rung_stats(), engine.configurations_sampled(),
                       report.jct, report.best_accuracy, report.best_config,
                       engine.best_config_cum_iters(), report.cost.compute.micros()),
      "asha_oracle_seed11.json");
}

TEST(Compile, AshaBoundedModeDrainsAtTheTrialBudget) {
  ExperimentIR ir = ShaIr(12, 2, 18, 3);
  ir.scheduler = SchedulerKind::kAsha;
  const CompiledPlan compiled = CompileExperiment(ir);

  AshaEngineOptions options;
  options.num_workers = 4;
  options.seed = 5;
  AshaEngine engine(*compiled.asha, ResNet101Cifar10(), CloudProfile{}, options);
  const ExecutionReport report = engine.Run();

  EXPECT_TRUE(engine.finished());
  EXPECT_EQ(engine.configurations_sampled(), 12);  // the sample cap
  ASSERT_FALSE(engine.rung_stats().empty());
  // Every sampled configuration ran its rung-0 budget before the drain.
  EXPECT_EQ(engine.rung_stats()[0].completed, 12);
  EXPECT_GT(report.jct, 0.0);
  EXPECT_GT(report.best_accuracy, 0.0);
  EXPECT_GT(report.cost.Total().dollars(), 0.0);
}

}  // namespace
}  // namespace rubberband
