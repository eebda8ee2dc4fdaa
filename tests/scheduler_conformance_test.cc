// Cross-scheduler conformance grid: every scheduler kind the plan compiler
// lowers (sha, hyperband, asha, random, grid) runs the full compile ->
// plan -> execute pipeline under the same three contracts the base
// conformance suite enforces case by case:
//   1. The planner's estimate brackets the executed outcome.
//   2. Stage-total timeline spans tile [0, JCT] for every unit.
//   3. Observability is inert: observe off reproduces the run bit-for-bit.
// A checked-in golden (compiled_plans.json) pins the compiled structure,
// the planned allocations, and the executed outcome for all five kinds;
// regenerate with RB_UPDATE_GOLDEN=1 after an intentional change.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/rubberband.h"
#include "tests/golden_file.h"

namespace rubberband {
namespace {

constexpr Seconds Minutes(double m) { return m * 60.0; }

ExperimentIR IrFor(SchedulerKind kind) {
  ExperimentIR ir;
  ir.scheduler = kind;
  switch (kind) {
    case SchedulerKind::kSha:
      ir.num_trials = 8;
      ir.min_iters = 2;
      ir.max_iters = 14;
      ir.reduction_factor = 2;
      break;
    case SchedulerKind::kHyperband:
      ir.max_iters = 9;
      ir.reduction_factor = 3;
      break;
    case SchedulerKind::kAsha:
      ir.num_trials = 9;
      ir.min_iters = 2;
      ir.max_iters = 18;
      ir.reduction_factor = 3;
      break;
    case SchedulerKind::kRandom:
      ir.num_trials = 6;
      ir.max_iters = 10;
      break;
    case SchedulerKind::kGrid:
      ir.max_iters = 8;
      ir.grid = GridShape{2, 2, 2};
      break;
  }
  return ir;
}

CloudProfile SchedulerCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

struct SchedulerRun {
  CompiledPlan compiled;
  CompiledPlannedExperiment planned;
  CompiledExecutionReport report;
};

SchedulerRun RunScheduler(SchedulerKind kind, bool observe) {
  SchedulerRun run;
  run.compiled = CompileExperiment(IrFor(kind));
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile model = ProfileWorkload(workload).profile;
  const CloudProfile cloud = SchedulerCloud();
  run.planned = PlanCompiledExperiment(run.compiled, model, cloud, Minutes(45));
  ExecutorOptions options;
  options.seed = 7;
  options.observe = observe;
  run.report = ExecuteCompiled(run.compiled, run.planned, workload, cloud, options);
  return run;
}

class SchedulerConformance : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerConformance, EstimateBracketsExecutionAndSpansTile) {
  const SchedulerKind kind = GetParam();
  const SchedulerRun run = RunScheduler(kind, /*observe=*/true);

  ASSERT_EQ(run.report.units.size(), run.compiled.units.size());
  ASSERT_GT(run.report.jct, 0.0);
  ASSERT_GT(run.report.best_accuracy, 0.0);
  EXPECT_TRUE(run.planned.feasible);

  // --- 1. The estimate brackets the executed outcome. An ASHA envelope is
  // a staged approximation of an asynchronous run, so its bracket is
  // looser than the staged schedulers' (which execute their plan exactly).
  const bool staged = run.compiled.asha == nullptr;
  const double lo = staged ? 0.5 : 0.2;
  const double hi = staged ? 1.5 : 4.0;
  EXPECT_GE(run.report.jct, run.planned.EstimatedJct() * lo);
  EXPECT_LE(run.report.jct, run.planned.EstimatedJct() * hi);
  EXPECT_GE(run.report.cost.Total().dollars(), run.planned.EstimatedCost().dollars() * lo);
  EXPECT_LE(run.report.cost.Total().dollars(), run.planned.EstimatedCost().dollars() * hi);

  // --- 2. Per unit: stage-total spans tile [0, unit JCT] without gaps.
  // Staged units emit one span per stage; an ASHA unit emits one total.
  for (size_t i = 0; i < run.report.units.size(); ++i) {
    const ExecutionReport& unit = run.report.units[i];
    const std::vector<TimelineSpan> spans = unit.timeline.OfName("stage-total");
    if (staged) {
      ASSERT_EQ(static_cast<int>(spans.size()), run.planned.units[i].plan.num_stages())
          << run.compiled.units[i].name;
    } else {
      ASSERT_EQ(spans.size(), 1u) << run.compiled.units[i].name;
    }
    Seconds previous_end = 0.0;
    for (const TimelineSpan& span : spans) {
      EXPECT_DOUBLE_EQ(span.start, previous_end) << run.compiled.units[i].name;
      previous_end = span.end;
    }
    EXPECT_DOUBLE_EQ(previous_end, unit.jct) << run.compiled.units[i].name;
  }

  // The experiment aggregates its units: slowest JCT, summed cost.
  Seconds slowest = 0.0;
  int64_t summed_micros = 0;
  for (const ExecutionReport& unit : run.report.units) {
    slowest = std::max(slowest, unit.jct);
    summed_micros += unit.cost.Total().micros();
  }
  EXPECT_DOUBLE_EQ(run.report.jct, slowest);
  EXPECT_EQ(run.report.cost.Total().micros(), summed_micros);

  // --- 3. Observability is inert: observe off reproduces every unit. ---
  const SchedulerRun baseline = RunScheduler(kind, /*observe=*/false);
  ASSERT_EQ(baseline.report.units.size(), run.report.units.size());
  EXPECT_DOUBLE_EQ(baseline.report.jct, run.report.jct);
  EXPECT_EQ(baseline.report.cost.Total().micros(), run.report.cost.Total().micros());
  EXPECT_DOUBLE_EQ(baseline.report.best_accuracy, run.report.best_accuracy);
  EXPECT_EQ(baseline.report.best_config.id, run.report.best_config.id);
  for (size_t i = 0; i < run.report.units.size(); ++i) {
    EXPECT_EQ(baseline.report.units[i].trace.ToCsv(), run.report.units[i].trace.ToCsv())
        << run.compiled.units[i].name;
    EXPECT_TRUE(baseline.report.units[i].timeline.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SchedulerConformance,
                         ::testing::Values(SchedulerKind::kSha, SchedulerKind::kHyperband,
                                           SchedulerKind::kAsha, SchedulerKind::kRandom,
                                           SchedulerKind::kGrid),
                         [](const ::testing::TestParamInfo<SchedulerKind>& param_info) {
                           return ToString(param_info.param);
                         });

// ---- Golden: the compiled structure and outcome of all five kinds ----------

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

std::string RenderSchedulerGolden() {
  std::ostringstream os;
  os << "{\n  \"schedulers\": {\n";
  const std::vector<SchedulerKind> kinds = {SchedulerKind::kSha, SchedulerKind::kHyperband,
                                            SchedulerKind::kAsha, SchedulerKind::kRandom,
                                            SchedulerKind::kGrid};
  for (size_t k = 0; k < kinds.size(); ++k) {
    const SchedulerRun run = RunScheduler(kinds[k], /*observe=*/false);
    os << "    \"" << ToString(kinds[k]) << "\": {\n";
    os << "      \"units\": [\n";
    for (size_t i = 0; i < run.compiled.units.size(); ++i) {
      const CompiledUnit& unit = run.compiled.units[i];
      os << "        {\"name\": \"" << unit.name << "\", \"spec\": \""
         << unit.spec.ToString() << "\", \"configs\": \""
         << (unit.configs.kind == ConfigSource::Kind::kRandom ? "random" : "explicit")
         << "\", \"plan\": \"" << run.planned.units[i].plan.ToString()
         << "\", \"jct_s\": " << FormatDouble(run.report.units[i].jct)
         << ", \"cost_micros\": " << run.report.units[i].cost.Total().micros() << "}"
         << (i + 1 < run.compiled.units.size() ? "," : "") << "\n";
    }
    os << "      ],\n";
    os << "      \"asha_workers\": " << run.planned.asha_workers << ",\n";
    os << "      \"estimated_jct_s\": " << FormatDouble(run.planned.EstimatedJct()) << ",\n";
    os << "      \"executed_jct_s\": " << FormatDouble(run.report.jct) << ",\n";
    os << "      \"cost_micros\": " << run.report.cost.Total().micros() << ",\n";
    os << "      \"best_config\": " << run.report.best_config.id << ",\n";
    os << "      \"best_accuracy\": " << FormatDouble(run.report.best_accuracy) << "\n";
    os << "    }" << (k + 1 < kinds.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return os.str();
}

TEST(SchedulerGolden, CompiledPlansMatchCheckedInArtifact) {
  CompareAgainstGolden(RenderSchedulerGolden(), "compiled_plans.json");
}

}  // namespace
}  // namespace rubberband
