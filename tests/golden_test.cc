// Golden-artifact tests: a fixed-seed run's Chrome trace JSON and metrics
// JSON are checked in under tests/golden/ and compared schema-aware — the
// JsonValue comparator ignores member order but not values, so formatting
// churn cannot break the test while a changed duration or counter will.
//
// To regenerate after an intentional behavior change:
//   RB_UPDATE_GOLDEN=1 ./rubberband_conformance_tests --gtest_filter='Golden.*'

#include <gtest/gtest.h>

#include <string>

#include "src/obs/json.h"
#include "src/rubberband.h"
#include "tests/golden_file.h"

namespace rubberband {
namespace {

// The one fixed-seed scenario both goldens are generated from. Everything
// here is deterministic: seeded planner, seeded executor, simulated clock.
ExecutionReport GoldenRun() {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  ExecutorOptions options;
  options.seed = 3;
  options.observe = true;
  return ExecutePlan(spec, AllocationPlan({8, 8, 8}), workload, cloud, options);
}

TEST(Golden, ChromeTraceMatchesCheckedInArtifact) {
  CompareAgainstGolden(ChromeTraceFromReport(GoldenRun()), "chrome_trace_seed3.json");
}

TEST(Golden, MetricsSnapshotMatchesCheckedInArtifact) {
  CompareAgainstGolden(GoldenRun().metrics.ToJson(), "metrics_seed3.json");
}

TEST(Golden, ArtifactsAreCrossConsistent) {
  // The two checked-in artifacts describe the same run, so they must agree
  // with each other: the Chrome trace's stage-total spans sum to the JCT
  // gauge in the metrics snapshot (microseconds vs seconds).
  const std::string chrome = ReadFileOrEmpty(GoldenPath("chrome_trace_seed3.json"));
  const std::string metrics = ReadFileOrEmpty(GoldenPath("metrics_seed3.json"));
  if (chrome.empty() || metrics.empty()) {
    GTEST_SKIP() << "goldens not generated yet";
  }
  const JsonValue trace_doc = JsonValue::Parse(chrome);
  const JsonValue metrics_doc = JsonValue::Parse(metrics);

  double stage_total_us = 0.0;
  for (const JsonValue& event : trace_doc.at("traceEvents").array()) {
    if (event.at("name").string() == "stage-total") {
      stage_total_us += event.at("dur").number();
    }
  }
  const double jct_seconds = metrics_doc.at("gauges").at("executor.jct_seconds").number();
  EXPECT_NEAR(stage_total_us / 1e6, jct_seconds, 1e-3);
  EXPECT_GT(jct_seconds, 0.0);
}

}  // namespace
}  // namespace rubberband
