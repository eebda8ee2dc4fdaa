// Hyperband as a RubberBand multi-job (paper Figure 6: "a collection of
// [specifications] can specify Hyperband-based methods as a multi-job").
//
// The experiment IR names Hyperband's outer loop; the plan compiler lowers
// it to one SHA bracket per aggressiveness level. Every bracket gets its own
// elastic plan under one shared deadline, the brackets run concurrently as
// sub-DAGs of one job, and the report names the best configuration across
// all of them — the same path as `rubberband execute --scheduler=hyperband`.

#include <cstdio>

#include "src/rubberband.h"

int main() {
  using namespace rubberband;

  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kHyperband;
  ir.max_iters = 27;
  ir.reduction_factor = 3;
  const CompiledPlan compiled = CompileExperiment(ir);

  const WorkloadSpec workload = ResNet50(Cifar10(), 512);
  const ModelProfile profile = ProfileWorkload(workload).profile;

  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);

  const Seconds deadline = Minutes(2);
  const CompiledPlannedExperiment planned =
      PlanCompiledExperiment(compiled, profile, cloud, deadline);
  const CompiledExecutionReport report = ExecuteCompiled(compiled, planned, workload, cloud);

  std::printf("%-10s %-20s %8s %8s %6s  %s\n", "bracket", "plan", "cost", "JCT", "acc", "spec");
  for (size_t i = 0; i < compiled.units.size(); ++i) {
    const ExecutionReport& unit = report.units[i];
    std::printf("%-10s %-20s %8s %8s %5.1f%%  %s\n", compiled.units[i].name.c_str(),
                planned.units[i].plan.ToString().c_str(), unit.cost.Total().ToString().c_str(),
                FormatDuration(unit.jct).c_str(), 100.0 * unit.best_accuracy,
                compiled.units[i].spec.ToString().c_str());
  }

  std::printf("\nHyperband (brackets concurrent, deadline %s): planned %s in %s%s\n",
              FormatDuration(deadline).c_str(), planned.EstimatedCost().ToString().c_str(),
              FormatDuration(planned.EstimatedJct()).c_str(),
              planned.feasible ? "" : " [infeasible]");
  std::printf("executed: cost %s, wall time %s\n", report.cost.Total().ToString().c_str(),
              FormatDuration(report.jct).c_str());
  std::printf("best configuration overall: %s (%.1f%%)\n", report.best_config.ToString().c_str(),
              100.0 * report.best_accuracy);
  return 0;
}
