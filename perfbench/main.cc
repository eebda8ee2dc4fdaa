// perfbench: the repo benchmark's binary.
//
//   perfbench --workload <fleet|faults|plan|wire> --seed <n> --seconds <s>
//             --trace <0|1> [--scratch-dir <dir>]
//
// Prints the workload's notes, operation counts and correctness verdict,
// then its metrics by name with units, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check fails, 2 on bad arguments.

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "perfbench/common.h"

// ---- counting global operator new -------------------------------------------

namespace {
std::atomic<int64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace perfbench {

int64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

double PeakRssMb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: Linux carries the pre-exec image's peak into it, so
  // a small run would report the size of the process that launched it.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), status)) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// Every per-layer metric, in BENCHMARK.json order. A workload that does not
// exercise a layer reports 0 for its rows.
const char* const kLayerMetrics[][2] = {
    {"spec.compile_us", "us"},
    {"planner.plan_ms", "ms"},
    {"planner.stage_evaluations", "count"},
    {"planner.plan_evaluations", "count"},
    {"planner.stage_hit_rate", "ratio"},
    {"planner.plan_hit_rate", "ratio"},
    {"planner.ns_per_stage_eval", "ns"},
    {"planner.allocs_per_plan", "count"},
    {"service.submit_us", "us"},
    {"service.run_s", "s"},
    {"service.allocs_per_job", "count"},
    {"service.admit_us", "us"},
    {"service.advance_ms", "ms"},
    {"service.jobs_queued", "count"},
    {"service.jobs_rejected", "count"},
    {"service.queue_wait_s_p50", "s"},
    {"executor.trial_restarts", "count"},
    {"executor.checkpoint_saves", "count"},
    {"executor.replans", "count"},
    {"executor.stragglers_quarantined", "count"},
    {"executor.straggler_false_positive_ratio", "ratio"},
    {"executor.recovery_seconds", "s"},
    {"sim.events_per_job", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_cancelled_ratio", "ratio"},
    {"sim.queue_depth_high_water", "count"},
    {"sim.callback_heap_fallbacks", "count"},
    {"cloud.warm_hit_rate", "ratio"},
    {"cloud.launches_per_job", "count"},
    {"cloud.billed_instance_seconds", "s"},
    {"cloud.instances_preempted", "count"},
    {"cloud.instances_crashed", "count"},
    {"server.decision_ms_p50", "ms"},
    {"server.decision_ms_p99", "ms"},
    {"server.transport_ms_p50", "ms"},
    {"server.generator_lag_ms_p99", "ms"},
    {"server.rejected", "count"},
    {"server.allocs_per_request", "count"},
    {"server.runner.handle_us.submit", "us"},
    {"server.runner.handle_us.cancel", "us"},
    {"server.runner.handle_us.status", "us"},
    {"server.runner.handle_us.report", "us"},
    {"server.runner.handle_us.metrics", "us"},
    {"server.runner.tick_us", "us"},
    {"server.wal.append_us", "us"},
    {"server.wal.sync_us", "us"},
    {"server.wal.appends_per_write", "count"},
    {"wall_share.spec", "ratio"},
    {"wall_share.planner", "ratio"},
    {"wall_share.service", "ratio"},
    {"wall_share.server", "ratio"},
    {"wall_share.unexplained", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fleet|faults|plan|wire> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch-dir <dir>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("flags take the form --name value");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag needs a value");
  const std::string workload = args.count("workload") ? args["workload"] : "";
  RunOptions options;
  try {
    options.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    options.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    options.trace = (args.count("trace") ? args["trace"] : "0") == "1";
  } catch (const std::exception&) {
    return Usage("--seed and --seconds must be numbers");
  }
  options.scratch_dir = args.count("scratch-dir") ? args["scratch-dir"] : ".";

  WorkloadResult result;
  if (workload == "fleet") {
    result = RunFleet(options);
  } else if (workload == "faults") {
    result = RunFaults(options);
  } else if (workload == "plan") {
    result = RunPlan(options);
  } else if (workload == "wire") {
    result = RunWire(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  std::printf("== perfbench workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("operations: sent %lld, succeeded %lld, failed %lld\n",
              static_cast<long long>(result.attempted), static_cast<long long>(result.succeeded),
              static_cast<long long>(result.failed));
  for (const std::string& defect : result.defects) {
    std::printf("KNOWN DEFECT: %s\n", defect.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  if (result.errors.empty()) std::printf("correctness checks: all passed\n");

  std::map<std::string, std::pair<double, std::string>> json;
  if (!options.trace) {
    std::printf("end-to-end metrics (%s names):\n", workload.c_str());
    for (const Metric& m : result.named) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : result.e2e) json[m.name] = {m.value, m.unit};
  } else {
    std::printf("layer wall-time shares of the traced phase (%.3f s):\n", result.traced_wall_s);
    std::map<std::string, double> share;
    double explained = 0.0;
    for (const LayerRow& row : result.layer_rows) {
      const double s = result.traced_wall_s > 0 ? row.busy_s / result.traced_wall_s : 0.0;
      std::printf("  %-10s %-26s %10.4f s %7.2f%%\n", row.layer.c_str(), row.calls.c_str(),
                  row.busy_s, 100.0 * s);
      share[row.layer] += s;
      explained += s;
    }
    std::printf("  %-10s %-26s %10s   %7.2f%%\n", "(other)", "unexplained remainder", "",
                100.0 * (1.0 - explained));
    std::printf("tracing overhead: %+.2f%% (traced vs untraced wall of the same phase)\n",
                100.0 * result.trace_overhead);
    std::map<std::string, Metric> by_name;
    for (const Metric& m : result.layer) by_name[m.name] = m;
    for (const char* layer : {"spec", "planner", "service", "server"}) {
      by_name["wall_share." + std::string(layer)] = {"", share[layer], "ratio"};
    }
    by_name["wall_share.unexplained"] = {"", 1.0 - explained, "ratio"};
    by_name["trace.overhead_ratio"] = {"", result.trace_overhead, "ratio"};
    std::printf("per-layer metrics (n/a = not exercised by this workload, reported as 0):\n");
    for (const auto& entry : kLayerMetrics) {
      const auto it = by_name.find(entry[0]);
      const bool has = it != by_name.end();
      const double value = has ? it->second.value : 0.0;
      if (has) {
        std::printf("  %-40s %14.6g %s\n", entry[0], value, entry[1]);
      } else {
        std::printf("  %-40s %14s %s\n", entry[0], "n/a", entry[1]);
      }
      json[entry[0]] = {value, entry[1]};
    }
  }

  std::string line = "{\"correct\": ";
  line += result.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : json) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(value.first) + ", \"unit\": \"" +
            value.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
