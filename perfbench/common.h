// Shared plumbing for the repo benchmark: wall clocks, sample quantiles,
// the allocation counter, and the per-workload result every workload
// returns to main.cc for printing.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SinceS(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// Heap allocations made by this process so far (counting operator new in
// main.cc). Exact and thread-safe; identical across same-seed runs of a
// single-threaded phase.
int64_t AllocCount();

// Peak resident set of this process, in MiB.
double PeakRssMb();

// Exact sample quantiles (nearest-rank on the sorted samples).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  double Sum() const {
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / static_cast<double>(size()); }
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// A timed layer row of the traced run: busy seconds spent inside one
// module's public calls, as a share of the traced phase's wall time.
struct LayerRow {
  std::string layer;
  std::string calls;  // which public calls were timed
  double busy_s = 0.0;
};

struct WorkloadResult {
  // Operations sent / succeeded / failed (jobs, plans or requests).
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  // Correctness-check failures; empty means every check passed.
  std::vector<std::string> errors;
  // Known defects of the program (README.md): printed on every run they
  // show in, not check failures; jobs they leave unfinished are in `failed`.
  std::vector<std::string> defects;
  // The end-to-end metrics (--trace 0) by the workload's own names, for the
  // human-readable table, and the contract set printed as JSON.
  std::vector<Metric> named;
  std::vector<Metric> e2e;
  // Per-layer metrics (--trace 1).
  std::vector<Metric> layer;
  std::vector<LayerRow> layer_rows;
  double traced_wall_s = 0.0;  // wall of the phase the layer rows cover
  double trace_overhead = 0.0;  // traced wall / untraced wall - 1
  // Free-form lines printed before the metrics (per-rate tables etc.).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // per-run temp dir inside the checkout (wire WAL)
};

WorkloadResult RunFleet(const RunOptions& options);
WorkloadResult RunFaults(const RunOptions& options);
WorkloadResult RunPlan(const RunOptions& options);
WorkloadResult RunWire(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
