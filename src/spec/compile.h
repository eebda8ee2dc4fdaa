// Plan compiler: lowers a validated ExperimentIR into the staged structures
// the scheduler-agnostic back end consumes.
//
// A CompiledPlan is one or more CompiledUnits — each a (ExperimentSpec,
// ConfigSource) pair the existing dag/builder + planner + executor stack
// handles unchanged — plus, for ASHA, an AshaPlan describing asynchronous
// rung promotion (executed by AshaEngine on the DES kernel instead of a
// staged DAG). Lowerings:
//   sha        — one unit, MakeSha(n, r, R, eta), random sampling
//   hyperband  — one unit per bracket (MakeHyperband), all sharing one
//                deadline; unit names "bracket-<s>"
//   asha       — one *envelope* unit (the SHA the promotion rule converges
//                to, used for admission planning and cluster sizing) plus
//                the AshaPlan the engine executes
//   random     — one single-stage unit: n trials x R iterations
//   grid       — one single-stage unit over the materialized axis product
//
// Compiled-SHA is bit-identical to the legacy hard-coded path: the unit's
// spec equals MakeSha's and the default ConfigSource replays the executor's
// historical `seed ^ 0xC0FFEE` sampling stream draw for draw.

#ifndef SRC_SPEC_COMPILE_H_
#define SRC_SPEC_COMPILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/spec/experiment_spec.h"
#include "src/spec/ir.h"
#include "src/trainer/search_space.h"

namespace rubberband {

// Where an executor's initial trial configurations come from. The default
// (kRandom over the default bounds) is exactly the sampling the executor
// always did inline, so legacy call sites stay bit-identical.
struct ConfigSource {
  enum class Kind { kRandom, kExplicit };
  Kind kind = Kind::kRandom;
  // Sampling bounds (kRandom) and the quality response surface (both).
  SearchSpace::Options space;
  // kExplicit: precomputed configurations (grid points), consumed in order.
  std::vector<HyperparameterConfig> points;

  // Returns `count` trial configurations, ids 0..count-1 in order. kRandom
  // draws from one Rng seeded `seed ^ 0xC0FFEE` — the executor's historical
  // stream. kExplicit returns the precomputed points and throws
  // std::invalid_argument if fewer than `count` exist.
  std::vector<HyperparameterConfig> Materialize(int count, uint64_t seed) const;
};

// One schedulable unit: a staged spec the DAG back end can build, plus its
// configuration source.
struct CompiledUnit {
  std::string name;
  ExperimentSpec spec;
  ConfigSource configs;
};

// Asynchronous-promotion execution parameters (kAsha): rung r trains a
// trial to rung_budgets[r] cumulative iterations; a result in the top
// 1/reduction_factor of its rung is promotable. Executed by AshaEngine.
struct AshaPlan {
  std::vector<int64_t> rung_budgets;  // cumulative, rung 0 .. top
  int reduction_factor = 3;
  int gpus_per_trial = 1;
  // Sample cap: the engine stops sampling new configurations after this
  // many. 0 = unbounded (the time-limited baseline mode of `rubberband asha`).
  int num_trials = 0;
  SearchSpace::Options space;
};

struct CompiledPlan {
  SchedulerKind scheduler = SchedulerKind::kSha;
  std::vector<CompiledUnit> units;  // >= 1; hyperband: one per bracket
  // Set iff scheduler == kAsha; units[0] is then the planning envelope.
  std::shared_ptr<const AshaPlan> asha;

  int64_t TotalWork() const;
};

// Lowers `ir` (validating it first; invalid IR never compiles).
CompiledPlan CompileExperiment(const ExperimentIR& ir);

// Grid enumeration, exposed for tests: learning rate is the outer axis,
// weight decay the middle, momentum the inner; lr/wd points are log-spaced,
// momentum linear; a single-point axis pins its midpoint. Ids are
// sequential and quality comes from the space's response surface.
std::vector<HyperparameterConfig> EnumerateGrid(const SearchSpace::Options& space,
                                                const GridShape& grid);

}  // namespace rubberband

#endif  // SRC_SPEC_COMPILE_H_
