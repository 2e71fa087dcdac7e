// Incremental-update ablation (google-benchmark): cost of one
// "fail a via array, re-evaluate the IR drop" step inside the grid Monte
// Carlo, comparing the Woodbury fast path (this library's default) against
// numeric refactorization and a from-scratch factorization. This is the
// design choice that makes Algorithm 1's level 2 tractable at
// Ntrials = 500.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "grid/power_grid.h"
#include "numerics/woodbury.h"
#include "spice/generator.h"

namespace viaduct {
namespace {

Netlist makeGrid(int stripes) {
  GridGeneratorConfig cfg;
  cfg.stripesX = stripes;
  cfg.stripesY = stripes;
  cfg.seed = 23;
  Netlist n = generatePowerGrid(cfg);
  tuneNominalIrDrop(n, 0.06);
  return n;
}

void BM_WoodburyFailureStep(benchmark::State& state) {
  const Netlist netlist = makeGrid(static_cast<int>(state.range(0)));
  const PowerGridModel model(netlist);
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    PowerGridModel::Session session(model);
    const int victim =
        static_cast<int>(rng.uniformInt(model.viaArrays().size()));
    state.ResumeTiming();
    session.openArray(victim);
    const auto sol = session.solve();
    benchmark::DoNotOptimize(sol.worstIrDropFraction);
  }
  state.SetLabel(std::to_string(model.unknownCount()) + " nodes, " +
                 std::to_string(model.viaArrays().size()) + " arrays");
}
BENCHMARK(BM_WoodburyFailureStep)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_WoodburyTenFailures(benchmark::State& state) {
  // A realistic trial prefix: ten sequential opens with a solve after each.
  const Netlist netlist = makeGrid(static_cast<int>(state.range(0)));
  const PowerGridModel model(netlist);
  Rng rng(2);
  for (auto _ : state) {
    PowerGridModel::Session session(model);
    for (int k = 0; k < 10; ++k) {
      int victim;
      do {
        victim = static_cast<int>(rng.uniformInt(model.viaArrays().size()));
      } while (session.arrayOpen(victim));
      session.openArray(victim);
      const auto sol = session.solve();
      benchmark::DoNotOptimize(sol.worstIrDropFraction);
    }
  }
  state.SetLabel(std::to_string(model.unknownCount()) + " nodes");
}
BENCHMARK(BM_WoodburyTenFailures)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_FullRefactorFailureStep(benchmark::State& state) {
  // No-reuse baseline: each failure step pays a from-scratch factorization
  // (fresh Session) plus the update and solve.
  const Netlist netlist = makeGrid(static_cast<int>(state.range(0)));
  const PowerGridModel model(netlist);
  Rng rng(3);
  for (auto _ : state) {
    const int victim =
        static_cast<int>(rng.uniformInt(model.viaArrays().size()));
    PowerGridModel::Session fresh(model);  // timed: factorization
    fresh.openArray(victim);
    benchmark::DoNotOptimize(fresh.solve().worstIrDropFraction);
  }
  state.SetLabel(std::to_string(model.unknownCount()) + " nodes");
}
BENCHMARK(BM_FullRefactorFailureStep)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_WoodburyRebaseThresholdSweep(benchmark::State& state) {
  // How the rebase threshold trades per-step cost: 20 sequential failures
  // at various thresholds.
  const Netlist netlist = makeGrid(20);
  const PowerGridModel model(netlist);
  const int threshold = static_cast<int>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    // Session's solver options are internal; emulate with WoodburySolver on
    // a surrogate mesh of the same size.
    TripletMatrix t(model.unknownCount(), model.unknownCount());
    const Index side = 20;
    for (Index i = 0; i < model.unknownCount(); ++i) {
      t.add(i, i, 0.05);
      if (i + 1 < model.unknownCount() && (i + 1) % side != 0)
        t.stampConductance(i, i + 1, 1.0);
      if (i + side < model.unknownCount()) t.stampConductance(i, i + side, 1.0);
    }
    WoodburySolver::Options opts;
    opts.rebaseThreshold = threshold;
    WoodburySolver solver(
        CsrMatrix::fromTriplets(t),
        std::vector<double>(static_cast<std::size_t>(model.unknownCount()), 1e-4),
        opts);
    state.ResumeTiming();
    for (int k = 0; k < 20; ++k) {
      const Index i = static_cast<Index>(rng.uniformInt(
          static_cast<std::uint64_t>(model.unknownCount() - side - 1)));
      const Index j = ((i + 1) % side != 0) ? i + 1 : i + side;
      const double g = -solver.currentMatrix().at(i, j);
      solver.updateBranch(i, j, -0.5 * g);
      benchmark::DoNotOptimize(solver.solve());
    }
  }
  state.SetLabel("threshold " + std::to_string(threshold));
}
BENCHMARK(BM_WoodburyRebaseThresholdSweep)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace viaduct

BENCHMARK_MAIN();
