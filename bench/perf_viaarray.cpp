// Level-1 network-solver bench: the incremental shared-base + rank-1
// downdate solve (DESIGN.md §5.9). Two measurements:
//
//   1. google-benchmark microbenchmarks of the per-failure-step cost
//      (failVia + effectiveResistance) across array sizes, N = 2n²+1
//      unknowns;
//   2. manual timings of full failure sweeps (with the downdate and
//      refactor counts) and of a complete level-1 characterization Monte
//      Carlo.
//
// Emits BENCH_viaarray.json. Timing never fails CI; the agreement of the
// downdated solves with an exact from-scratch LU resolve is a ctest gate
// (ViaArrayNetworkIncremental.MatchesExactOverRandomFailureSequences).
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "viaarray/characterize.h"
#include "viaarray/network.h"

using namespace viaduct;

namespace {

ViaArrayNetworkConfig netConfig(int n) {
  ViaArrayNetworkConfig cfg;
  cfg.n = n;
  return cfg;
}

/// Deterministic full failure order (the bench must not depend on clock or
/// platform RNG state).
std::vector<int> failureOrder(int count, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (int i = count - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

/// One full failure sweep (all but one via, resistance queried per step).
double sweep(ViaArrayNetwork& net, const std::vector<int>& order) {
  net.reset();
  double last = 0.0;
  for (std::size_t step = 0; step + 1 < order.size(); ++step) {
    net.failVia(order[step]);
    last = net.effectiveResistance();
  }
  return last;
}

void BM_FailStepIncremental(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ViaArrayNetwork net(netConfig(n));
  const auto order = failureOrder(net.viaCount(), 7);
  const std::size_t steps = order.size() - 1;
  std::size_t next = steps;  // force a reset on first iteration
  for (auto _ : state) {
    if (next >= steps) {
      state.PauseTiming();
      net.reset();
      next = 0;
      state.ResumeTiming();
    }
    net.failVia(order[next++]);
    benchmark::DoNotOptimize(net.effectiveResistance());
  }
  state.SetLabel("N=" + std::to_string(2 * n * n + 1));
}
BENCHMARK(BM_FailStepIncremental)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Unit(benchmark::kMicrosecond);

template <typename Fn>
double bestSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best;
}

std::uint64_t counterValue(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

struct SweepResult {
  double secondsIncremental = 0.0;
  std::uint64_t downdates = 0;
  std::uint64_t refactors = 0;
};

SweepResult benchSweep(int n, int repeats) {
  SweepResult result;
  const auto order = failureOrder(n * n, 7);
  ViaArrayNetwork incremental(netConfig(n));

  const auto d0 = counterValue("viaarray.downdates");
  const auto f0 = counterValue("viaarray.refactors");
  sweep(incremental, order);
  result.downdates = counterValue("viaarray.downdates") - d0;
  result.refactors = counterValue("viaarray.refactors") - f0;
  result.secondsIncremental =
      bestSeconds(repeats, [&] { sweep(incremental, order); });
  return result;
}

/// Full level-1 Monte Carlo on a coarse-but-real spec; FEA construction is
/// excluded from the timing.
double benchCharacterization(int n, int trials) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = n;
  spec.resolutionXy = 0.125e-6;  // fine enough for the n=5 via pitch
  spec.margin = 1.0e-6;
  spec.trials = trials;
  spec.seed = 42;
  spec.parallelism.threads = 1;  // measure the solver, not the pool
  ViaArrayCharacterizer characterizer(spec);
  return bestSeconds(1, [&] { characterizer.traces(); });
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  setLogLevel(LogLevel::kWarn);
  benchmark::RunSpecifiedBenchmarks();

  const std::vector<int> sizes = {3, 5, 7, 9};
  const int repeats = 3;
  std::cout << "=== perf_viaarray: incremental level-1 network solve ===\n";
  std::vector<SweepResult> sweeps;
  for (const int n : sizes) {
    const SweepResult r = benchSweep(n, repeats);
    sweeps.push_back(r);
    std::cout << "  n=" << n << " full sweep: " << r.secondsIncremental
              << " s (" << r.downdates << " downdates, " << r.refactors
              << " refactors)\n";
  }

  const int charN = 5;
  const int charTrials = 40;
  const double charSeconds = benchCharacterization(charN, charTrials);
  std::cout << "  level-1 characterization (n=" << charN << ", "
            << charTrials << " trials): " << charSeconds << " s\n";

  std::ofstream os("BENCH_viaarray.json");
  if (!os) {
    std::cerr << "cannot create BENCH_viaarray.json\n";
    return 1;
  }
  os << "{\n  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& r = sweeps[i];
    os << "    {\"n\": " << sizes[i]
       << ", \"seconds_incremental\": " << r.secondsIncremental
       << ", \"downdates\": " << r.downdates
       << ", \"refactors\": " << r.refactors << "}"
       << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"characterization\": {\"n\": " << charN
     << ", \"trials\": " << charTrials
     << ", \"seconds_incremental\": " << charSeconds << "}\n}\n";
  std::cout << "wrote BENCH_viaarray.json\n";
  return 0;
}
