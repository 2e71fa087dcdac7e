// PG-scale sweep of the level-2 grid engine (BENCH_grid_scale.json).
//
// For synthetic two-layer meshes from ~1e4 to ~2e6 nodes this measures, per
// size:
//   - the one-time base factorization (supernodal + AMD),
//   - the per-failure cost (Woodbury update + re-solve) inside a Session,
//     measured on a cold column memo (every opened site's column is
//     solved, none is shared),
//   - end-to-end grid Monte Carlo throughput on the shared base, with the
//     bytes the base's column memo ends on and its hit ratio over the run
//     (memo hits / all Woodbury columns; -1 with obs disabled).
// It also checks the model's healthy-grid voltages against an up-looking +
// RCM SparseCholesky oracle solve (tests/support/cholesky.h) at the sizes
// where the banded factor is still tractable, verifies the Monte Carlo is
// bit-identical across thread counts, and that the memo never exceeds its
// byte budget.
//
// --smoke runs the smallest mesh only with reduced trial counts and asserts
// the parity, determinism and EM-mode gates; tier-1 runs it on every
// commit.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "grid/grid_mc.h"
#include "grid/mesh.h"
#include "grid/power_grid.h"
#include "grid/wire_mortality.h"
#include "numerics/supernodal_cholesky.h"
#include "numerics/woodbury.h"
#include "obs/obs.h"
#include "support/cholesky.h"

using namespace viaduct;

namespace {

struct Point {
  Index targetNodes = 0;
  Index nodes = 0;
  std::size_t viaArrays = 0;
  std::size_t factorNnz = 0;
  double fillRatio = 0.0;
  double factorSeconds = 0.0;
  double perFailureSeconds = 0.0;
  int mcTrials = 0;
  double mcSecondsPerTrial = 0.0;
  std::size_t memoBytes = 0;   // column memo after every run at this size
  double memoHitRatio = -1.0;  // over the timed Monte Carlo; -1: obs off
  double parityMaxRelDiff = -1.0;  // -1: not measured at this size
  bool deterministicAcrossThreads = true;
  // EM-mode axis (DESIGN.md §5.14): the wire-EM audit is diagnostic-only,
  // so TTF samples must be bit-identical across steady/transient/hybrid
  // (and audit-off), and hybrid must agree with transient on every verdict.
  int emTrials = 0;  // 0: axis not run at this size
  bool emSamplesIdentical = true;
  bool emVerdictIdentical = true;
  int emMortalConfigs = 0;
};

double seconds(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return dt.count();
}

GridMcOptions mcOptions(int trials, int maxFailures) {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal(std::log(1.0e8), 0.5);
  opts.trials = trials;
  opts.seed = 2027;
  opts.maxFailuresPerTrial = maxFailures;
  return opts;
}

Point measure(Index targetNodes, int mcTrials, int maxFailures, bool parity,
              bool threadSweep, int emTrials) {
  Point p;
  p.targetNodes = targetNodes;

  MeshSpec spec = meshSpecForNodeTarget(targetNodes);
  Netlist netlist = buildMeshNetlist(spec);

  // Healthy worst IR drop at 8% of Vdd: below the 10% failure criterion
  // with headroom that a handful of via-array opens can erase.
  tuneNominalIrDrop(netlist, 0.08);
  const PowerGridModel model(netlist);

  // The base factorization, timed on a fresh factor identical to the
  // model's (same matrix, ordering and serial numeric sweep).
  auto t0 = std::chrono::steady_clock::now();
  { const SupernodalCholesky timed(model.conductanceMatrix()); }
  p.factorSeconds = seconds(t0);
  p.nodes = model.unknownCount();
  p.viaArrays = model.viaArrays().size();
  p.factorNnz = model.baseFactor()->factorNonZeroCount();
  p.fillRatio = static_cast<double>(p.factorNnz) /
                (static_cast<double>(model.conductanceMatrix().nonZeroCount() +
                                     model.conductanceMatrix().rows()) /
                 2.0);

  // Healthy-solve parity against an up-looking + RCM oracle solve.
  if (parity) {
    const auto a = model.solveNominal();
    VIADUCT_CHECK(a.solverOk);
    const std::vector<double> b =
        SparseCholesky(model.conductanceMatrix(), OrderingChoice::kRcm)
            .solve(model.rhsVector());
    double maxRel = 0.0;
    for (std::size_t i = 0; i < a.voltages.size(); ++i) {
      const double scale =
          std::max({std::abs(a.voltages[i]), std::abs(b[i]), 1e-12});
      maxRel = std::max(maxRel, std::abs(a.voltages[i] - b[i]) / scale);
    }
    p.parityMaxRelDiff = maxRel;
  }

  // Per-failure update cost: open a spread of arrays in one session. The
  // model is fresh, so the column memo is cold and every opened site costs
  // its factored solve, as the first failure of a site does in a trial.
  {
    PowerGridModel::Session session(model);
    const int failures =
        std::min<int>(8, static_cast<int>(model.viaArrays().size()));
    t0 = std::chrono::steady_clock::now();
    for (int f = 0; f < failures; ++f) {
      session.openArray(f * static_cast<int>(model.viaArrays().size()) /
                        failures);
      const auto sol = session.solve();
      VIADUCT_CHECK(sol.solverOk);
    }
    p.perFailureSeconds = seconds(t0) / failures;
  }

  // End-to-end Monte Carlo.
  const GridMcOptions mc = mcOptions(mcTrials, maxFailures);
  auto& hits = obs::Registry::instance().counter("woodbury.column_memo_hits");
  auto& misses =
      obs::Registry::instance().counter("woodbury.column_memo_misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  t0 = std::chrono::steady_clock::now();
  const GridMcResult mcResult = runGridMonteCarlo(model, mc);
  p.mcTrials = mcTrials;
  p.mcSecondsPerTrial = seconds(t0) / mcTrials;
  const double columns =
      static_cast<double>(hits.value() - hits0 + misses.value() - misses0);
  if (obs::enabled() && columns > 0.0)
    p.memoHitRatio = static_cast<double>(hits.value() - hits0) / columns;

  // Bit-identity across thread counts (smallest sizes).
  if (threadSweep) {
    for (const int threads : {4, 8}) {
      GridMcOptions opts = mc;
      opts.parallelism.threads = threads;
      const GridMcResult result = runGridMonteCarlo(model, opts);
      if (result.ttfSamples != mcResult.ttfSamples)
        p.deterministicAcrossThreads = false;
    }
  }

  // EM-mode axis: rerun a short Monte Carlo with the wire-EM audit in
  // every SignoffMode and demand bit-identical samples (the audit never
  // perturbs trial physics) and mode-identical verdict counts.
  if (emTrials > 0) {
    p.emTrials = emTrials;
    WireGeometry geometry;
    geometry.wirePrefixes = {"Rs1_", "Rs2_"};
    GridMcOptions opts = mcOptions(emTrials, maxFailures);
    const GridMcResult off = runGridMonteCarlo(model, opts);
    opts.wireEm.trees = WireTreeSet::build(netlist, geometry);
    int transientMortal = -1;
    for (const auto mode :
         {SignoffMode::kSteadyState, SignoffMode::kTransient,
          SignoffMode::kHybrid}) {
      opts.wireEm.mode = mode;
      const GridMcResult result = runGridMonteCarlo(model, opts);
      if (result.ttfSamples != off.ttfSamples) p.emSamplesIdentical = false;
      if (mode == SignoffMode::kTransient)
        transientMortal = result.wireMortalConfigs;
      if (mode == SignoffMode::kHybrid &&
          result.wireMortalConfigs != transientMortal)
        p.emVerdictIdentical = false;
      p.emMortalConfigs = result.wireMortalConfigs;
    }
  }
  p.memoBytes = model.columnMemoBytes();
  return p;
}

void writePoint(std::ostream& os, const Point& p, bool last) {
  os << "    {\"target_nodes\": " << p.targetNodes
     << ", \"nodes\": " << p.nodes << ", \"via_arrays\": " << p.viaArrays
     << ", \"factor_nnz\": " << p.factorNnz
     << ", \"fill_ratio\": " << p.fillRatio
     << ", \"factor_seconds\": " << p.factorSeconds
     << ", \"per_failure_update_seconds\": " << p.perFailureSeconds
     << ", \"mc_trials\": " << p.mcTrials
     << ", \"mc_seconds_per_trial\": " << p.mcSecondsPerTrial
     << ", \"column_memo_bytes\": " << p.memoBytes
     << ", \"column_memo_hit_ratio\": " << p.memoHitRatio
     << ", \"parity_max_rel_diff\": " << p.parityMaxRelDiff
     << ", \"deterministic_across_threads\": "
     << (p.deterministicAcrossThreads ? "true" : "false")
     << ", \"em_mode_trials\": " << p.emTrials
     << ", \"em_samples_identical\": "
     << (p.emSamplesIdentical ? "true" : "false")
     << ", \"em_verdict_identical\": "
     << (p.emVerdictIdentical ? "true" : "false")
     << ", \"em_mortal_configs\": " << p.emMortalConfigs << "}"
     << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_grid_scale.json";
  CliFlags flags("perf_grid_scale: level-2 engine scaling sweep");
  flags.addBool("smoke", &smoke,
                "smallest mesh only, reduced trials (tier-1 gate)");
  flags.addString("out", &out, "JSON report path");
  if (!flags.parse(argc, argv)) return 0;
  // kError, not the usual kWarn: the bench caps failures per trial on
  // purpose (uniform per-trial work), and trials that reach the cap without
  // breaching the IR criterion WARN by design — that expected chatter would
  // drown the measurements (and trip tier-1's WARN scan).
  setLogLevel(LogLevel::kError);

  std::cout << "=== perf_grid_scale: supernodal level-2 engine ==="
            << (smoke ? " [smoke]" : "") << "\n";

  std::vector<Point> points;
  if (smoke) {
    points.push_back(measure(/*targetNodes=*/10000, /*mcTrials=*/12,
                             /*maxFailures=*/3, /*parity=*/true,
                             /*threadSweep=*/true, /*emTrials=*/3));
  } else {
    points.push_back(measure(10000, 40, 4, true, true, 6));
    points.push_back(measure(100000, 20, 4, true, false, 3));
    points.push_back(measure(1000000, 10, 4, false, false, 0));
    points.push_back(measure(2000000, 6, 3, false, false, 2));
  }

  for (const Point& p : points) {
    std::cout << "  n=" << p.nodes << " (" << p.viaArrays
              << " arrays): factor " << p.factorSeconds << " s, nnz(L) "
              << p.factorNnz << ", per-failure " << p.perFailureSeconds
              << " s, trial " << p.mcSecondsPerTrial << " s, memo "
              << p.memoBytes << " B (hit ratio " << p.memoHitRatio << ")";
    if (p.parityMaxRelDiff >= 0.0)
      std::cout << ", parity " << p.parityMaxRelDiff;
    std::cout << "\n";
  }

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot create " << out << "\n";
    return 1;
  }
  os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"solver\": \"supernodal+amd\",\n  \"column_memo_budget_bytes\": "
     << WoodburyBase::kDefaultColumnMemoBytes << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i)
    writePoint(os, points[i], i + 1 == points.size());
  os << "  ]\n}\n";
  std::cout << "wrote " << out << "\n";

  // Gates: oracle parity everywhere it was measured, determinism wherever
  // the thread sweep ran, EM-mode identity wherever that axis ran, and the
  // column memo within its budget at every size.
  bool pass = true;
  for (const Point& p : points) {
    if (p.memoBytes > WoodburyBase::kDefaultColumnMemoBytes) {
      std::cerr << "FAIL: column memo holds " << p.memoBytes
                << " bytes, over its budget, at n=" << p.nodes << "\n";
      pass = false;
    }
    if (p.parityMaxRelDiff > 1e-10) {
      std::cerr << "FAIL: supernodal/oracle parity " << p.parityMaxRelDiff
                << " at n=" << p.nodes << "\n";
      pass = false;
    }
    if (!p.deterministicAcrossThreads) {
      std::cerr << "FAIL: samples differ across thread counts at n="
                << p.nodes << "\n";
      pass = false;
    }
    if (!p.emSamplesIdentical) {
      std::cerr << "FAIL: samples differ across EM modes at n=" << p.nodes
                << "\n";
      pass = false;
    }
    if (!p.emVerdictIdentical) {
      std::cerr << "FAIL: hybrid and transient wire verdicts disagree at n="
                << p.nodes << "\n";
      pass = false;
    }
  }
  return pass ? 0 : 1;
}
