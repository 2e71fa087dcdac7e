// Steady-state vs transient wire-EM analysis (BENCH_em_steady.json).
//
// Three measurements back DESIGN.md §5.14:
//   1. Parity: the closed-form steady-state tree solver against the marched
//      implicit-Euler asymptote on fig6/fig7-scale line geometries (20-100 um
//      segments, j in the 1e9..4e10 A/m^2 range). Gate: max relative
//      mismatch <= 1e-8.
//   2. Audit cost: one wire-EM audit of a healthy mesh solution in each
//      SignoffMode at each mesh size — the per-audit steady-vs-transient
//      speedup is the paper's linear-time-vs-marching claim in isolation.
//   3. End-to-end Monte Carlo: seconds/trial with the audit in each mode
//      (plus audit-off), samples bit-identical across all of them, and the
//      per-trial steady-vs-transient speedup. Gate (full mode): >= 5x at
//      the ~1e5-node mesh; smoke gates a conservative 1.5x on the small
//      mesh only.
//
// --smoke runs the ~1e4-node mesh only with reduced repetitions; tier-1
// runs it on every commit, CI runs the full sweep.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/units.h"
#include "em/steady_state.h"
#include "grid/grid_mc.h"
#include "grid/mesh.h"
#include "grid/power_grid.h"
#include "grid/wire_mortality.h"

using namespace viaduct;

namespace {

double seconds(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return dt.count();
}

// ---------------------------------------------------------------------------
// 1. Parity on fig6/fig7-scale geometries.

struct ParityCase {
  std::string name;
  std::vector<double> segmentLengths;  // [m]
  std::vector<double> currentDensity;  // [A/m^2], signed along the path
};

double marchedParity(const ParityCase& c) {
  const EmParameters params;
  std::vector<SteadyBranch> branches;
  std::vector<double> j;
  for (std::size_t i = 0; i < c.segmentLengths.size(); ++i) {
    SteadyBranch b;
    b.a = static_cast<int>(i);
    b.b = static_cast<int>(i + 1);
    b.length = c.segmentLengths[i];
    b.area = 6.0e-13;
    branches.push_back(b);
    j.push_back(c.currentDensity[i]);
  }
  const SteadyStateTreeSolver solver(
      static_cast<int>(c.segmentLengths.size()) + 1, branches);
  TransientPathReference::Options opts;
  opts.cellsPerBranch = 6;
  opts.tolerance = 1e-10;
  TransientPathReference marched(solver, j, params, /*sigmaT=*/0.0, opts);
  marched.runToSteadyState();
  double worst = 0.0, scale = 0.0;
  for (std::size_t cell = 0; cell < marched.cellStress().size(); ++cell) {
    scale = std::max(scale, std::abs(marched.closedFormCellStress()[cell]));
  }
  scale = std::max(scale, 1.0);
  for (std::size_t cell = 0; cell < marched.cellStress().size(); ++cell) {
    worst = std::max(worst,
                     std::abs(marched.cellStress()[cell] -
                              marched.closedFormCellStress()[cell]) /
                         scale);
  }
  return worst;
}

std::vector<ParityCase> parityCases() {
  // fig6-style: one 50 um line per pattern current level; fig7-style:
  // array-size sweep varies the effective j through the same line; plus
  // multi-segment paths with per-segment area steps (j changes sign-free
  // along the path, as across a via array's line segments).
  std::vector<ParityCase> cases;
  cases.push_back({"fig6_line_j1e10", {50e-6}, {1e10}});
  cases.push_back({"fig6_line_j3e10", {50e-6}, {3e10}});
  cases.push_back({"fig7_line_j4e9", {100e-6}, {4e9}});
  cases.push_back(
      {"fig7_steps_3seg", {20e-6, 40e-6, 20e-6}, {2e10, 1e10, 5e9}});
  cases.push_back({"path_8seg",
                   {20e-6, 20e-6, 30e-6, 30e-6, 20e-6, 40e-6, 20e-6, 30e-6},
                   {1e10, -5e9, 8e9, 2e10, -1e10, 4e9, 1.5e10, -2e9}});
  return cases;
}

// ---------------------------------------------------------------------------
// 2+3. Mesh-size points.

struct Point {
  Index targetNodes = 0;
  Index nodes = 0;
  int trees = 0;
  int branches = 0;
  // Per-audit seconds in each mode on the healthy solution.
  double auditSteady = 0.0;
  double auditTransient = 0.0;
  double auditHybrid = 0.0;
  double auditSpeedup = 0.0;
  // Monte Carlo seconds/trial.
  int trials = 0;
  double trialOff = 0.0;
  double trialSteady = 0.0;
  double trialTransient = 0.0;
  double trialHybrid = 0.0;
  double trialSpeedup = 0.0;
  int mortalTreesSteady = 0;
  int mortalTreesTransient = 0;
  bool verdictIdentical = true;
  bool samplesIdentical = true;
};

WireGeometry meshWireGeometry() {
  WireGeometry g;
  g.wirePrefixes = {"Rs1_", "Rs2_"};
  return g;
}

GridMcOptions mcOptions(int trials) {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal(std::log(1.0e8), 0.5);
  opts.trials = trials;
  opts.seed = 2027;
  opts.maxFailuresPerTrial = 3;
  return opts;
}

Point measure(Index targetNodes, int trials, int steadyReps,
              int transientReps) {
  Point p;
  p.targetNodes = targetNodes;
  p.trials = trials;

  const MeshSpec spec = meshSpecForNodeTarget(targetNodes);
  Netlist netlist = buildMeshNetlist(spec);
  tuneNominalIrDrop(netlist, 0.08);
  const PowerGridModel model(netlist);
  p.nodes = model.unknownCount();

  const WireGeometry geometry = meshWireGeometry();
  const auto trees = WireTreeSet::build(netlist, geometry);
  p.trees = trees->treeCount();
  p.branches = trees->branchCount();
  const double margin = 340.0 * units::MPa;
  const EmParameters params;

  const auto solution = model.solveNominal();
  VIADUCT_CHECK(solution.solverOk);
  auto scratch = trees->makeScratch();

  const auto timeAudit = [&](SignoffMode mode, int reps,
                             WireTreeSet::Audit* out) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
      *out = trees->audit(model, solution, mode, margin, params, scratch);
    return seconds(t0) / reps;
  };
  WireTreeSet::Audit steadyAudit, transientAudit, hybridAudit;
  p.auditSteady =
      timeAudit(SignoffMode::kSteadyState, steadyReps, &steadyAudit);
  p.auditTransient =
      timeAudit(SignoffMode::kTransient, transientReps, &transientAudit);
  p.auditHybrid =
      timeAudit(SignoffMode::kHybrid, transientReps, &hybridAudit);
  p.auditSpeedup = p.auditTransient / p.auditSteady;
  p.mortalTreesSteady = steadyAudit.mortalTrees;
  p.mortalTreesTransient = transientAudit.mortalTrees;
  p.verdictIdentical = steadyAudit.mortalTrees == transientAudit.mortalTrees &&
                       steadyAudit.mortalTrees == hybridAudit.mortalTrees;

  // End-to-end Monte Carlo per mode (identical trial streams; the audit is
  // diagnostic-only, so every mode must reproduce the audit-off samples).
  const auto runMode = [&](const GridWireEmOptions* em, double* secsPerTrial) {
    auto opts = mcOptions(trials);
    if (em) opts.wireEm = *em;
    const auto t0 = std::chrono::steady_clock::now();
    const GridMcResult result = runGridMonteCarlo(model, opts);
    *secsPerTrial = seconds(t0) / trials;
    return result;
  };
  double unused = 0.0;
  const GridMcResult off = runMode(nullptr, &p.trialOff);
  GridWireEmOptions em;
  em.trees = trees;
  em.stressMarginPa = margin;
  em.params = params;
  em.mode = SignoffMode::kSteadyState;
  const GridMcResult steady = runMode(&em, &p.trialSteady);
  em.mode = SignoffMode::kTransient;
  const GridMcResult transient = runMode(&em, &p.trialTransient);
  em.mode = SignoffMode::kHybrid;
  const GridMcResult hybrid = runMode(&em, &p.trialHybrid);
  (void)unused;
  p.trialSpeedup = p.trialTransient / p.trialSteady;
  p.samplesIdentical = off.ttfSamples == steady.ttfSamples &&
                       off.ttfSamples == transient.ttfSamples &&
                       off.ttfSamples == hybrid.ttfSamples;
  p.verdictIdentical =
      p.verdictIdentical &&
      steady.wireMortalConfigs == transient.wireMortalConfigs &&
      steady.wireMortalConfigs == hybrid.wireMortalConfigs;
  return p;
}

void writePoint(std::ostream& os, const Point& p, bool last) {
  os << "    {\"target_nodes\": " << p.targetNodes
     << ", \"nodes\": " << p.nodes << ", \"trees\": " << p.trees
     << ", \"branches\": " << p.branches
     << ", \"audit_seconds_steady\": " << p.auditSteady
     << ", \"audit_seconds_transient\": " << p.auditTransient
     << ", \"audit_seconds_hybrid\": " << p.auditHybrid
     << ", \"audit_speedup\": " << p.auditSpeedup
     << ", \"trials\": " << p.trials
     << ", \"trial_seconds_audit_off\": " << p.trialOff
     << ", \"trial_seconds_steady\": " << p.trialSteady
     << ", \"trial_seconds_transient\": " << p.trialTransient
     << ", \"trial_seconds_hybrid\": " << p.trialHybrid
     << ", \"per_trial_speedup\": " << p.trialSpeedup
     << ", \"mortal_trees\": " << p.mortalTreesSteady
     << ", \"verdict_identical\": " << (p.verdictIdentical ? "true" : "false")
     << ", \"samples_identical\": " << (p.samplesIdentical ? "true" : "false")
     << "}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_em_steady.json";
  CliFlags flags("perf_em_steady: steady-state vs transient wire-EM");
  flags.addBool("smoke", &smoke,
                "small mesh only, reduced repetitions (tier-1 gate)");
  flags.addString("out", &out, "JSON report path");
  if (!flags.parse(argc, argv)) return 0;
  // Capped-failure trials WARN by design (see perf_grid_scale); keep the
  // measurement output clean and tier-1's WARN scan quiet.
  setLogLevel(LogLevel::kError);

  std::cout << "=== perf_em_steady: linear-time steady-state wire EM ==="
            << (smoke ? " [smoke]" : "") << "\n";

  // 1. Parity.
  double worstParity = 0.0;
  for (const ParityCase& c : parityCases()) {
    const double parity = marchedParity(c);
    worstParity = std::max(worstParity, parity);
    std::cout << "  parity " << c.name << ": " << parity << "\n";
  }

  // 2+3. Mesh points.
  std::vector<Point> points;
  if (smoke) {
    points.push_back(measure(/*targetNodes=*/10000, /*trials=*/4,
                             /*steadyReps=*/20, /*transientReps=*/2));
  } else {
    points.push_back(measure(10000, 8, 50, 4));
    points.push_back(measure(100000, 4, 20, 2));
  }
  for (const Point& p : points) {
    std::cout << "  n=" << p.nodes << ": " << p.trees << " trees / "
              << p.branches << " branches; audit " << p.auditSteady
              << " s steady vs " << p.auditTransient << " s transient ("
              << p.auditSpeedup << "x, hybrid " << p.auditHybrid
              << " s); trial " << p.trialSteady << " s vs "
              << p.trialTransient << " s (" << p.trialSpeedup
              << "x); mortal trees " << p.mortalTreesSteady << "\n";
  }

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot create " << out << "\n";
    return 1;
  }
  os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"worst_parity\": " << worstParity << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i)
    writePoint(os, points[i], i + 1 == points.size());
  os << "  ],\n  \"largest_mesh_per_trial_speedup\": "
     << points.back().trialSpeedup << "\n}\n";
  std::cout << "wrote " << out << "\n";

  // Gates.
  bool pass = true;
  if (worstParity > 1e-8) {
    std::cerr << "FAIL: steady-vs-marched parity " << worstParity
              << " above 1e-8\n";
    pass = false;
  }
  for (const Point& p : points) {
    if (!p.verdictIdentical) {
      std::cerr << "FAIL: mode verdicts disagree at n=" << p.nodes << "\n";
      pass = false;
    }
    if (!p.samplesIdentical) {
      std::cerr << "FAIL: TTF samples differ across EM modes at n="
                << p.nodes << "\n";
      pass = false;
    }
  }
  const double floor = smoke ? 1.5 : 5.0;
  if (points.back().trialSpeedup < floor) {
    std::cerr << "FAIL: per-trial speedup " << points.back().trialSpeedup
              << "x below the " << floor << "x floor at n="
              << points.back().nodes << "\n";
    pass = false;
  }
  return pass ? 0 : 1;
}
