// fig_stress: the paper-figure FEA path (fig1/fig6/fig7, stress_map).
//
// One op builds one via-array structure, constructs ThermoSolver with the
// default options (block-Jacobi CG; the worker-thread count is the only
// override), solves it, and extracts the per-via peaks and the central
// row profile. Ops rotate through Plus/T/L 4x4 and Plus 8x8 at 0.125 um in
// a seed-chosen order, and a run always covers whole rotations. Outputs are
// checked against the fig6/fig7 sets of data/golden/paper_parity.golden.
#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "common/units.h"
#include "fea/thermo_solver.h"
#include "structures/cudd_builder.h"
#include "structures/probes.h"
#include "viaarray/characterize.h"

namespace perfbench {

using namespace viaduct;

namespace {

struct Case {
  const char* golden;  // prefix of the golden sets
  int n;
  IntersectionPattern pattern;
};

constexpr std::array<Case, 4> kRotation = {{
    {"fig6.Plus", 4, IntersectionPattern::kPlus},
    {"fig6.T", 4, IntersectionPattern::kT},
    {"fig6.L", 4, IntersectionPattern::kL},
    {"fig7.8x8", 8, IntersectionPattern::kPlus},
}};

ViaArrayStructureSpec specFor(const Case& c) {
  ViaArrayStructureSpec spec;
  spec.viaArray.n = c.n;
  spec.pattern = c.pattern;
  spec.resolutionXy = 0.125 * units::um;
  return spec;
}

ThermoSolverOptions solverOptions(const Options& options, int threads) {
  ThermoSolverOptions opt;
  opt.parallelism.threads = threads;
  // The smoke run uses the multigrid preconditioner: same physics, same
  // tolerance, a fraction of the time.
  if (options.smoke) opt.preconditioner = FeaPreconditionerKind::kMultigrid;
  return opt;
}

struct Expected {
  std::vector<double> peaksMpa;
  std::vector<double> profileMpa;
};

struct Outcome {
  CgResult cg;
  std::vector<double> peaksMpa;
  std::vector<double> profileMpa;
  double opSeconds = 0.0;
  int opSpan = -1;
};

/// One op. The spans are no-ops unless the tracer is on.
Outcome solveStructure(const Case& c, const ThermoSolverOptions& opt) {
  Outcome out;
  const auto start = Clock::now();
  {
    ScopedSpan op("op.structure");
    out.opSpan = op.id();
    BuiltStructure built = [&] {
      ScopedSpan s("structures.build");
      return buildViaArrayStructure(specFor(c));
    }();
    std::optional<ThermoSolver> solver;
    {
      ScopedSpan s("fea.setup");
      solver.emplace(built.grid, opt);
    }
    {
      ScopedSpan s("fea.solve");
      out.cg = solver->solve();
    }
    {
      ScopedSpan s("structures.probe");
      const auto peaks = perViaPeakStress(*solver, built);
      const auto prof =
          stressProfileAtY(*solver, built, built.viaRowCenterY(c.n / 2 - 1));
      for (const double raw : peaks)
        out.peaksMpa.push_back(kDefaultStressScale * raw / units::MPa);
      for (const double raw : prof.sigmaH)
        out.profileMpa.push_back(kDefaultStressScale * raw / units::MPa);
    }
  }
  out.opSeconds = secondsSince(start);
  return out;
}

void checkOutcome(Checker& check, const Case& c, const Outcome& out,
                  const Expected& expected) {
  check.expect(out.cg.converged, std::string(c.golden) + ": CG did not converge");
  check.expect(closeVector(out.peaksMpa, expected.peaksMpa),
               std::string(c.golden) + ": per-via peaks differ from the golden set");
  check.expect(closeVector(out.profileMpa, expected.profileMpa),
               std::string(c.golden) + ": row profile differs from the golden set");
}

double peakOf(const Outcome& out) {
  return out.peaksMpa.empty()
             ? 0.0
             : *std::max_element(out.peaksMpa.begin(), out.peaksMpa.end());
}

}  // namespace

void runFigStress(const Options& options, Report& report) {
  Checker check(report);
  Tracer& tr = tracer();

  // Set-up: read the golden sets, validate each structure of the rotation
  // against them (via count and probe length), and run one multigrid
  // warm-up solve so the first timed op does not pay the process's
  // first-touch costs. Repeated so the reported set-up time is a median.
  std::array<Expected, 4> expected;
  std::vector<double> setupSamples;
  ThermoSolverOptions warmUp = solverOptions(options, options.threads);
  warmUp.preconditioner = FeaPreconditionerKind::kMultigrid;
  constexpr int kSetupReps = 5;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    ScopedSpan setup("setup");
    ValueSets golden =
        readValueSets(options.root + "/data/golden/paper_parity.golden");
    perturb(golden, options);
    for (std::size_t i = 0; i < kRotation.size(); ++i) {
      const std::string prefix = kRotation[i].golden;
      expected[i].peaksMpa = golden[prefix + ".via_peaks_mpa"];
      expected[i].profileMpa = golden[prefix + ".profile_mpa"];
      const BuiltStructure built = buildViaArrayStructure(specFor(kRotation[i]));
      if (expected[i].peaksMpa.size() != built.vias.size() ||
          expected[i].profileMpa.empty())
        throw std::runtime_error("golden set " + prefix +
                                 " does not match the structure");
    }
    solveStructure(kRotation[0], warmUp);
    setupSamples.push_back(secondsSince(start));
  }

  // The rotation order is drawn from the workload seed.
  std::array<std::size_t, 4> order = {0, 1, 2, 3};
  {
    Rng rng(deriveSeed(options.seed, "fig_stress.order"));
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng.uniformInt(i + 1)]);
  }

  const ThermoSolverOptions opt = solverOptions(options, options.threads);
  std::vector<double> opSeconds, tracedSeconds, coverage, overheadPct;
  std::vector<double> buildS, setupS, solveS, probeS;
  std::array<double, 4> tracedSolveByCase{};
  long iterationsPerRotation = 0;
  double solveSum = 0.0, iterationSum = 0.0;

  const auto runStart = Clock::now();
  int rotations = 0;
  while (rotations == 0 || secondsSince(runStart) < options.seconds) {
    std::array<double, 4> peak{};
    long iterations = 0;
    for (const std::size_t i : order) {
      const Case& c = kRotation[i];
      Outcome untraced;
      check.beginOp();
      try {
        untraced = solveStructure(c, opt);
        checkOutcome(check, c, untraced, expected[i]);
        opSeconds.push_back(untraced.opSeconds);
        peak[i] = peakOf(untraced);
        iterations += untraced.cg.iterations;
        // Plus > T > L peak ordering, checked when the rotation's last op ends.
        if (i == order.back())
          check.expect(peak[0] > peak[1] && peak[1] > peak[2],
                       "Plus > T > L peak ordering violated");
        check.endOp();
      } catch (const std::exception& e) {
        check.thrown(e.what());
        continue;
      }
      if (!options.trace) continue;

      // Traced run: the same op again, with spans.
      check.beginOp();
      try {
        tr.setEnabled(true);
        const Outcome traced = solveStructure(c, opt);
        tr.setEnabled(false);
        checkOutcome(check, c, traced, expected[i]);
        check.expect(traced.peaksMpa == untraced.peaksMpa,
                     std::string(c.golden) + ": traced op differs from untraced");
        check.endOp();
        tracedSeconds.push_back(traced.opSeconds);
        coverage.push_back(tr.childSeconds(traced.opSpan) / untraced.opSeconds);
        overheadPct.push_back(100.0 * (traced.opSeconds - untraced.opSeconds) /
                              untraced.opSeconds);
        buildS.push_back(tr.totalSeconds(traced.opSpan, "structures.build"));
        setupS.push_back(tr.totalSeconds(traced.opSpan, "fea.setup"));
        const double solve = tr.totalSeconds(traced.opSpan, "fea.solve");
        solveS.push_back(solve);
        probeS.push_back(tr.totalSeconds(traced.opSpan, "structures.probe"));
        tracedSolveByCase[i] = solve;
        solveSum += solve;
        iterationSum += traced.cg.iterations;
      } catch (const std::exception& e) {
        tr.setEnabled(false);
        check.thrown(e.what());
      }
    }
    if (rotations == 0) iterationsPerRotation = iterations;
    ++rotations;
  }

  report.line("workload fig_stress: " + std::to_string(rotations) +
              " rotation(s) of Plus/T/L 4x4 + Plus 8x8 at 0.125 um, " +
              (options.smoke ? "multigrid" : "block-Jacobi") + " CG, " +
              std::to_string(options.threads) + " thread(s)");
  report.metric("setup_s", report.timing("setup_s", setupSamples), "s");
  report.metric("op_s", report.timing("solve_s", opSeconds), "s");
  report.line("fea.cg_iterations per rotation = " +
              std::to_string(iterationsPerRotation));
  if (!options.trace) return;

  report.metric("structures.build_s", median(buildS), "s");
  report.metric("fea.setup_s", median(setupS), "s");
  report.metric("fea.solve_s", median(solveS), "s");
  report.metric("fea.cg_iterations", static_cast<double>(iterationsPerRotation),
                "count");
  report.metric("fea.s_per_iteration",
                iterationSum > 0 ? solveSum / iterationSum : 0.0, "s");
  report.line("structures.probe_s = " + fmt(median(probeS)) + " s (median)");

  // Thread scaling and thread-count invariance: the rotation's first
  // structure solved again on one thread.
  const std::size_t first = order.front();
  check.beginOp();
  try {
    tr.setEnabled(true);
    const Outcome serial =
        solveStructure(kRotation[first], solverOptions(options, 1));
    tr.setEnabled(false);
    checkOutcome(check, kRotation[first], serial, expected[first]);
    const double serialSolve = tr.totalSeconds(serial.opSpan, "fea.solve");
    report.line("fea.solve at 1 thread = " + fmt(serialSolve) + " s, at " +
                std::to_string(options.threads) + " = " +
                fmt(tracedSolveByCase[first]) + " s");
    if (options.speedups() && tracedSolveByCase[first] > 0)
      report.metric("fea.speedup_nt", serialSolve / tracedSolveByCase[first], "x");
    // Bit-identity across thread counts: compare with a fresh N-thread op.
    const Outcome parallel = solveStructure(kRotation[first], opt);
    check.expect(serial.peaksMpa == parallel.peaksMpa &&
                     serial.profileMpa == parallel.profileMpa,
                 "FEA results differ between 1 and N threads");
    check.endOp();
  } catch (const std::exception& e) {
    tr.setEnabled(false);
    check.thrown(e.what());
  }

  reportCoverage(report, coverage);
  report.metric("bench.trace_overhead_pct", median(overheadPct), "%");
  report.timing("traced_op_s", tracedSeconds);
}

}  // namespace perfbench
