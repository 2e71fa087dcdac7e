// pg5_mc: the level-2 engine at Table-2 scale. PG5 with 4x4 arrays, the
// default PowerGridConfig solver, 1000 trials per analyze() and the
// steady-state wire-EM audit on. The library is warmed during set-up, so
// FEA and level 1 sit in setup_s and an op is analyze() on the warm
// analyzer.
#include <limits>
#include <optional>

#include "analysis.h"
#include "common/rng.h"
#include "grid/wire_mortality.h"
#include "obs/obs.h"

namespace perfbench {

using namespace viaduct;

namespace {

AnalyzerConfig workloadConfig(const Options& options) {
  AnalyzerConfig c;
  c.viaArraySize = 4;
  c.characterization.trials = options.smoke ? 100 : 500;
  c.characterization.seed = deriveSeed(options.seed, "pg5_mc.level1");
  c.trials = options.smoke ? 40 : 1000;
  c.seed = deriveSeed(options.seed, "pg5_mc.level2");
  c.parallelism.threads = options.threads;
  c.tuneNominalIrDropFraction = pgPresetConfig(PgPreset::kPg5).suggestedIrDropTarget;
  c.wireEmAudit = true;
  c.emMode = SignoffMode::kSteadyState;
  return c;
}

struct Replay {
  AnalysisSummary summary;
  double seconds = 0.0;
  int span = -1;
};

/// analyze() on the warm analyzer, replayed as its layer calls.
Replay replayAnalyze(PowerGridEmAnalyzer& analyzer, const AnalyzerConfig& config,
                     std::array<Lognormal, 3>* fitsOut) {
  Replay out;
  const auto start = Clock::now();
  ScopedSpan op("op.analyze");
  out.span = op.id();
  std::array<Lognormal, 3> fits = {Lognormal(0, 1), Lognormal(0, 1), Lognormal(0, 1)};
  for (const auto p : usedPatterns(analyzer)) {
    std::shared_ptr<ViaArrayCharacterizer> ch;
    {
      ScopedSpan s("core.get");
      ch = analyzer.library().get(analyzer.specForPattern(p));
    }
    ScopedSpan s("viaarray.fit");
    fits[static_cast<std::size_t>(p)] = ch->ttfLognormal(arrayCriterion());
  }
  std::shared_ptr<const WireTreeSet> trees;
  {
    ScopedSpan s("em.tree_build");
    trees = WireTreeSet::build(analyzer.netlist(), config.wireGeometry);
  }
  out.summary = replayLevel2(analyzer.model(), config, analyzer.sitePatterns(), fits, trees);
  out.seconds = secondsSince(start);
  if (fitsOut) *fitsOut = fits;
  return out;
}

struct SessionReplay {
  std::vector<double> ttf;  // one per replayed trial
  double updateSeconds = 0.0, solveSeconds = 0.0;
  long updates = 0, solves = 0, rebases = 0;
};

/// Re-runs the first `trials` level-2 trials through the public Session
/// API, in the same order of operations as runGridMonteCarlo's trial, and
/// times the Woodbury updates (openArray) and re-solves (solve) apart.
SessionReplay replaySessions(const PowerGridModel& model, const GridMcOptions& options,
                             int trials) {
  SessionReplay out;
  const int count = static_cast<int>(model.viaArrays().size());
  const double threshold = options.systemCriterion.irDropFraction;
  std::vector<double> budget(static_cast<std::size_t>(count)),
      damage(static_cast<std::size_t>(count)), rates(static_cast<std::size_t>(count));
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(options.seed, static_cast<std::uint64_t>(trial));
    for (std::size_t m = 0; m < budget.size(); ++m)
      budget[m] = options.perArrayTtf[m].sample(rng);
    PowerGridModel::Session session(model);
    auto sol = session.solve();
    int pending = sol.pendingUpdates;
    std::fill(damage.begin(), damage.end(), 0.0);
    double t = 0.0;
    for (int failed = 0; failed < count; ++failed) {
      double best = std::numeric_limits<double>::infinity();
      int victim = -1;
      for (int m = 0; m < count; ++m) {
        if (session.arrayOpen(m)) continue;
        const double ratio = sol.viaArrayCurrents[static_cast<std::size_t>(m)] /
                             options.referenceCurrentAmps;
        const double rate = ratio * ratio / budget[static_cast<std::size_t>(m)];
        rates[static_cast<std::size_t>(m)] = rate;
        if (rate <= 0.0) continue;
        const double remaining = (1.0 - damage[static_cast<std::size_t>(m)]) / rate;
        if (remaining < best) {
          best = remaining;
          victim = m;
        }
      }
      if (victim < 0) break;
      t += best;
      for (int m = 0; m < count; ++m) {
        if (session.arrayOpen(m) || m == victim) continue;
        damage[static_cast<std::size_t>(m)] += rates[static_cast<std::size_t>(m)] * best;
      }
      auto start = Clock::now();
      session.openArray(victim);
      out.updateSeconds += secondsSince(start);
      ++out.updates;
      damage[static_cast<std::size_t>(victim)] = 1.0;
      start = Clock::now();
      sol = session.solve();
      out.solveSeconds += secondsSince(start);
      ++out.solves;
      if (sol.pendingUpdates < pending) ++out.rebases;
      pending = sol.pendingUpdates;
      if (!sol.solverOk || sol.worstIrDropFraction >= threshold) break;
    }
    out.ttf.push_back(t);
  }
  return out;
}

}  // namespace

void runPg5Mc(const Options& options, Report& report) {
  Checker check(report);
  Tracer& tr = tracer();
  const std::string mode = options.smoke ? "smoke" : "full";
  const AnalyzerConfig config = workloadConfig(options);

  // Set-up: netlist generation, analyzer construction (load tuning, the
  // base factorization) and library warm-up (FEA + level 1 per pattern).
  ValueSets reference;
  Netlist netlist;
  std::unique_ptr<PowerGridEmAnalyzer> analyzer;
  std::vector<double> setupSamples;
  constexpr int kSetupReps = 5;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    analyzer.reset();
    const auto start = Clock::now();
    reference = loadReference(options);
    netlist = generateNetlist(PgPreset::kPg5);
    auto library = std::make_shared<ViaArrayLibrary>();
    analyzer = std::make_unique<PowerGridEmAnalyzer>(netlist, config, library);
    for (const auto p : usedPatterns(*analyzer)) library->get(analyzer->specForPattern(p));
    setupSamples.push_back(secondsSince(start));
  }
  for (const auto p : usedPatterns(*analyzer)) {
    const auto ch = analyzer->library().get(analyzer->specForPattern(p));
    if (ch->discardedTrials() != 0 || ch->salvagedTrials() != 0)
      throw std::runtime_error("pg5_mc set-up: level-1 trials discarded or salvaged");
  }

  const std::string key = "pg5_mc." + mode + ".op0";
  const std::vector<double>* ref = referenceFor(reference, options, key);
  std::optional<AnalysisSummary> first;
  std::vector<double> opSeconds, tracedSeconds, coverage, overheadPct, charShare,
      fitS, treeS, auditedMcS, bootstrapS;

  const auto runStart = Clock::now();
  int op = 0;
  for (; op == 0 || secondsSince(runStart) < options.seconds; ++op) {
    AnalysisSummary untraced;
    double untracedSeconds = 0.0;
    check.beginOp();
    try {
      const auto start = Clock::now();
      untraced = summarize(analyzer->analyze(arrayCriterion(), systemCriterion()));
      untracedSeconds = secondsSince(start);
      opSeconds.push_back(untracedSeconds);
      checkAnalysis(check, key, untraced, config.trials, ref);
      check.expect(untraced.auditedConfigs > 0, key + ": the wire-EM audit did not run");
      if (!first) first = untraced;
      check.expect(untraced == *first, key + ": differs from the run's first op");
      check.endOp();
    } catch (const std::exception& e) {
      check.thrown(e.what());
      continue;
    }
    if (!options.trace) continue;

    check.beginOp();
    try {
      tr.setEnabled(true);
      const Replay r = replayAnalyze(*analyzer, config, nullptr);
      tr.setEnabled(false);
      check.expect(r.summary == untraced, key + ": replay differs from analyze()");
      check.endOp();
      tracedSeconds.push_back(r.seconds);
      coverage.push_back(tr.childSeconds(r.span) / untracedSeconds);
      overheadPct.push_back(100.0 * (r.seconds - untracedSeconds) / untracedSeconds);
      charShare.push_back(tr.totalSeconds(r.span, "core.get") / tr.span(r.span).seconds());
      fitS.push_back(tr.totalSeconds(r.span, "viaarray.fit"));
      treeS.push_back(tr.totalSeconds(r.span, "em.tree_build"));
      auditedMcS.push_back(tr.totalSeconds(r.span, "grid.mc"));
      bootstrapS.push_back(tr.totalSeconds(r.span, "common.bootstrap"));
    } catch (const std::exception& e) {
      tr.setEnabled(false);
      check.thrown(e.what());
    }
  }

  report.line("workload pg5_mc: PG5, " + std::to_string(analyzer->model().unknownCount()) +
              " unknowns, " + std::to_string(analyzer->model().viaArrays().size()) +
              " 4x4 via arrays, " + std::to_string(config.trials) +
              " level-2 trials per op with the steady-state wire-EM audit, " +
              std::to_string(op) + " op(s), " + std::to_string(options.threads) +
              " thread(s)");
  report.metric("setup_s", report.timing("setup_s", setupSamples), "s");
  report.metric("op_s", report.timing("analyze_s", opSeconds), "s");
  if (!options.trace || !first) return;

  // Set-up layers, replayed once with spans.
  tr.setEnabled(true);
  const int setupSpan = tr.open("setup.replay");
  {
    Netlist copy = generateNetlist(PgPreset::kPg5);
    PowerGridConfig grid = config.gridConfig;
    grid.policy = config.policy;
    {
      ScopedSpan s("grid.tune");
      tuneNominalIrDrop(copy, *config.tuneNominalIrDropFraction, grid);
    }
    ScopedSpan s("grid.model");
    const PowerGridModel model(copy, grid);
    model.solveNominal();
  }
  tr.close(setupSpan);
  tr.setEnabled(false);
  report.metric("grid.tune_s", tr.totalSeconds(setupSpan, "grid.tune"), "s");
  report.metric("grid.model_s", tr.totalSeconds(setupSpan, "grid.model"), "s");

  std::array<Lognormal, 3> fits = {Lognormal(0, 1), Lognormal(0, 1), Lognormal(0, 1)};
  for (const auto p : usedPatterns(*analyzer))
    fits[static_cast<std::size_t>(p)] =
        analyzer->library().get(analyzer->specForPattern(p))->ttfLognormal(arrayCriterion());
  const PowerGridModel& model = analyzer->model();
  GridMcOptions plain = mcOptions(config, analyzer->sitePatterns(), fits, nullptr);

  // One grid MC variant: timed, and checked bit-identical to the op's samples.
  auto timedMc = [&](const std::string& what, const GridMcOptions& options) {
    check.beginOp();
    try {
      const auto start = Clock::now();
      const GridMcResult mc = runGridMonteCarlo(model, options);
      const double seconds = secondsSince(start);
      check.expect(mc.ttfSamples == first->samples, what + ": samples differ from the op's");
      check.endOp();
      return seconds;
    } catch (const std::exception& e) {
      check.thrown(what + ": " + e.what());
      return 0.0;
    }
  };
  const double mcS = timedMc("grid MC without audit", plain);
  const double prevObs = obs::enabled();
  obs::setEnabled(false);
  const double mcObsOffS = timedMc("grid MC with obs off", plain);
  obs::setEnabled(prevObs);
  report.metric("grid.mc_s", mcS, "s");
  report.metric("grid.trials_per_s", mcS > 0 ? config.trials / mcS : 0.0, "1/s");
  report.metric("grid.failures_per_trial", first->meanFailures, "count");
  report.metric("obs.overhead_pct",
                mcObsOffS > 0 ? 100.0 * (mcS - mcObsOffS) / mcObsOffS : 0.0, "%");
  report.metric("em.audit_s", median(auditedMcS) - mcS, "s");
  report.metric("em.tree_build_s", median(treeS), "s");
  report.metric("em.mortal_config_share",
                first->auditedConfigs > 0
                    ? static_cast<double>(first->mortalConfigs) / first->auditedConfigs
                    : 0.0,
                "ratio");
  report.metric("viaarray.fit_s", median(fitS), "s");
  report.metric("core.char_share", median(charShare), "ratio");
  report.metric("common.bootstrap_s", median(bootstrapS), "s");

  // Thread scaling and thread-count invariance of the grid MC.
  GridMcOptions serial = plain;
  serial.parallelism.threads = 1;
  const double serialS = timedMc("grid MC on one thread", serial);
  report.line("grid MC at 1 thread = " + fmt(serialS) + " s, at " +
              std::to_string(options.threads) + " = " + fmt(mcS) + " s");
  if (options.speedups() && mcS > 0) report.metric("grid.mc_speedup_nt", serialS / mcS, "x");

  // Wire census at the nominal operating point.
  {
    const auto start = Clock::now();
    const WireEmCensus census =
        classifyWiresEm(analyzer->netlist(), config.wireGeometry, config.wireStressMarginPa,
                        config.wireEmParams, SignoffMode::kSteadyState);
    report.metric("em.census_s", secondsSince(start), "s");
    report.line("em census: " + std::to_string(census.trees) + " trees, " +
                std::to_string(census.mortalTrees) + " mortal");
  }

  // Failure sequences of the first trials through the Session API.
  check.beginOp();
  try {
    const int replayTrials = std::min(config.trials, 16);
    const SessionReplay sr = replaySessions(model, plain, replayTrials);
    bool same = sr.ttf.size() == static_cast<std::size_t>(replayTrials);
    for (std::size_t t = 0; same && t < sr.ttf.size(); ++t) same = sr.ttf[t] == first->samples[t];
    check.expect(same, "Session replay TTFs differ from the Monte Carlo samples");
    check.endOp();
    report.metric("grid.update_ms", sr.updates ? 1e3 * sr.updateSeconds / sr.updates : 0.0, "ms");
    report.metric("grid.resolve_ms", sr.solves ? 1e3 * sr.solveSeconds / sr.solves : 0.0, "ms");
    report.metric("grid.rebases_per_trial", static_cast<double>(sr.rebases) / replayTrials,
                  "count");
  } catch (const std::exception& e) {
    check.thrown(e.what());
  }

  // Numerics: the base factor's size, and the bytes of L one forward plus
  // one back substitution read (computed: 8-byte value + 4-byte row index
  // per stored entry, twice).
  if (const auto factor = model.baseFactor()) {
    const double nnz = static_cast<double>(factor->factorNonZeroCount());
    report.metric("numerics.factor_nnz", nnz, "count");
    report.metric("numerics.solve_bytes", 2.0 * nnz * (sizeof(double) + sizeof(Index)),
                  "bytes");
  }

  reportCoverage(report, coverage);
  report.metric("bench.trace_overhead_pct", median(overheadPct), "%");
  report.timing("traced_op_s", tracedSeconds);
}

}  // namespace perfbench
