// pg1_char: a cold `viaduct_cli analyze`-style PG1 analysis that level-1
// characterization dominates (8x8 arrays, 1000 level-1 trials, 50 level-2
// trials).
//
// A cold op constructs PowerGridEmAnalyzer over a fresh ViaArrayLibrary
// backed by empty on-disk CharacterizationStore and StressPrimitiveStore
// files and calls analyze(), which writes both stores. Each cold op is
// followed by a warm op: a fresh library over the same files, which reads
// them back. Per-op seeds cycle through two level-1/level-2 seed pairs
// drawn from the workload seed.
#include <filesystem>
#include <optional>

#include "analysis.h"
#include "obs/obs.h"
#include "viaarray/cache.h"
#include "viaarray/primitive_store.h"

namespace perfbench {

using namespace viaduct;

namespace {

constexpr int kOpSeeds = 2;

struct Stores {
  std::string charPath;
  std::string primPath;
  void clear() const {
    for (const auto& p : {charPath, primPath}) {
      std::filesystem::remove(p);
      std::filesystem::remove(p + ".tmp");
    }
  }
  double bytes() const { return fileBytes(charPath) + fileBytes(primPath); }
};

AnalyzerConfig opConfig(const Options& options, int opIndex) {
  AnalyzerConfig c;
  c.viaArraySize = options.smoke ? 4 : 8;
  c.characterization.trials = options.smoke ? 100 : 1000;
  c.trials = options.smoke ? 20 : 50;
  c.parallelism.threads = options.threads;
  c.tuneNominalIrDropFraction = pgPresetConfig(PgPreset::kPg1).suggestedIrDropTarget;
  const auto k = static_cast<std::uint64_t>(opIndex % kOpSeeds);
  c.characterization.seed = deriveSeed(options.seed, "pg1_char.level1", k);
  c.seed = deriveSeed(options.seed, "pg1_char.level2", k);
  return c;
}

AnalyzerConfig warmUpConfig(const Options& options) {
  AnalyzerConfig c = opConfig(options, 0);
  c.viaArraySize = 4;
  c.characterization.trials = 100;
  c.trials = 20;
  return c;
}

/// PowerGridEmAnalyzer::specForPattern for a config (no checkpointing).
ViaArrayCharacterizationSpec specFor(const AnalyzerConfig& config,
                                     IntersectionPattern p) {
  ViaArrayCharacterizationSpec spec = config.characterization;
  spec.array.n = config.viaArraySize;
  spec.pattern = p;
  spec.parallelism = config.parallelism;
  spec.policy = config.policy;
  return spec;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

struct LibraryCounts {
  std::uint64_t hits = 0, gets = 0;
  static LibraryCounts now() {
    LibraryCounts c;
    const auto memory = counter("char_cache.memory_hit");
    const auto store = counter("char_cache.store_hit");
    c.hits = memory + store;
    c.gets = memory + store + counter("char_cache.miss") +
             counter("char_cache.inflight_join");
    return c;
  }
};

struct OpResult {
  AnalysisSummary summary;
  double seconds = 0.0;
  LibraryCounts library;  // counter deltas over the timed region
  int l1Discarded = 0, l1Salvaged = 0, l1Trials = 0;
  bool l1TraceCountOk = true;
  bool specsMatch = true;
  int span = -1;
  std::shared_ptr<ViaArrayCharacterizer> plus;  // the Plus characterizer
};

/// One untraced op: the public facade, exactly as a caller uses it.
OpResult analyzeOnce(const Netlist& netlist, AnalyzerConfig config,
                     const Stores& stores) {
  OpResult out;
  const LibraryCounts before = LibraryCounts::now();
  const auto start = Clock::now();
  auto charStore = std::make_shared<CharacterizationStore>(stores.charPath);
  config.characterization.primitiveStore =
      std::make_shared<StressPrimitiveStore>(stores.primPath);
  auto library = std::make_shared<ViaArrayLibrary>(charStore);
  PowerGridEmAnalyzer analyzer(netlist, config, library);
  out.summary = summarize(analyzer.analyze(arrayCriterion(), systemCriterion()));
  out.seconds = secondsSince(start);
  const LibraryCounts after = LibraryCounts::now();
  out.library = {after.hits - before.hits, after.gets - before.gets};

  // Level-1 accounting, outside the timed region (memory hits).
  for (const auto p : usedPatterns(analyzer)) {
    const auto spec = analyzer.specForPattern(p);
    out.specsMatch = out.specsMatch && spec.cacheKey() == specFor(config, p).cacheKey();
    const auto ch = library->get(spec);
    out.l1Discarded += ch->discardedTrials();
    out.l1Salvaged += ch->salvagedTrials();
    out.l1Trials += spec.trials;
    out.l1TraceCountOk = out.l1TraceCountOk &&
                         ch->traces().size() == static_cast<std::size_t>(spec.trials);
  }
  return out;
}

/// One traced op: analyze() replayed as its layer calls, with spans.
/// `warm` replays the store-hit path of ViaArrayLibrary::get, otherwise
/// the miss path (store loads, FEA, Monte Carlo, store saves).
OpResult replay(const Netlist& netlist, AnalyzerConfig config,
                const std::vector<IntersectionPattern>& sitePatterns,
                const std::vector<IntersectionPattern>& used,
                const Stores& stores, bool warm) {
  OpResult out;
  const auto start = Clock::now();
  ScopedSpan op(warm ? "op.warm" : "op.cold");
  out.span = op.id();
  auto charStore = std::make_shared<CharacterizationStore>(stores.charPath);
  auto primStore = std::make_shared<StressPrimitiveStore>(stores.primPath);
  config.gridConfig.policy = config.policy;
  Netlist tuned = netlist;
  {
    ScopedSpan s("grid.tune");
    tuneNominalIrDrop(tuned, *config.tuneNominalIrDropFraction, config.gridConfig);
  }
  std::optional<PowerGridModel> model;
  {
    ScopedSpan s("grid.model");
    model.emplace(tuned, config.gridConfig);
    model->solveNominal();
  }
  std::array<Lognormal, 3> fits = {Lognormal(0, 1), Lognormal(0, 1), Lognormal(0, 1)};
  for (const auto p : used) {
    const ViaArrayCharacterizationSpec spec = specFor(config, p);
    std::shared_ptr<ViaArrayCharacterizer> ch;
    {
      ScopedSpan get("core.get");
      const std::string key = spec.cacheKey();
      std::optional<CharacterizationData> data;
      {
        ScopedSpan s("viaarray.store_load");
        data = charStore->load(key);
      }
      if (data) {
        ScopedSpan s("viaarray.rehydrate");
        ch = std::make_shared<ViaArrayCharacterizer>(spec, *data);
        out.library.hits += 1;
      } else {
        {
          ScopedSpan s("viaarray.store_load");
          primStore->load(spec.primitiveKey());
        }
        {
          ScopedSpan s("viaarray.fea");
          ch = std::make_shared<ViaArrayCharacterizer>(spec);
        }
        {
          ScopedSpan s("viaarray.mc");
          ch->traces();
        }
        ScopedSpan s("viaarray.store_save");
        primStore->save(spec.primitiveKey(), ch->rawSigmaT());
        if (ch->discardedTrials() == 0 && ch->salvagedTrials() == 0)
          charStore->save(key, ch->exportData());
      }
      out.library.gets += 1;
    }
    out.l1Discarded += ch->discardedTrials();
    out.l1Salvaged += ch->salvagedTrials();
    out.l1Trials += spec.trials;
    if (p == IntersectionPattern::kPlus) out.plus = ch;
    ScopedSpan s("viaarray.fit");
    fits[static_cast<std::size_t>(p)] = ch->ttfLognormal(arrayCriterion());
  }
  out.summary = replayLevel2(*model, config, sitePatterns, fits, nullptr);
  out.seconds = secondsSince(start);
  return out;
}

void checkOp(Checker& check, const std::string& what, const OpResult& r,
             const AnalyzerConfig& config, const std::vector<double>* reference) {
  checkAnalysis(check, what, r.summary, config.trials, reference);
  check.expect(r.l1Discarded == 0 && r.l1Salvaged == 0 && r.l1TraceCountOk,
               what + ": level-1 trials discarded, salvaged or missing");
  check.expect(r.specsMatch, what + ": replayed level-1 spec differs from the analyzer's");
}

bool sameTraces(const std::vector<FailureTrace>& a, const std::vector<FailureTrace>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].failureTimes != b[i].failureTimes ||
        a[i].resistanceAfter != b[i].resistanceAfter)
      return false;
  return true;
}

}  // namespace

void runPg1Char(const Options& options, Report& report) {
  Checker check(report);
  Tracer& tr = tracer();
  const std::string mode = options.smoke ? "smoke" : "full";

  // Set-up: netlist generation, the store directory, the reference values,
  // one analyzer construction whose site-pattern assignment the traced
  // replay reuses, and a reduced warm-up analysis (4x4 arrays, 100 level-1
  // and 20 level-2 trials, its own store files) so the first timed cold op
  // does not pay the process's first-touch costs.
  Netlist netlist;
  ValueSets reference;
  Stores stores;
  std::vector<IntersectionPattern> sitePatterns, used;
  std::vector<double> setupSamples;
  constexpr int kSetupReps = 5;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    ScopedSpan setup("setup");
    netlist = generateNetlist(PgPreset::kPg1);
    reference = loadReference(options);
    const std::string dir = options.workDir + "/pg1_store";
    std::filesystem::create_directories(dir);
    stores = {dir + "/characterization.txt", dir + "/primitives.txt"};
    stores.clear();
    const PowerGridEmAnalyzer analyzer(netlist, opConfig(options, 0));
    sitePatterns = analyzer.sitePatterns();
    used = usedPatterns(analyzer);
    const Stores warmUpStores = {dir + "/warmup-characterization.txt",
                                 dir + "/warmup-primitives.txt"};
    warmUpStores.clear();
    analyzeOnce(netlist, warmUpConfig(options), warmUpStores);
    setupSamples.push_back(secondsSince(start));
  }

  std::vector<std::optional<AnalysisSummary>> firstResult(kOpSeeds);
  auto checkRepeat = [&](const std::string& what, const AnalysisSummary& s, int op) {
    auto& first = firstResult[static_cast<std::size_t>(op % kOpSeeds)];
    if (!first) first = s;
    check.expect(s == *first, what + ": differs from the first op with the same seeds");
  };

  std::vector<double> coldSeconds, warmSeconds, storeBytes;
  LibraryCounts warmLibrary;
  // Traced-run samples, one per traced op.
  std::vector<double> tracedSeconds, coverage, overheadPct, charShare, feaS, mcS,
      mcRate, fitS, saveS, loadS, tuneS, modelS, gridMcS, gridRate, bootstrapS;
  LibraryCounts replayLibrary;
  double l1Discarded = 0, l1Trials = 0, failuresPerTrial = 0.0;
  std::shared_ptr<ViaArrayCharacterizer> plus;

  const auto runStart = Clock::now();
  int op = 0;
  for (; op == 0 || secondsSince(runStart) < options.seconds; ++op) {
    const AnalyzerConfig config = opConfig(options, op);
    const std::string key = "pg1_char." + mode + ".op" + std::to_string(op % kOpSeeds);
    const std::vector<double>* ref = referenceFor(reference, options, key);

    stores.clear();
    OpResult cold, warm;
    check.beginOp();
    try {
      cold = analyzeOnce(netlist, config, stores);
      coldSeconds.push_back(cold.seconds);
      storeBytes.push_back(stores.bytes());
      checkOp(check, key + " cold", cold, config, ref);
      checkRepeat(key + " cold", cold.summary, op);
      check.endOp();
    } catch (const std::exception& e) {
      check.thrown(e.what());
      continue;
    }
    check.beginOp();
    try {
      warm = analyzeOnce(netlist, config, stores);
      warmSeconds.push_back(warm.seconds);
      warmLibrary.hits += warm.library.hits;
      warmLibrary.gets += warm.library.gets;
      checkOp(check, key + " warm", warm, config, ref);
      check.expect(warm.summary == cold.summary, key + ": warm op differs from the cold op");
      check.endOp();
    } catch (const std::exception& e) {
      check.thrown(e.what());
      continue;
    }
    if (!options.trace) continue;

    // Traced run: the same cold/warm pair replayed as layer calls.
    stores.clear();
    for (const bool isWarm : {false, true}) {
      const OpResult& untraced = isWarm ? warm : cold;
      check.beginOp();
      try {
        tr.setEnabled(true);
        const OpResult r = replay(netlist, config, sitePatterns, used, stores, isWarm);
        tr.setEnabled(false);
        checkOp(check, key + (isWarm ? " warm replay" : " cold replay"), r, config, ref);
        check.expect(r.summary == untraced.summary,
                     key + ": replay differs from the analyzer's result");
        check.endOp();
        tracedSeconds.push_back(r.seconds);
        coverage.push_back(tr.childSeconds(r.span) / untraced.seconds);
        overheadPct.push_back(100.0 * (r.seconds - untraced.seconds) / untraced.seconds);
        if (isWarm) {
          loadS.push_back(tr.totalSeconds(r.span, "viaarray.store_load"));
          replayLibrary.hits += r.library.hits;
          replayLibrary.gets += r.library.gets;
          continue;
        }
        const double op_s = tr.span(r.span).seconds();
        charShare.push_back(tr.totalSeconds(r.span, "core.get") / op_s);
        feaS.push_back(tr.totalSeconds(r.span, "viaarray.fea"));
        const double mc = tr.totalSeconds(r.span, "viaarray.mc");
        mcS.push_back(mc);
        mcRate.push_back(r.l1Trials / mc);
        fitS.push_back(tr.totalSeconds(r.span, "viaarray.fit"));
        saveS.push_back(tr.totalSeconds(r.span, "viaarray.store_save"));
        tuneS.push_back(tr.totalSeconds(r.span, "grid.tune"));
        modelS.push_back(tr.totalSeconds(r.span, "grid.model"));
        const double grid = tr.totalSeconds(r.span, "grid.mc");
        gridMcS.push_back(grid);
        gridRate.push_back(config.trials / grid);
        bootstrapS.push_back(tr.totalSeconds(r.span, "common.bootstrap"));
        l1Discarded += r.l1Discarded;
        l1Trials += r.l1Trials;
        failuresPerTrial = r.summary.meanFailures;
        plus = r.plus;
      } catch (const std::exception& e) {
        tr.setEnabled(false);
        check.thrown(e.what());
      }
    }
  }

  const AnalyzerConfig config0 = opConfig(options, 0);
  report.line("workload pg1_char: PG1, " + std::to_string(config0.viaArraySize) + "x" +
              std::to_string(config0.viaArraySize) + " arrays, " +
              std::to_string(config0.characterization.trials) + " level-1 trials, " +
              std::to_string(config0.trials) + " level-2 trials, " +
              std::to_string(op) + " cold+warm op pair(s), " +
              std::to_string(options.threads) + " thread(s)");
  report.metric("setup_s", report.timing("setup_s", setupSamples), "s");
  report.metric("op_s", report.timing("analyze_s", coldSeconds), "s");
  report.timing("warm_analyze_s", warmSeconds);
  if (!storeBytes.empty())
    report.line("store bytes after a cold op = " + fmt(storeBytes.back(), 12));
  if (!options.trace) return;

  report.metric("viaarray.fea_s", median(feaS), "s");
  report.metric("viaarray.mc_s", median(mcS), "s");
  report.metric("viaarray.mc_trials_per_s", median(mcRate), "1/s");
  report.metric("viaarray.fit_s", median(fitS), "s");
  report.metric("viaarray.store_save_s", median(saveS), "s");
  report.metric("viaarray.store_load_s", median(loadS), "s");
  report.metric("viaarray.store_bytes", storeBytes.empty() ? 0.0 : storeBytes.back(), "bytes");
  // Hits over gets of ViaArrayLibrary on warm ops, from the program's own
  // char_cache counters; the replay's count stands in when obs is off.
  const LibraryCounts& lib = warmLibrary.gets > 0 ? warmLibrary : replayLibrary;
  report.metric("viaarray.library_hit_ratio",
                lib.gets > 0 ? static_cast<double>(lib.hits) / lib.gets : 0.0, "ratio");
  report.metric("viaarray.discarded_share", l1Trials > 0 ? l1Discarded / l1Trials : 0.0,
                "ratio");
  report.metric("core.char_share", median(charShare), "ratio");
  report.metric("grid.tune_s", median(tuneS), "s");
  report.metric("grid.model_s", median(modelS), "s");
  report.metric("grid.mc_s", median(gridMcS), "s");
  report.metric("grid.trials_per_s", median(gridRate), "1/s");
  report.metric("grid.failures_per_trial", failuresPerTrial, "count");
  report.metric("common.bootstrap_s", median(bootstrapS), "s");

  // Thread-count invariance of level 1: the Plus characterization again on
  // one thread must reproduce the N-thread traces bit for bit.
  check.beginOp();
  try {
    ViaArrayCharacterizationSpec spec = specFor(config0, IntersectionPattern::kPlus);
    spec.seed = opConfig(options, op - 1).characterization.seed;
    spec.parallelism.threads = 1;
    ViaArrayCharacterizer serial(spec);
    check.expect(plus && sameTraces(serial.traces(), plus->traces()),
                 "level-1 traces differ between 1 and N threads");
    check.endOp();
  } catch (const std::exception& e) {
    check.thrown(e.what());
  }

  reportCoverage(report, coverage);
  report.metric("bench.trace_overhead_pct", median(overheadPct), "%");
  report.timing("traced_op_s", tracedSeconds);
}

}  // namespace perfbench
