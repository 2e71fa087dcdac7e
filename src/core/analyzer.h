// viaduct public facade: end-to-end EM reliability analysis of a power
// grid with via arrays.
//
// Typical use (see examples/quickstart.cpp):
//
//   Netlist netlist = generatePgBenchmark(PgPreset::kPg1);
//   AnalyzerConfig config;
//   config.viaArraySize = 4;                       // 4×4 arrays everywhere
//   PowerGridEmAnalyzer analyzer(netlist, config);
//   GridTtfReport report = analyzer.analyze(
//       ViaArrayFailureCriterion::openCircuit(),
//       GridFailureCriterion::irDrop(0.10));
//   std::cout << report.worstCaseYears << "\n";
//
// The analyzer (1) characterizes the requested via-array configuration per
// intersection pattern (FEA + level-1 Monte Carlo, memoized), (2) assigns
// each via-array site in the grid a pattern by mesh position (interior →
// Plus, edge → T, corner → L), and (3) runs the level-2 grid Monte Carlo.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grid/grid_mc.h"
#include "grid/power_grid.h"
#include "spice/netlist.h"
#include "viaarray/characterize.h"

namespace viaduct {

struct AnalyzerConfig {
  /// n for the n×n via arrays used at every site (the paper compares 4, 8).
  int viaArraySize = 4;

  /// Level-1 characterization template; `array.n` and `pattern` are set by
  /// the analyzer per site.
  ViaArrayCharacterizationSpec characterization;

  /// Electrical/netlist handling.
  PowerGridConfig gridConfig;

  /// Assign Plus/T/L characterizations by mesh position parsed from
  /// "Rvia_<x>_<y>" names. When false (or when names are not positional),
  /// every site uses the Plus pattern.
  bool usePositionalPatterns = true;

  /// If set, loads are rescaled so the healthy grid's worst IR drop equals
  /// this fraction of Vdd before analysis (the paper tunes its benchmarks
  /// to a "reasonable IR drop").
  std::optional<double> tuneNominalIrDropFraction = 0.06;

  /// Grid Monte Carlo.
  int trials = 500;
  std::uint64_t seed = 777;

  /// Worker threads for both Monte Carlo levels and the FEA solves
  /// (0 = hardware concurrency). Results are bit-identical for every
  /// thread count; see DESIGN.md §5.5.
  Parallelism parallelism;

  /// Failure policy threaded into every subsystem: FEA/CG retry ladders,
  /// Woodbury recovery, cache-corruption recompute, and per-trial
  /// salvage/discard semantics in both Monte Carlo levels (DESIGN.md §5.7).
  fault::FailurePolicy policy;

  /// Crash-safe checkpoint/resume for both Monte Carlo levels
  /// (DESIGN.md §5.8). `checkpoint.path` names the level-2 grid snapshot;
  /// each level-1 characterization snapshots to
  /// `<path>.l1-<pattern>` alongside it. A resumed analysis is
  /// bit-identical to an uninterrupted one.
  checkpoint::Options checkpoint;

  /// Per-trial wire-EM audit of every Monte Carlo failure configuration
  /// (DESIGN.md §5.14) with the closed-form steady-state verdict.
  /// Diagnostic-only: TTF samples are bit-identical with the audit on or
  /// off.
  bool wireEmAudit = false;
  /// Inert; exists only because the frozen benchmark (perfbench/) sets it.
  SignoffMode emMode = SignoffMode::kSteadyState;
  /// Wire geometry / stress margin for the audit.
  WireGeometry wireGeometry;
  double wireStressMarginPa = 340e6;
  EmParameters wireEmParams;
};

struct GridTtfReport {
  GridMcResult mc;
  double worstCaseYears = 0.0;   // 0.3rd percentile
  /// 95% bootstrap confidence interval of the 0.3%ile estimate [years] —
  /// tail percentiles at Ntrials = 500 carry real sampling error.
  double worstCaseCiLowYears = 0.0;
  double worstCaseCiHighYears = 0.0;
  double medianYears = 0.0;
  double meanFailuresToBreach = 0.0;
  double nominalIrDropFraction = 0.0;
  /// Grid-level trials dropped / censored by the failure policy (mirrors
  /// mc.discardedTrials / mc.salvagedTrials for report consumers).
  int discardedTrials = 0;
  int salvagedTrials = 0;
  /// Grid-level trials restored from a checkpoint snapshot (mirrors
  /// mc.resumedTrials).
  int resumedTrials = 0;
  /// Wire-EM audit aggregates (mirrors mc.wire*; zero when the audit is
  /// off).
  int wireAuditedConfigs = 0;
  int wireMortalConfigs = 0;
  int wireMortalTrials = 0;
  std::string arrayCriterion;
  std::string systemCriterion;
};

class PowerGridEmAnalyzer {
 public:
  /// Takes a copy of the netlist (it may be retuned); the optional library
  /// allows characterizations to be shared across analyzers/benchmarks.
  PowerGridEmAnalyzer(Netlist netlist, const AnalyzerConfig& config,
                      std::shared_ptr<ViaArrayLibrary> library = nullptr);

  const PowerGridModel& model() const { return *model_; }
  const Netlist& netlist() const { return netlist_; }
  ViaArrayLibrary& library() { return *library_; }

  /// Pattern assigned to each via-array site (after positional analysis).
  const std::vector<IntersectionPattern>& sitePatterns() const {
    return sitePatterns_;
  }

  /// Runs the full two-level analysis for one criteria pair.
  GridTtfReport analyze(const ViaArrayFailureCriterion& arrayCriterion,
                        const GridFailureCriterion& systemCriterion);

  /// The characterization spec the analyzer uses for a pattern (exposed
  /// for benches that need the level-1 artifacts).
  ViaArrayCharacterizationSpec specForPattern(IntersectionPattern p) const;

 private:
  void assignPatterns();

  Netlist netlist_;
  AnalyzerConfig config_;
  std::shared_ptr<ViaArrayLibrary> library_;
  std::unique_ptr<PowerGridModel> model_;
  std::vector<IntersectionPattern> sitePatterns_;
  double nominalIrDropFraction_ = 0.0;
};

}  // namespace viaduct
