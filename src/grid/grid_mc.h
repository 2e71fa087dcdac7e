// Power-grid TTF Monte Carlo (Algorithm 1, level 2).
//
// Components are the via arrays of a PowerGridModel. Each array's TTF
// distribution comes from the level-1 characterization (a two-parameter
// lognormal at the characterization reference current); in the grid, an
// array carrying current I consumes its nucleation budget at a rate
// (I/I_ref)² (Eq. 3). When an array reaches its budget it has hit ITS
// failure criterion and is removed from the grid (opened); the freed
// current redistributes through the mesh, accelerating its neighbors.
// A trial ends when the system criterion is breached: the first array
// failure (weakest-link) or the worst IR drop exceeding the threshold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/lognormal.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "fault/policy.h"
#include "grid/power_grid.h"
#include "grid/wire_mortality.h"

namespace viaduct {

struct GridFailureCriterion {
  enum class Kind { kWeakestLink, kIrDrop };
  Kind kind = Kind::kIrDrop;
  /// Threshold fraction of Vdd for kIrDrop (the paper: 0.10).
  double irDropFraction = 0.10;

  static GridFailureCriterion weakestLink();
  static GridFailureCriterion irDrop(double fraction = 0.10);
  std::string describe() const;
};

/// Per-trial wire-EM audit riding on the Monte Carlo (DESIGN.md §5.14):
/// every failure configuration's DC operating point is checked against the
/// steady-state wire-stress verdicts. The audit is DIAGNOSTIC-ONLY — it
/// never alters TTF samples, so samples stay bit-identical with the audit
/// on or off.
struct GridWireEmOptions {
  /// Shared immutable tree decomposition (WireTreeSet::build). Null
  /// disables the audit. The decomposition is reused across every trial
  /// and failure configuration; only per-branch currents are recomputed.
  std::shared_ptr<const WireTreeSet> trees;
  /// Inert; exists only because the frozen benchmark (perfbench/) sets it.
  SignoffMode mode = SignoffMode::kSteadyState;
  /// Wire stress margin σ_C − σ_T − σ_pkg [Pa].
  double stressMarginPa = 340e6;
  EmParameters params;
  bool enabled() const { return trees != nullptr; }
};

struct GridMcOptions {
  /// Array TTF distribution at the characterization reference current.
  Lognormal arrayTtf{0.0, 1.0};
  /// Optional per-array distributions (e.g. Plus/T/L assigned by mesh
  /// position); when non-empty it must match the model's array count and
  /// overrides `arrayTtf`.
  std::vector<Lognormal> perArrayTtf;

  /// Optional per-array multiplicative TTF scale (e.g. hotspot temperature
  /// derating from em/derating.h); when non-empty it must match the
  /// model's array count. Applied to each sampled budget.
  std::vector<double> perArrayTtfScale;
  /// Characterization reference current [A] (total array current
  /// corresponding to the paper's j = 1e10 A/m² over 1 µm² = 10 mA).
  double referenceCurrentAmps = 0.01;

  GridFailureCriterion systemCriterion;

  int trials = 500;          // the paper's Ntrials
  std::uint64_t seed = 777;

  /// Safety valve: maximum failures simulated per trial (0 = all arrays).
  int maxFailuresPerTrial = 0;

  /// Worker threads for the trials. Trial t draws from the counter-based
  /// stream Rng(seed, t) and runs its own Session, so the samples are
  /// bit-identical for every thread count (including 1).
  Parallelism parallelism;

  /// Crash-safe periodic snapshots of completed trials + resume
  /// (DESIGN.md §5.8). Because trial t is a pure function of
  /// (model, options, t), a resumed run re-derives exactly the missing
  /// trials and is bit-identical to an uninterrupted run at any thread
  /// count and checkpoint cadence. Like `parallelism`, deliberately NOT
  /// part of the snapshot config key.
  checkpoint::Options checkpoint;

  /// What happens when a trial's DC solve fails past recovery: kAbort
  /// rethrows (whole run fails), kDiscard drops the trial from the sample
  /// set (counted in `discardedTrials`), kSalvage keeps the time reached so
  /// far as a censored TTF sample (counted in `salvagedTrials`). Trial
  /// status is a pure function of (model, options, trial), so the
  /// accounting is bit-identical across thread counts. Also threaded into
  /// each trial Session via the model config's own policy.
  fault::FailurePolicy policy;

  /// Optional per-trial wire-EM audit (off when `wireEm.trees` is null).
  /// Joins the checkpoint key: enabling, re-marginning, or re-moding the
  /// audit invalidates prior snapshots.
  GridWireEmOptions wireEm;
};

struct GridMcResult {
  /// One sample per completed-or-salvaged trial, in trial order (discarded
  /// trials are excluded entirely, never zero-filled).
  std::vector<double> ttfSamples;
  double meanFailuresToBreach = 0.0;  // avg #array failures, kept trials only
  /// Failure-policy accounting (see GridMcOptions::policy). Counts cover
  /// resumed trials too: a trial discarded before the checkpoint is still
  /// discarded after the resume.
  int discardedTrials = 0;
  int salvagedTrials = 0;
  /// Trials restored from the checkpoint snapshot instead of re-run.
  int resumedTrials = 0;
  /// Wire-EM audit aggregates over kept+salvaged trials (all zero when the
  /// audit is disabled). Diagnostic-only: independent of `ttfSamples`.
  int wireAuditedConfigs = 0;  // failure configurations audited
  int wireMortalConfigs = 0;   // configs with >= 1 mortal tree/segment
  int wireMortalTrials = 0;    // trials containing any mortal config
  EmpiricalCdf cdf() const { return EmpiricalCdf(ttfSamples); }
};

/// The checkpoint config key for a grid MC run: a digest of the model's
/// electrical structure and every physics-relevant option. A snapshot
/// written under a different key is stale and is rejected on resume.
/// `parallelism` and the checkpoint options themselves are excluded.
std::string gridMcCheckpointKey(const PowerGridModel& model,
                                const GridMcOptions& options);

/// Runs the level-2 Monte Carlo. The model is shared read-only; each trial
/// runs its own failure Session.
GridMcResult runGridMonteCarlo(const PowerGridModel& model,
                               const GridMcOptions& options);

}  // namespace viaduct
