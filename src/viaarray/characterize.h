// Via-array TTF characterization (Algorithm 1, level 1).
//
// For one via-array configuration (size, pattern, wire width), this:
//   1. runs the FEA thermomechanical solve once and extracts the per-via
//      peak stress σ_T (§3.2);
//   2. Monte Carlo simulates sequential via failures with current
//      redistribution through the crowding network (§4): each via draws a
//      lognormal nucleation-time budget from the Korhonen model, consumes
//      it at a rate ∝ j² (Eq. 3), and failures re-solve the network;
//   3. evaluates the TTF distribution under any failure criterion (k-th
//      via, resistance ratio, or open circuit) from the recorded failure
//      traces, and fits the two-parameter lognormal that the power-grid
//      level samples (§5.1).
//
// Characterization is a per-technology one-time step (like standard-cell
// characterization); ViaArrayLibrary memoizes it per configuration.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/lognormal.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "em/em_params.h"
#include "fault/policy.h"
#include "fea/thermo_solver.h"
#include "structures/cudd_builder.h"
#include "viaarray/network.h"

namespace viaduct {

class StressPrimitiveStore;  // viaarray/primitive_store.h

/// Default affine calibration of raw FEA hydrostatic stress onto the
/// paper's reported 180–280 MPa window (single global map, applied to all
/// configurations so that all *differences* are preserved; see DESIGN.md §6).
inline constexpr double kDefaultStressScale = 0.80;
inline constexpr double kDefaultStressOffsetPa = 0.0;

/// When a via array is deemed failed (§4/§5.1).
struct ViaArrayFailureCriterion {
  enum class Kind { kViaCount, kResistanceRatio, kOpen };
  Kind kind = Kind::kOpen;
  int viaCount = 1;      // for kViaCount
  double ratio = 2.0;    // for kResistanceRatio: R >= ratio * nominal

  static ViaArrayFailureCriterion weakestLink();
  static ViaArrayFailureCriterion kthVia(int k);
  static ViaArrayFailureCriterion resistanceRatio(double ratio);
  static ViaArrayFailureCriterion openCircuit();

  /// Parses the CLI/serving spelling: "open", "weakest", "<k>" (k-th via),
  /// or "<r>x" (resistance ratio, e.g. "2x"). Locale-independent;
  /// std::nullopt on anything else (including k < 1 or r <= 1).
  static std::optional<ViaArrayFailureCriterion> parse(const std::string& s);

  std::string describe() const;
};

struct ViaArrayCharacterizationSpec {
  ViaArraySpec array;
  IntersectionPattern pattern = IntersectionPattern::kPlus;
  double wireWidth = 2.0e-6;
  double margin = 1.5e-6;
  /// One lateral resolution for ALL configurations being compared (peak
  /// stress sampling is resolution dependent). 0.125 µm resolves 8×8.
  double resolutionXy = 0.125e-6;
  StackSpec stack;

  /// Total current density over the effective via area [A/m²]; the paper
  /// stresses the Figure 8 array at 1e10 A/m².
  double totalCurrentDensity = 1.0e10;

  /// Crowding-network electrical config (totalCurrentAmps is derived, see
  /// below). `network.exactResolve` selects the legacy from-scratch LU
  /// solver instead of the incremental shared-base/downdate path for A/B
  /// verification; the two key separately in cacheKey().
  ViaArrayNetworkConfig network;
  EmParameters em;

  double stressScale = kDefaultStressScale;
  double stressOffsetPa = kDefaultStressOffsetPa;

  /// Optional on-disk store of FEA stress primitives, consulted before
  /// running the solve (viaarray/primitive_store.h): a warm store
  /// characterizes with ZERO FEA solves, bit-identically to a cold run.
  /// Like `parallelism`, deliberately NOT part of cacheKey() or
  /// primitiveKey() — where the primitive came from never changes it.
  std::shared_ptr<StressPrimitiveStore> primitiveStore;

  int trials = 500;
  std::uint64_t seed = 12345;

  /// Worker threads for the FEA solve and the Monte Carlo trials. Trial t
  /// draws from the counter-based stream Rng(seed, t) and the FEA kernels
  /// chunk with fixed grains, so results are bit-identical for every
  /// thread count — which is why this is deliberately NOT part of
  /// cacheKey().
  Parallelism parallelism;

  /// Failure policy: FEA retry ladder, per-trial salvage/discard semantics
  /// in the failure Monte Carlo, and cache-corruption recovery in
  /// ViaArrayLibrary. Like `parallelism`, deliberately NOT part of
  /// cacheKey() — the policy only governs recovery, never the physics.
  fault::FailurePolicy policy;

  /// Crash-safe periodic snapshots of completed Monte Carlo trials +
  /// resume (DESIGN.md §5.8). Snapshots are keyed on cacheKey(), so a
  /// stale snapshot is rejected, never silently resumed. Like
  /// `parallelism`, deliberately NOT part of cacheKey() — a resumed run is
  /// bit-identical to an uninterrupted one.
  checkpoint::Options checkpoint;

  /// Total array current [A] implied by the density and effective area.
  double totalCurrent() const;

  /// Stable cache key over every physical field.
  std::string cacheKey() const;

  /// Stable key over exactly the fields the FEA stress primitive depends
  /// on: geometry, stack, mesh resolution, and the solver settings
  /// (solver tag, temperatures, CG tolerance). Same p17 double
  /// discipline as cacheKey(). Changing the EM model, trial count, or seed
  /// leaves this key — and the cached primitive — untouched.
  std::string primitiveKey() const;
};

/// One Monte Carlo trial's full failure trace.
struct FailureTrace {
  /// failureTimes[m] = time [s] of the (m+1)-th via failure.
  std::vector<double> failureTimes;
  /// resistanceAfter[m] = array resistance [Ω] after that failure
  /// (infinity for the last).
  std::vector<double> resistanceAfter;
};

struct CharacterizationData;  // viaarray/cache.h

class ViaArrayCharacterizer {
 public:
  explicit ViaArrayCharacterizer(const ViaArrayCharacterizationSpec& spec);

  /// Rehydrates from persisted data (viaarray/cache.h), skipping the FEA
  /// solve and the Monte Carlo. The data must match the spec (via count
  /// and trial count are validated).
  ViaArrayCharacterizer(const ViaArrayCharacterizationSpec& spec,
                        const CharacterizationData& data);

  /// Exports the persistable payload (forces the Monte Carlo to run).
  CharacterizationData exportData();

  const ViaArrayCharacterizationSpec& spec() const { return spec_; }

  /// Calibrated per-via σ_T [Pa], in BuiltStructure::vias order.
  const std::vector<double>& sigmaT() const { return sigmaT_; }

  /// Raw (uncalibrated) FEA per-via peak stress [Pa].
  const std::vector<double>& rawSigmaT() const { return rawSigmaT_; }

  const BuiltStructure& structure() const { return built_; }

  /// Runs (or returns memoized) Monte Carlo traces. A trial whose network
  /// solve fails past the policy is left as an empty trace (kDiscard) or a
  /// partial one (kSalvage); see the accounting accessors below.
  const std::vector<FailureTrace>& traces();

  /// Failure-policy accounting over the Monte Carlo (0 until traces() ran).
  /// Counts include trials restored from a checkpoint snapshot.
  int discardedTrials() const { return discardedTrials_; }
  int salvagedTrials() const { return salvagedTrials_; }

  /// Trials restored from the checkpoint snapshot instead of re-run
  /// (0 until traces() ran, and always 0 without spec.checkpoint.resume).
  int resumedTrials() const { return resumedTrials_; }

  /// TTF samples [s] under a criterion — one per trial that observed the
  /// criterion (discarded trials and salvaged trials that ended before the
  /// criterion are excluded).
  std::vector<double> ttfSamples(const ViaArrayFailureCriterion& criterion);

  /// Empirical CDF of the TTF under a criterion.
  EmpiricalCdf ttfCdf(const ViaArrayFailureCriterion& criterion);

  /// Two-parameter lognormal fit of the TTF (log-space MLE over nonzero
  /// samples; zero samples are counted and must be rare).
  Lognormal ttfLognormal(const ViaArrayFailureCriterion& criterion);

  /// Healthy-array network resistance (reference for ratio criteria) [Ω].
  double nominalResistance() const { return nominalResistance_; }

 private:
  /// Fills `trace` progressively (cleared first), so a trial aborted by a
  /// solver failure leaves every via failure recorded so far behind for
  /// salvage accounting.
  void simulateTrial(Rng& rng, FailureTrace& trace) const;

  ViaArrayCharacterizationSpec spec_;
  BuiltStructure built_;
  /// Healthy-array network prototype: stamped, solved, and (incremental
  /// path) factored once; each Monte Carlo trial copies it and shares the
  /// immutable base state (DESIGN.md §5.9). Never mutated after
  /// construction, so concurrent per-trial copies are safe.
  std::optional<ViaArrayNetwork> baseNetwork_;
  double nominalResistance_ = 0.0;
  std::vector<double> rawSigmaT_;
  std::vector<double> sigmaT_;
  std::vector<FailureTrace> traces_;
  bool tracesReady_ = false;
  int discardedTrials_ = 0;
  int salvagedTrials_ = 0;
  int resumedTrials_ = 0;
};

/// Memoizing library of characterizers keyed by spec.cacheKey(). This is
/// the object the power-grid analysis consults; it plays the role of the
/// precharacterized technology library of §5.1.
class CharacterizationStore;  // viaarray/cache.h

class ViaArrayLibrary {
 public:
  ViaArrayLibrary() = default;

  /// A library backed by an on-disk store: misses are computed, persisted,
  /// and shared across processes (see viaarray/cache.h).
  explicit ViaArrayLibrary(std::shared_ptr<CharacterizationStore> store);

  /// How a get() was satisfied (serving-layer accounting, DESIGN.md §5.13).
  struct GetInfo {
    /// Served from the in-memory map with no work at all.
    bool memoryHit = false;
    /// Another thread was already characterizing the same key; this call
    /// waited on its future instead of recomputing.
    bool joinedInFlight = false;
  };

  /// Returns a shared characterizer for the spec (creating it — including
  /// the FEA solve and the Monte Carlo — on first use, or rehydrating from
  /// the store). Thread-safe: concurrent calls for the same key are
  /// deduplicated in flight (the second caller blocks on the first's
  /// future; counter `char_cache.inflight_join`), and the published
  /// characterizer has its traces forced so every later access is
  /// read-only. A failed computation rethrows on every caller waiting on
  /// that key.
  std::shared_ptr<ViaArrayCharacterizer> get(
      const ViaArrayCharacterizationSpec& spec, GetInfo* info = nullptr);

  std::size_t size() const;

 private:
  using Shared = std::shared_ptr<ViaArrayCharacterizer>;

  /// The store-load / compute / store-save miss path (no locks held).
  Shared compute(const ViaArrayCharacterizationSpec& spec,
                 const std::string& key);

  mutable std::mutex mutex_;
  std::map<std::string, Shared> cache_;
  /// In-flight computations by cache key; erased once published/failed.
  std::map<std::string, std::shared_future<Shared>> inflight_;
  std::shared_ptr<CharacterizationStore> store_;
};

}  // namespace viaduct
