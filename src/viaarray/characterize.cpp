#include "viaarray/characterize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/progress.h"
#include "em/korhonen.h"
#include "fault/fault.h"
#include "fea/thermo_solver.h"
#include "obs/obs.h"
#include "structures/probes.h"
#include "viaarray/cache.h"
#include "viaarray/primitive_store.h"

namespace viaduct {

ViaArrayFailureCriterion ViaArrayFailureCriterion::weakestLink() {
  return {.kind = Kind::kViaCount, .viaCount = 1, .ratio = 0.0};
}

ViaArrayFailureCriterion ViaArrayFailureCriterion::kthVia(int k) {
  VIADUCT_REQUIRE(k >= 1);
  return {.kind = Kind::kViaCount, .viaCount = k, .ratio = 0.0};
}

ViaArrayFailureCriterion ViaArrayFailureCriterion::resistanceRatio(
    double ratio) {
  VIADUCT_REQUIRE(ratio > 1.0);
  return {.kind = Kind::kResistanceRatio, .viaCount = 0, .ratio = ratio};
}

ViaArrayFailureCriterion ViaArrayFailureCriterion::openCircuit() {
  return {.kind = Kind::kOpen, .viaCount = 0, .ratio = 0.0};
}

std::optional<ViaArrayFailureCriterion> ViaArrayFailureCriterion::parse(
    const std::string& s) {
  if (s == "open") return openCircuit();
  if (s == "weakest") return weakestLink();
  if (!s.empty() && s.back() == 'x') {
    const auto ratio = parseDoubleToken(
        std::string_view(s).substr(0, s.size() - 1));
    if (!ratio || !(*ratio > 1.0)) return std::nullopt;
    return resistanceRatio(*ratio);
  }
  const auto k = parseIntToken(s);
  if (!k || *k < 1 || *k > 1'000'000) return std::nullopt;
  return kthVia(static_cast<int>(*k));
}

std::string ViaArrayFailureCriterion::describe() const {
  switch (kind) {
    case Kind::kViaCount:
      return viaCount == 1 ? "weakest-link"
                           : ("via #" + std::to_string(viaCount));
    case Kind::kResistanceRatio: {
      std::ostringstream os;
      os << "R=" << ratio << "x";
      return os.str();
    }
    case Kind::kOpen:
      return "R=inf";
  }
  return "?";
}

double ViaArrayCharacterizationSpec::totalCurrent() const {
  return totalCurrentDensity * array.effectiveArea;
}

std::string ViaArrayCharacterizationSpec::cacheKey() const {
  std::ostringstream os;
  // max_digits10: every distinct double distinct in the key. At the old
  // precision(12), two specs differing only past the 12th significant
  // digit aliased to the same cache entry.
  os.precision(17);
  os << "n=" << array.n << ";A=" << array.effectiveArea
     << ";sp=" << array.minSpacing
     << ";pat=" << patternName(pattern) << ";w=" << wireWidth
     << ";m=" << margin << ";res=" << resolutionXy
     << ";j=" << totalCurrentDensity << ";Rarr=" << network.arrayResistanceOhms
     << ";sheet=" << network.sheetResistancePerSquare
     << ";Ea=" << em.activationEnergyEv << ";D0=" << em.diffusivityPrefactor
     << ";sD=" << em.deffSigma << ";rho=" << em.resistivityOhmM
     << ";B=" << em.bulkModulusPa << ";gam=" << em.surfaceEnergyJm2
     << ";Rf=" << em.meanFlawRadius << ";sRf=" << em.flawSigmaFraction
     << ";T=" << em.temperatureK << ";pkg=" << em.packageStressPa
     << ";cal=" << stressScale << "," << stressOffsetPa
     << ";tr=" << trials << ";seed=" << seed
     << ";stk=" << stack.metalLower << "," << stack.via << ","
     << stack.metalUpper
     // RNG scheme + key-format tag: trial t draws from the counter-based
     // stream Rng(seed, t), and doubles are keyed at max_digits10 (17).
     // Bumping either part invalidates caches written under the old
     // sequential shared-stream scheme or the old precision(12) key
     // format (which aliased near-identical specs). `parallelism`,
     // `policy`, and `checkpoint` are excluded: results are bit-identical
     // for every thread count and checkpoint cadence, and the policy
     // governs recovery, never the physics (runs with discarded/salvaged
     // trials are never persisted).
     << ";rng=ctr1;key=p17"
     // Level-1 network solver: the incremental shared-base/downdate path
     // ("inc1", DESIGN.md §5.9) and the legacy from-scratch LU path
     // ("exact") agree only to ~1e-12, so they key separately — a persisted
     // entry is only rehydrated by the solver that produced it. The
     // residual tolerance governs when the incremental path re-factors,
     // which perturbs results at the same order, so it is part of the key
     // on that path.
     << ";solve=" << (network.exactResolve ? "exact" : "inc1");
  if (!network.exactResolve)
    os << ";rtol=" << network.refreshResidualTolerance;
  // FEA solver tag. The multigrid solve is the only one, so the tag is a
  // literal; it keeps keys byte-identical to entries persisted when the
  // solver was still selectable. (`primitiveStore` is excluded for the
  // same reason `parallelism` is: a warm primitive hit is bit-identical to
  // the computed result.)
  os << ";fea=mg";
  return os.str();
}

std::string ViaArrayCharacterizationSpec::primitiveKey() const {
  std::ostringstream os;
  os.precision(17);  // same max_digits10 discipline as cacheKey()
  os << "n=" << array.n << ";A=" << array.effectiveArea
     << ";sp=" << array.minSpacing << ";pat=" << patternName(pattern)
     << ";w=" << wireWidth << ";m=" << margin << ";res=" << resolutionXy
     << ";stk=" << stack.metalLower << "," << stack.via << ","
     << stack.metalUpper << ";fea=mg";  // literal: see cacheKey()
  // The characterizer runs the solver at ThermoSolverOptions defaults; the
  // temperatures and CG tolerance are keyed by VALUE so a future change of
  // those defaults orphans old primitives instead of silently reusing them.
  const ThermoSolverOptions defaults;
  os << ";Ta=" << defaults.annealTemperatureC
     << ";Top=" << defaults.operatingTemperatureC
     << ";tol=" << defaults.cgRelativeTolerance << ";key=p17v1";
  return os.str();
}

namespace {
BuiltStructure buildFor(const ViaArrayCharacterizationSpec& spec) {
  return buildViaArrayStructure(ViaArrayStructureSpec{
      .viaArray = spec.array,
      .pattern = spec.pattern,
      .wireWidth = spec.wireWidth,
      .margin = spec.margin,
      .resolutionXy = spec.resolutionXy,
      .stack = spec.stack,
  });
}

// The healthy-array crowding network, stamped, solved, and (on the
// incremental path) factored exactly ONCE per characterization; every
// Monte Carlo trial copies this prototype and shares its immutable base
// (DESIGN.md §5.9).
ViaArrayNetwork buildBaseNetwork(const ViaArrayCharacterizationSpec& spec) {
  ViaArrayNetworkConfig netCfg = spec.network;
  netCfg.n = spec.array.n;
  netCfg.totalCurrentAmps = spec.totalCurrent();
  netCfg.policy = spec.policy;
  return ViaArrayNetwork(netCfg);
}
}  // namespace

ViaArrayCharacterizer::ViaArrayCharacterizer(
    const ViaArrayCharacterizationSpec& spec)
    : spec_(spec), built_(buildFor(spec)) {
  spec_.em.validate();
  VIADUCT_REQUIRE(spec_.trials >= 2);
  VIADUCT_REQUIRE(spec_.stressScale > 0.0);

  // Shared base network (also the reference of the R=ratio criterion —
  // the nominal resistance includes the crowding network's plate segments).
  baseNetwork_.emplace(buildBaseNetwork(spec_));
  nominalResistance_ = baseNetwork_->nominalResistance();

  VIADUCT_SPAN("viaarray.characterize_fea");
  // Stress primitive: consult the store before running FEA. A hit is the
  // exact vector a cold run would compute (round-trip-exact doubles), so a
  // warm sweep runs zero solves; an entry of the wrong shape is silent
  // corruption and degrades to recompute-and-rewrite, never an error.
  const std::string pkey = spec_.primitiveKey();
  if (spec_.primitiveStore) {
    if (auto cached = spec_.primitiveStore->load(pkey)) {
      if (cached->size() == built_.vias.size()) {
        VIADUCT_COUNTER_ADD("primitive_store.hits", 1);
        rawSigmaT_ = std::move(*cached);
      } else {
        VIADUCT_COUNTER_ADD("primitive_store.corrupt_entries", 1);
        VIADUCT_WARN << "stress-primitive entry has " << cached->size()
                     << " vias, structure has " << built_.vias.size()
                     << "; recomputing and rewriting";
      }
    } else {
      VIADUCT_COUNTER_ADD("primitive_store.misses", 1);
    }
  }
  int feaIterations = 0;
  if (rawSigmaT_.empty()) {
    ThreadPool pool(spec_.parallelism);
    ThermoSolverOptions feaOpts;
    feaOpts.pool = &pool;
    feaOpts.policy = spec_.policy;
    ThermoSolver solver(built_.grid, feaOpts);
    VIADUCT_COUNTER_ADD("viaarray.fea_solves", 1);
    const CgResult res = solver.solve();
    if (!res.converged) {
      throw NumericalError(
          "FEA thermo-stress solve did not converge after policy retries");
    }
    feaIterations = res.iterations;
    rawSigmaT_ = perViaPeakStress(solver, built_);
    // Persist only a first-attempt solve: a policy retry converges under a
    // tightened tolerance to a field that differs from a clean cold solve,
    // and rehydrating it would break warm == cold bit-identity.
    if (spec_.primitiveStore && solver.retryCount() == 0) {
      spec_.primitiveStore->save(pkey, rawSigmaT_);
    }
  }
  sigmaT_.reserve(rawSigmaT_.size());
  for (double s : rawSigmaT_)
    sigmaT_.push_back(spec_.stressScale * s + spec_.stressOffsetPa);
  VIADUCT_INFO << "characterized " << spec_.array.n << "x" << spec_.array.n
               << " " << patternName(spec_.pattern) << " array: sigma_T in ["
               << *std::min_element(sigmaT_.begin(), sigmaT_.end()) / 1e6
               << ", "
               << *std::max_element(sigmaT_.begin(), sigmaT_.end()) / 1e6
               << "] MPa ("
               << (feaIterations > 0
                       ? std::to_string(feaIterations) + " CG iters"
                       : std::string("stress primitive reused"))
               << ")";
}

ViaArrayCharacterizer::ViaArrayCharacterizer(
    const ViaArrayCharacterizationSpec& spec,
    const CharacterizationData& data)
    : spec_(spec), built_(buildFor(spec)) {
  spec_.em.validate();
  VIADUCT_REQUIRE(spec_.trials >= 2);
  VIADUCT_REQUIRE(spec_.stressScale > 0.0);
  VIADUCT_REQUIRE_MSG(
      data.rawSigmaT.size() == built_.vias.size(),
      "cached stress vector does not match the via count");
  VIADUCT_REQUIRE_MSG(
      data.traces.size() == static_cast<std::size_t>(spec_.trials),
      "cached trace count does not match the spec's trial count");
  for (const auto& t : data.traces) {
    VIADUCT_REQUIRE_MSG(t.failureTimes.size() == built_.vias.size(),
                        "cached trace length does not match the via count");
  }
  baseNetwork_.emplace(buildBaseNetwork(spec_));
  nominalResistance_ = baseNetwork_->nominalResistance();
  rawSigmaT_ = data.rawSigmaT;
  for (double s : rawSigmaT_)
    sigmaT_.push_back(spec_.stressScale * s + spec_.stressOffsetPa);
  traces_ = data.traces;
  tracesReady_ = true;
}

CharacterizationData ViaArrayCharacterizer::exportData() {
  return CharacterizationData{.rawSigmaT = rawSigmaT_, .traces = traces()};
}

void ViaArrayCharacterizer::simulateTrial(Rng& rng,
                                          FailureTrace& trace) const {
  VIADUCT_SPAN("viaarray.mc_trial");
  VIADUCT_COUNTER_ADD("viaarray.trials", 1);
  trace.failureTimes.clear();
  trace.resistanceAfter.clear();
  const int count = spec_.array.viaCount();
  const double viaArea =
      spec_.array.effectiveArea / static_cast<double>(count);

  // Per-via nucleation budget at unit current density: K_i such that the
  // nucleation time at density j is K_i / j² (Eq. 3 scaling). Drawn before
  // the first network solve so the per-trial RNG stream is fully consumed
  // even when that solve fails (budget draws stay aligned across trials).
  std::vector<double> budget(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    budget[static_cast<std::size_t>(i)] =
        sampleTtf(rng, sigmaT_[static_cast<std::size_t>(i)],
                  /*currentDensity=*/1.0, spec_.em);
  }

  // Cheap copy-on-write handle onto the shared healthy base: the healthy
  // solve below is served from the base's memoized voltages, and each
  // failVia() is a rank-1 downdate instead of a fresh factorization.
  ViaArrayNetwork network = *baseNetwork_;

  std::vector<double> damage(static_cast<std::size_t>(count), 0.0);
  std::vector<double> currents = network.viaCurrents();

  trace.failureTimes.reserve(static_cast<std::size_t>(count));
  trace.resistanceAfter.reserve(static_cast<std::size_t>(count));

  double t = 0.0;
  for (int failed = 0; failed < count; ++failed) {
    // Find the next failing via: minimal remaining time.
    double best = std::numeric_limits<double>::infinity();
    int victim = -1;
    std::vector<double> rates(static_cast<std::size_t>(count), 0.0);
    for (int i = 0; i < count; ++i) {
      if (!network.viaAlive(i)) continue;
      const double j = std::abs(currents[static_cast<std::size_t>(i)]) / viaArea;
      const double k = budget[static_cast<std::size_t>(i)];
      double remaining;
      if (k <= 0.0) {
        remaining = 0.0;  // instant nucleation (sigma_C below sigma_T)
        rates[static_cast<std::size_t>(i)] = std::numeric_limits<double>::infinity();
      } else if (j <= 0.0) {
        remaining = std::numeric_limits<double>::infinity();
      } else {
        const double rate = j * j / k;
        rates[static_cast<std::size_t>(i)] = rate;
        remaining = (1.0 - damage[static_cast<std::size_t>(i)]) / rate;
      }
      if (remaining < best) {
        best = remaining;
        victim = i;
      }
    }
    VIADUCT_CHECK_MSG(victim >= 0 && std::isfinite(best),
                      "no failing via found (zero currents everywhere?)");

    // Advance damage on survivors and fail the victim.
    t += best;
    for (int i = 0; i < count; ++i) {
      if (!network.viaAlive(i) || i == victim) continue;
      const double r = rates[static_cast<std::size_t>(i)];
      if (std::isfinite(r)) damage[static_cast<std::size_t>(i)] += r * best;
    }
    network.failVia(victim);
    VIADUCT_COUNTER_ADD("viaarray.via_failures", 1);
    trace.failureTimes.push_back(t);
    if (network.aliveCount() > 0) {
      trace.resistanceAfter.push_back(network.effectiveResistance());
      VIADUCT_COUNTER_ADD("viaarray.network_resolves", 1);
      currents = network.viaCurrents();
    } else {
      trace.resistanceAfter.push_back(std::numeric_limits<double>::infinity());
    }
  }
}

const std::vector<FailureTrace>& ViaArrayCharacterizer::traces() {
  if (!tracesReady_) {
    traces_.assign(static_cast<std::size_t>(spec_.trials), FailureTrace{});
    enum class TrialStatus : unsigned char { kKept, kDiscarded, kSalvaged };
    std::vector<TrialStatus> status(static_cast<std::size_t>(spec_.trials),
                                    TrialStatus::kKept);

    // Checkpoint/resume: restore completed trials (trace payload AND
    // discard/salvage status), then run only what is missing. Snapshots
    // are keyed on cacheKey(), so any physics change rejects them.
    checkpoint::TrialRecorder recorder(spec_.checkpoint, spec_.cacheKey(),
                                       spec_.trials);
    std::vector<unsigned char> done(static_cast<std::size_t>(spec_.trials), 0);
    const std::size_t viaCount = built_.vias.size();
    for (const auto& [trial, record] : recorder.restore()) {
      const auto idx = static_cast<std::size_t>(trial);
      const std::size_t n = record.primary.size();
      const bool shapeOk =
          n == record.secondary.size() &&
          (record.outcome == checkpoint::TrialOutcome::kKept
               ? n == viaCount
               : record.outcome == checkpoint::TrialOutcome::kDiscarded
                     ? n == 0
                     : n <= viaCount);
      if (!shapeOk) {
        VIADUCT_WARN << "checkpoint: trial " << trial
                     << " has an unexpected trace shape; re-running it";
        continue;
      }
      traces_[idx].failureTimes = record.primary;
      traces_[idx].resistanceAfter = record.secondary;
      status[idx] =
          record.outcome == checkpoint::TrialOutcome::kDiscarded
              ? TrialStatus::kDiscarded
              : record.outcome == checkpoint::TrialOutcome::kSalvaged
                    ? TrialStatus::kSalvaged
                    : TrialStatus::kKept;
      done[idx] = 1;
      ++resumedTrials_;
    }

    ThreadPool pool(spec_.parallelism);
    ProgressReporter::Options progressOptions;
    if (recorder.enabled())
      progressOptions.checkpointAgeSeconds = [&recorder] {
        return recorder.secondsSinceLastWrite();
      };
    ProgressReporter progress("viaarray", spec_.trials,
                              std::move(progressOptions));
    progress.seedCompleted(resumedTrials_);
    // Each trial draws from its own counter-based stream Rng(seed, t), so
    // the trial→sample mapping never depends on scheduling and the traces
    // are bit-identical for any thread count (and for any resumed subset).
    // The fault ScopedStream pins armed injection sites to the same
    // per-trial stream, making the discard/salvage pattern equally
    // scheduling-independent.
    pool.parallelFor(0, spec_.trials, 1, [&](std::int64_t trial) {
      const auto idx = static_cast<std::size_t>(trial);
      if (done[idx]) return;  // restored from the checkpoint
      const fault::ScopedStream scope(static_cast<std::uint64_t>(trial));
      Rng rng(spec_.seed, static_cast<std::uint64_t>(trial));
      try {
        simulateTrial(rng, traces_[idx]);
      } catch (const NumericalError&) {
        if (!spec_.policy.enabled ||
            spec_.policy.trialPolicy ==
                fault::FailurePolicy::TrialPolicy::kAbort) {
          throw;
        }
        if (spec_.policy.trialPolicy ==
            fault::FailurePolicy::TrialPolicy::kSalvage) {
          // Keep the via failures recorded before the solve failed: a
          // truncated but valid prefix of the trace.
          status[idx] = TrialStatus::kSalvaged;
        } else {
          traces_[idx] = FailureTrace{};
          status[idx] = TrialStatus::kDiscarded;
        }
      }
      recorder.record(
          {trial,
           status[idx] == TrialStatus::kDiscarded
               ? checkpoint::TrialOutcome::kDiscarded
               : status[idx] == TrialStatus::kSalvaged
                     ? checkpoint::TrialOutcome::kSalvaged
                     : checkpoint::TrialOutcome::kKept,
           traces_[idx].failureTimes, traces_[idx].resistanceAfter});
      progress.trialDone(status[idx] == TrialStatus::kDiscarded ? 1 : 0,
                         status[idx] == TrialStatus::kSalvaged ? 1 : 0);
    });
    recorder.finalize();
    for (const TrialStatus s : status) {
      if (s == TrialStatus::kDiscarded) ++discardedTrials_;
      if (s == TrialStatus::kSalvaged) ++salvagedTrials_;
    }
    if (discardedTrials_ > 0) {
      VIADUCT_COUNTER_ADD("viaarray.trials_discarded", discardedTrials_);
    }
    if (salvagedTrials_ > 0) {
      VIADUCT_COUNTER_ADD("viaarray.trials_salvaged", salvagedTrials_);
    }
    if (discardedTrials_ > 0 || salvagedTrials_ > 0) {
      VIADUCT_INFO << "via-array MC: "
                   << spec_.trials - discardedTrials_ - salvagedTrials_ << "/"
                   << spec_.trials << " trials clean (" << discardedTrials_
                   << " discarded, " << salvagedTrials_ << " salvaged)";
    }
    tracesReady_ = true;
  }
  return traces_;
}

std::vector<double> ViaArrayCharacterizer::ttfSamples(
    const ViaArrayFailureCriterion& criterion) {
  const auto& all = traces();
  const int count = spec_.array.viaCount();
  std::vector<double> samples;
  samples.reserve(all.size());
  for (const auto& trace : all) {
    // Discarded trials leave empty traces; salvaged ones leave a truncated
    // prefix usable only when the criterion fired within it.
    if (trace.failureTimes.empty()) continue;
    const bool complete =
        trace.failureTimes.size() == static_cast<std::size_t>(count);
    double ttf = 0.0;
    bool observed = true;
    switch (criterion.kind) {
      case ViaArrayFailureCriterion::Kind::kViaCount: {
        VIADUCT_REQUIRE_MSG(criterion.viaCount >= 1 &&
                                criterion.viaCount <= count,
                            "criterion via count out of range");
        const auto k = static_cast<std::size_t>(criterion.viaCount);
        if (trace.failureTimes.size() < k) {
          observed = false;
          break;
        }
        ttf = trace.failureTimes[k - 1];
        break;
      }
      case ViaArrayFailureCriterion::Kind::kResistanceRatio: {
        const double limit = criterion.ratio * nominalResistance_;
        observed = false;
        for (std::size_t m = 0; m < trace.resistanceAfter.size(); ++m) {
          if (trace.resistanceAfter[m] >= limit) {
            ttf = trace.failureTimes[m];
            observed = true;
            break;
          }
        }
        if (!observed && complete) {
          ttf = trace.failureTimes.back();  // fallback: open circuit
          observed = true;
        }
        break;
      }
      case ViaArrayFailureCriterion::Kind::kOpen:
        if (!complete) {
          observed = false;
          break;
        }
        ttf = trace.failureTimes.back();
        break;
    }
    if (observed) samples.push_back(ttf);
  }
  if (samples.empty()) {
    throw NumericalError("no usable TTF samples under criterion " +
                         criterion.describe() +
                         " (every trial discarded or censored early)");
  }
  return samples;
}

EmpiricalCdf ViaArrayCharacterizer::ttfCdf(
    const ViaArrayFailureCriterion& criterion) {
  return EmpiricalCdf(ttfSamples(criterion));
}

Lognormal ViaArrayCharacterizer::ttfLognormal(
    const ViaArrayFailureCriterion& criterion) {
  std::vector<double> samples = ttfSamples(criterion);
  std::vector<double> positive;
  positive.reserve(samples.size());
  for (double s : samples)
    if (s > 0.0) positive.push_back(s);
  VIADUCT_CHECK_MSG(positive.size() * 2 > samples.size(),
                    "more than half the TTF samples are zero; the stress "
                    "calibration is unphysical");
  if (positive.size() < samples.size()) {
    VIADUCT_WARN << (samples.size() - positive.size()) << "/" << samples.size()
                 << " trials nucleated instantly; lognormal fit uses the "
                    "positive samples";
  }
  return Lognormal::fitMle(positive);
}

ViaArrayLibrary::ViaArrayLibrary(std::shared_ptr<CharacterizationStore> store)
    : store_(std::move(store)) {}

std::size_t ViaArrayLibrary::size() const {
  std::lock_guard lock(mutex_);
  return cache_.size();
}

std::shared_ptr<ViaArrayCharacterizer> ViaArrayLibrary::get(
    const ViaArrayCharacterizationSpec& spec, GetInfo* info) {
  const std::string key = spec.cacheKey();

  std::shared_future<Shared> theirs;
  std::promise<Shared> mine;
  {
    std::unique_lock lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      VIADUCT_COUNTER_ADD("char_cache.memory_hit", 1);
      if (info) info->memoryHit = true;
      return it->second;
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      theirs = it->second;
    } else {
      inflight_.emplace(key, mine.get_future().share());
    }
  }

  if (theirs.valid()) {
    // Another thread is characterizing this exact key right now: wait on
    // its future instead of duplicating an FEA solve + Monte Carlo. A
    // failure over there rethrows here too.
    VIADUCT_COUNTER_ADD("char_cache.inflight_join", 1);
    if (info) info->joinedInFlight = true;
    return theirs.get();
  }

  try {
    Shared created = compute(spec, key);
    {
      std::lock_guard lock(mutex_);
      cache_.emplace(key, created);
      inflight_.erase(key);
    }
    mine.set_value(created);
    return created;
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      inflight_.erase(key);
    }
    mine.set_exception(std::current_exception());
    throw;
  }
}

ViaArrayLibrary::Shared ViaArrayLibrary::compute(
    const ViaArrayCharacterizationSpec& spec, const std::string& key) {
  if (store_) {
    if (const auto data = store_->load(key)) {
      VIADUCT_COUNTER_ADD("char_cache.store_hit", 1);
      try {
        return std::make_shared<ViaArrayCharacterizer>(spec, *data);
      } catch (const PreconditionError& e) {
        // The entry parsed but its shape contradicts the spec: silent
        // corruption. Recompute-and-rewrite (below) under the policy;
        // otherwise surface the corruption to the caller.
        VIADUCT_COUNTER_ADD("char_cache.corrupt_entries", 1);
        if (!spec.policy.enabled || !spec.policy.recomputeOnCacheCorruption) {
          throw;
        }
        VIADUCT_WARN << "characterization cache entry is corrupt (" << e.what()
                     << "); recomputing and rewriting";
      }
    }
  }

  VIADUCT_COUNTER_ADD("char_cache.miss", 1);
  auto created = std::make_shared<ViaArrayCharacterizer>(spec);
  // Force the Monte Carlo before publication: every access through the
  // library after this point is read-only, so concurrent requests may
  // share the characterizer (and its base-factor prototype) freely.
  created->traces();
  if (store_) {
    if (created->discardedTrials() == 0 && created->salvagedTrials() == 0) {
      store_->save(key, created->exportData());
    } else {
      // Never persist a run with policy-altered traces: the cache key has
      // no policy component, so a later policy-free run must not rehydrate
      // censored data.
      VIADUCT_INFO << "characterization not persisted: "
                   << created->discardedTrials() << " discarded / "
                   << created->salvagedTrials() << " salvaged trial(s)";
    }
  }
  return created;
}

}  // namespace viaduct
