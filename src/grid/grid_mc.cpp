#include "grid/grid_mc.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "common/progress.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

GridFailureCriterion GridFailureCriterion::weakestLink() {
  return {.kind = Kind::kWeakestLink, .irDropFraction = 0.0};
}

GridFailureCriterion GridFailureCriterion::irDrop(double fraction) {
  VIADUCT_REQUIRE(fraction > 0.0 && fraction < 1.0);
  return {.kind = Kind::kIrDrop, .irDropFraction = fraction};
}

std::string GridFailureCriterion::describe() const {
  if (kind == Kind::kWeakestLink) return "weakest-link";
  return std::to_string(static_cast<int>(irDropFraction * 100.0 + 0.5)) +
         "% IR-drop";
}

namespace {

/// Trials are partitioned into fixed chunks of this size (a compile-time
/// constant, never derived from the thread count, so the chunk layout is
/// identical for any pool size). Scratch buffers are reused across the
/// trials of a chunk.
constexpr std::int64_t kTrialChunk = 4;

/// Per-trial scratch, reused across the trials of a chunk to avoid
/// re-allocating the three O(count) vectors every trial.
struct TrialWorkspace {
  std::vector<double> budget;
  std::vector<double> damage;
  std::vector<double> rates;
  /// Wire-EM audit buffers (sized once per chunk when the audit is on).
  WireTreeSet::Scratch emScratch;
};

/// One trial of sequential array failures (damage-accumulation form of
/// Algorithm 1: budgets are consumed at a current-dependent rate, so TTFs
/// re-scale automatically whenever the currents redistribute).
///
/// `progressOut` and `failuresOut` are kept current as the trial advances,
/// so a trial aborted mid-flight by a solver failure leaves the time
/// reached and failures simulated so far behind for salvage accounting.
double runTrial(const PowerGridModel& model, const GridMcOptions& options,
                Rng& rng, TrialWorkspace& ws, int* failuresOut,
                double* progressOut, int* wireAuditedOut = nullptr,
                int* wireMortalOut = nullptr) {
  VIADUCT_SPAN("grid_mc.trial");
  VIADUCT_COUNTER_ADD("grid_mc.trials", 1);
  const int count = static_cast<int>(model.viaArrays().size());
  VIADUCT_CHECK(count > 0);

  // Per-array budget: nucleation time if the array carried I_ref forever.
  std::vector<double>& budget = ws.budget;
  budget.resize(static_cast<std::size_t>(count));
  if (!options.perArrayTtf.empty()) {
    VIADUCT_REQUIRE(options.perArrayTtf.size() == budget.size());
    for (std::size_t m = 0; m < budget.size(); ++m)
      budget[m] = options.perArrayTtf[m].sample(rng);
  } else {
    for (auto& b : budget) b = options.arrayTtf.sample(rng);
  }
  if (!options.perArrayTtfScale.empty()) {
    VIADUCT_REQUIRE(options.perArrayTtfScale.size() == budget.size());
    for (std::size_t m = 0; m < budget.size(); ++m) {
      VIADUCT_REQUIRE_MSG(options.perArrayTtfScale[m] > 0.0,
                          "TTF scale factors must be positive");
      budget[m] *= options.perArrayTtfScale[m];
    }
  }

  // Diagnostic wire-EM audit of each failure configuration's operating
  // point. Never feeds back into the TTF samples (bit-identity with the
  // audit on or off).
  const bool wireAudit = options.wireEm.enabled();
  auto auditConfig = [&](const PowerGridModel::DcSolution& s) {
    if (!wireAudit) return;
    const WireTreeSet::Audit audit = options.wireEm.trees->audit(
        model, s, options.wireEm.stressMarginPa, options.wireEm.params,
        ws.emScratch);
    if (wireAuditedOut) ++*wireAuditedOut;
    if (wireMortalOut && audit.anyMortal()) ++*wireMortalOut;
  };

  PowerGridModel::Session session(model);
  PowerGridModel::DcSolution sol = session.solve();
  if (!sol.solverOk) {
    throw NumericalError("grid MC: healthy grid DC solve failed: " +
                         sol.solverError);
  }
  auditConfig(sol);
  VIADUCT_CHECK_MSG(
      sol.worstIrDropFraction < options.systemCriterion.irDropFraction ||
          options.systemCriterion.kind == GridFailureCriterion::Kind::kWeakestLink,
      "healthy grid already violates the IR-drop criterion; retune loads");

  std::vector<double>& damage = ws.damage;
  damage.assign(static_cast<std::size_t>(count), 0.0);
  const double iRef = options.referenceCurrentAmps;
  VIADUCT_REQUIRE(iRef > 0.0);

  const int maxFailures = options.maxFailuresPerTrial > 0
                              ? std::min(options.maxFailuresPerTrial, count)
                              : count;

  // Hoisted out of the failure loop: every alive array's entry is
  // overwritten each iteration and open arrays are skipped by both readers,
  // so no per-iteration zero-fill (or allocation) is needed.
  std::vector<double>& rates = ws.rates;
  rates.resize(static_cast<std::size_t>(count));

  double t = 0.0;
  for (int failed = 0; failed < maxFailures; ++failed) {
    // Next victim: minimal remaining time under current rates.
    double best = std::numeric_limits<double>::infinity();
    int victim = -1;
    for (int m = 0; m < count; ++m) {
      if (session.arrayOpen(m)) continue;
      const double ratio = sol.viaArrayCurrents[static_cast<std::size_t>(m)] / iRef;
      const double rate = ratio * ratio / budget[static_cast<std::size_t>(m)];
      rates[static_cast<std::size_t>(m)] = rate;
      if (rate <= 0.0) continue;
      const double remaining =
          (1.0 - damage[static_cast<std::size_t>(m)]) / rate;
      if (remaining < best) {
        best = remaining;
        victim = m;
      }
    }
    if (victim < 0) {
      // No array carries current (fully partitioned grid without IR
      // breach cannot happen — loads guarantee current somewhere).
      VIADUCT_WARN << "grid MC: no active array carries current; trial ends";
      return t;
    }

    t += best;
    if (progressOut) *progressOut = t;
    for (int m = 0; m < count; ++m) {
      if (session.arrayOpen(m) || m == victim) continue;
      damage[static_cast<std::size_t>(m)] +=
          rates[static_cast<std::size_t>(m)] * best;
    }
    session.openArray(victim);
    damage[static_cast<std::size_t>(victim)] = 1.0;
    VIADUCT_COUNTER_ADD("grid_mc.array_failures", 1);
    if (failuresOut) *failuresOut = failed + 1;

    if (options.systemCriterion.kind ==
        GridFailureCriterion::Kind::kWeakestLink) {
      return t;
    }

    VIADUCT_COUNTER_ADD("grid_mc.resolves", 1);
    sol = session.solve();
    if (!sol.solverOk) {
      throw NumericalError("grid MC: DC re-solve failed after " +
                           std::to_string(failed + 1) +
                           " array failure(s): " + sol.solverError);
    }
    auditConfig(sol);
    if (sol.worstIrDropFraction >= options.systemCriterion.irDropFraction) {
      return t;
    }
  }
  // Exhausted the failure budget without breaching: report the last time
  // (conservative; with maxFailures == count the grid is fully open and the
  // IR criterion must have fired earlier).
  VIADUCT_WARN << "grid MC: trial hit the failure cap without breaching";
  if (failuresOut) *failuresOut = maxFailures;
  return t;
}

}  // namespace

std::string gridMcCheckpointKey(const PowerGridModel& model,
                                const GridMcOptions& options) {
  std::ostringstream os;
  os.precision(17);
  std::ostringstream dists;
  dists.precision(17);
  for (const auto& d : options.perArrayTtf)
    dists << d.mu() << ',' << d.sigma() << ';';
  dists << '|';
  for (const double s : options.perArrayTtfScale) dists << s << ';';
  // v3: the wire-EM audit joined the key (and, when enabled, the trial
  // payload grows two audit values), so snapshots written with a different
  // margin / tree decomposition must not be resumed.
  // v4: supernodal+AMD became the only grid backend. Samples moved by
  // ~1e-10 and are persisted bit-exactly, so no v3 snapshot (written by
  // any backend) may resume.
  os << "gridmc-v4;model=" << std::hex << model.structureDigest() << std::dec
     << ";ttf=" << options.arrayTtf.mu() << ',' << options.arrayTtf.sigma()
     << ";per=" << std::hex << fnv1aHash(dists.str()) << std::dec
     << ";iref=" << options.referenceCurrentAmps
     << ";crit=" << static_cast<int>(options.systemCriterion.kind) << ','
     << options.systemCriterion.irDropFraction
     << ";tr=" << options.trials << ";seed=" << options.seed
     << ";maxf=" << options.maxFailuresPerTrial
     // The trial policy shapes the persisted outcome statuses, so a
     // snapshot written under a different policy must not be resumed.
     << ";pol=" << options.policy.enabled << ','
     << static_cast<int>(options.policy.trialPolicy);
  os << ";em=";
  if (options.wireEm.enabled()) {
    // The tree digest covers topology + geometry; the unit-j stress
    // gradient eZ*ρ/Ω and the margin cover every physics input to the
    // verdicts. "steady" is a literal: it was once the selected verdict
    // mode, and keeping its bytes lets existing steady snapshots resume.
    os << "steady,"
       << options.wireEm.stressMarginPa << ','
       << stressGradientPerMeter(1.0, options.wireEm.params) << ','
       << std::hex << options.wireEm.trees->digest() << std::dec;
  } else {
    os << "off";
  }
  return os.str();
}

namespace {

enum class TrialStatus : unsigned char { kKept, kDiscarded, kSalvaged };

checkpoint::TrialOutcome toOutcome(TrialStatus status) {
  switch (status) {
    case TrialStatus::kDiscarded:
      return checkpoint::TrialOutcome::kDiscarded;
    case TrialStatus::kSalvaged:
      return checkpoint::TrialOutcome::kSalvaged;
    case TrialStatus::kKept:
      break;
  }
  return checkpoint::TrialOutcome::kKept;
}

TrialStatus fromOutcome(checkpoint::TrialOutcome outcome) {
  switch (outcome) {
    case checkpoint::TrialOutcome::kDiscarded:
      return TrialStatus::kDiscarded;
    case checkpoint::TrialOutcome::kSalvaged:
      return TrialStatus::kSalvaged;
    case checkpoint::TrialOutcome::kKept:
      break;
  }
  return TrialStatus::kKept;
}

}  // namespace

GridMcResult runGridMonteCarlo(const PowerGridModel& model,
                               const GridMcOptions& options) {
  VIADUCT_REQUIRE(options.trials >= 1);
  VIADUCT_SPAN("grid_mc.run");
  const auto wallStart = std::chrono::steady_clock::now();
  GridMcResult result;
  std::vector<double> samples(static_cast<std::size_t>(options.trials), 0.0);
  std::vector<int> failures(static_cast<std::size_t>(options.trials), 0);
  std::vector<TrialStatus> status(static_cast<std::size_t>(options.trials),
                                  TrialStatus::kKept);
  const bool wireAudit = options.wireEm.enabled();
  std::vector<int> wireAudited(static_cast<std::size_t>(options.trials), 0);
  std::vector<int> wireMortal(static_cast<std::size_t>(options.trials), 0);

  // Checkpoint/resume: restore completed trials (value, failure count, and
  // discard/salvage status all come from the snapshot, so the accounting
  // survives the resume), then run only what is missing.
  checkpoint::TrialRecorder recorder(
      options.checkpoint, gridMcCheckpointKey(model, options), options.trials);
  std::vector<unsigned char> done(static_cast<std::size_t>(options.trials), 0);
  // When the audit is on, the payload carries two extra values (configs
  // audited, mortal configs) so resumed runs keep their audit aggregates.
  const std::size_t wantPayload = wireAudit ? 4 : 2;
  for (const auto& [trial, record] : recorder.restore()) {
    const auto idx = static_cast<std::size_t>(trial);
    if (record.primary.size() != wantPayload || !record.secondary.empty()) {
      VIADUCT_WARN << "checkpoint: trial " << trial
                   << " has an unexpected payload; re-running it";
      continue;
    }
    samples[idx] = record.primary[0];
    failures[idx] = static_cast<int>(record.primary[1]);
    if (wireAudit) {
      wireAudited[idx] = static_cast<int>(record.primary[2]);
      wireMortal[idx] = static_cast<int>(record.primary[3]);
    }
    status[idx] = fromOutcome(record.outcome);
    done[idx] = 1;
    ++result.resumedTrials;
  }

  // Each trial draws from its own counter-based stream Rng(seed, trial)
  // and runs a private Session, so every trial's sample is a pure function
  // of (model, options, trial) — never of scheduling — and the result is
  // bit-identical for any thread count. The fault ScopedStream pins any
  // armed injection site to the same per-trial stream, so injected-fault
  // schedules (and hence the discard/salvage pattern) are too.
  ThreadPool pool(options.parallelism);
  ProgressReporter::Options progressOptions;
  if (recorder.enabled())
    progressOptions.checkpointAgeSeconds = [&recorder] {
      return recorder.secondsSinceLastWrite();
    };
  ProgressReporter progress("grid_mc", options.trials,
                            std::move(progressOptions));
  progress.seedCompleted(result.resumedTrials);
  pool.runChunks(
      0, options.trials, kTrialChunk, [&](std::int64_t lo, std::int64_t hi) {
        TrialWorkspace ws;
        if (wireAudit) ws.emScratch = options.wireEm.trees->makeScratch();
        for (std::int64_t trial = lo; trial < hi; ++trial) {
          const auto idx = static_cast<std::size_t>(trial);
          if (done[idx]) continue;  // restored from the checkpoint
          const fault::ScopedStream scope(static_cast<std::uint64_t>(trial));
          Rng rng(options.seed, static_cast<std::uint64_t>(trial));
          try {
            samples[idx] =
                runTrial(model, options, rng, ws, &failures[idx], &samples[idx],
                         &wireAudited[idx], &wireMortal[idx]);
          } catch (const NumericalError&) {
            if (!options.policy.enabled ||
                options.policy.trialPolicy ==
                    fault::FailurePolicy::TrialPolicy::kAbort) {
              throw;
            }
            if (options.policy.trialPolicy ==
                fault::FailurePolicy::TrialPolicy::kSalvage) {
              // samples[idx] holds the time reached before the failure: a
              // right-censored TTF observation, kept as-is (conservative).
              status[idx] = TrialStatus::kSalvaged;
            } else {
              status[idx] = TrialStatus::kDiscarded;
            }
          }
          std::vector<double> payload = {samples[idx],
                                         static_cast<double>(failures[idx])};
          if (wireAudit) {
            payload.push_back(static_cast<double>(wireAudited[idx]));
            payload.push_back(static_cast<double>(wireMortal[idx]));
          }
          recorder.record(
              {trial, toOutcome(status[idx]), std::move(payload), {}});
          progress.trialDone(status[idx] == TrialStatus::kDiscarded ? 1 : 0,
                             status[idx] == TrialStatus::kSalvaged ? 1 : 0);
        }
      });
  recorder.finalize();

  long long failureTotal = 0;
  long long included = 0;
  result.ttfSamples.reserve(static_cast<std::size_t>(options.trials));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (status[i] == TrialStatus::kDiscarded) {
      ++result.discardedTrials;
      continue;
    }
    if (status[i] == TrialStatus::kSalvaged) ++result.salvagedTrials;
    result.ttfSamples.push_back(samples[i]);
    failureTotal += failures[i];
    ++included;
    if (wireAudit) {
      result.wireAuditedConfigs += wireAudited[i];
      result.wireMortalConfigs += wireMortal[i];
      if (wireMortal[i] > 0) ++result.wireMortalTrials;
    }
    VIADUCT_HISTOGRAM_OBSERVE("grid_mc.failures_per_trial", failures[i],
                              obs::Buckets::exponential(1, 2, 16));
  }
  if (result.discardedTrials > 0) {
    VIADUCT_COUNTER_ADD("grid_mc.trials_discarded", result.discardedTrials);
  }
  if (result.salvagedTrials > 0) {
    VIADUCT_COUNTER_ADD("grid_mc.trials_salvaged", result.salvagedTrials);
  }
  if (result.ttfSamples.empty()) {
    throw NumericalError(
        "grid MC: every trial was discarded by the failure policy");
  }
  if (result.discardedTrials > 0 || result.salvagedTrials > 0) {
    VIADUCT_INFO << "grid MC: kept " << included << "/" << options.trials
                 << " trials (" << result.discardedTrials << " discarded, "
                 << result.salvagedTrials << " salvaged)";
  }
  result.meanFailuresToBreach =
      static_cast<double>(failureTotal) / static_cast<double>(included);
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  if (wallSeconds > 0.0) {
    VIADUCT_GAUGE_SET("grid_mc.trials_per_second",
                      static_cast<double>(options.trials) / wallSeconds);
  }
  return result;
}

}  // namespace viaduct
