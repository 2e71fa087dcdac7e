// Level-2 shared-base engine tests: the synthetic mesh generator, the
// immutable base factorization and base solution behind every Session,
// session and Monte Carlo parity with an up-looking SparseCholesky oracle
// of the session's current matrix, thread-count bit-identity of the grid
// Monte Carlo, the shared memo of via-array Woodbury columns (cold, warm,
// disabled, concurrent first touch, isolation from rebased sessions), and
// the grid.base_factor / cholesky.supernodal_factor fault sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "fault/fault.h"
#include "grid/grid_mc.h"
#include "grid/mesh.h"
#include "grid/power_grid.h"
#include "numerics/supernodal_cholesky.h"
#include "obs/obs.h"
#include "support/cholesky.h"

namespace viaduct {
namespace {

class GridSharedBaseTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
};

MeshSpec smallSpec() {
  MeshSpec spec;
  spec.rows = 20;
  spec.cols = 20;
  spec.viaPitch = 4;
  spec.padPitch = 8;
  return spec;
}

Netlist tunedMesh(const MeshSpec& spec, double irFraction = 0.08) {
  Netlist n = buildMeshNetlist(spec);
  tuneNominalIrDrop(n, irFraction);
  return n;
}

/// Exact solve of a session's current system: a fresh up-looking + RCM
/// factorization of the session's current matrix (the test oracle).
std::vector<double> oracleVoltages(const PowerGridModel& model,
                                   const PowerGridModel::Session& session) {
  return SparseCholesky(session.currentMatrix(), OrderingChoice::kRcm)
      .solve(model.rhsVector());
}

void expectMatchesOracle(const PowerGridModel& model,
                         const PowerGridModel::Session& session,
                         const PowerGridModel::DcSolution& sol, double tol,
                         int step) {
  ASSERT_TRUE(sol.solverOk);
  const std::vector<double> ref = oracleVoltages(model, session);
  ASSERT_EQ(sol.voltages.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(sol.voltages[i], ref[i], tol)
        << "node " << i << " after step " << step;
  double minV = ref[0];
  for (const double v : ref) minV = std::min(minV, v);
  EXPECT_NEAR(sol.worstIrDropFraction, (model.vdd() - minV) / model.vdd(),
              tol);
}

/// Opens (and every third step degrades) a pseudo-random array sequence
/// in one session and demands agreement with the oracle after every step.
void compareWithOracle(const PowerGridModel& model, int steps, double tol,
                       std::uint64_t seed) {
  PowerGridModel::Session session(model);
  Rng rng(seed, 0);
  const int count = static_cast<int>(model.viaArrays().size());
  for (int s = 0; s < steps; ++s) {
    const int idx = static_cast<int>(rng.uniform(0.0, 1.0) * count) % count;
    if (s % 3 == 2) {
      session.degradeArray(idx, 5.0);
    } else {
      session.openArray(idx);
    }
    expectMatchesOracle(model, session, session.solve(), tol, s);
  }
}

/// Test-side replay of runGridMonteCarlo's trials (global array TTF,
/// IR-drop criterion) whose every DC solve is the oracle's: the same
/// budgets, damage accumulation and victim choice, independent of the
/// Woodbury engine.
std::vector<double> oracleSamples(const PowerGridModel& model,
                                  const GridMcOptions& options) {
  const int count = static_cast<int>(model.viaArrays().size());
  auto currents = [&](const std::vector<double>& v) {
    std::vector<double> out;
    for (const auto& site : model.viaArrays())
      out.push_back(std::abs(v[site.a] - v[site.b]) / site.nominalOhms);
    return out;
  };
  auto irFraction = [&](const std::vector<double>& v) {
    return (model.vdd() - *std::min_element(v.begin(), v.end())) /
           model.vdd();
  };
  std::vector<double> samples;
  for (int trial = 0; trial < options.trials; ++trial) {
    Rng rng(options.seed, static_cast<std::uint64_t>(trial));
    std::vector<double> budget(static_cast<std::size_t>(count));
    for (auto& b : budget) b = options.arrayTtf.sample(rng);
    std::vector<double> damage(budget.size(), 0.0), rates(budget.size());
    PowerGridModel::Session session(model);
    std::vector<double> v = oracleVoltages(model, session);
    double t = 0.0;
    for (int failed = 0; failed < options.maxFailuresPerTrial; ++failed) {
      // Only alive arrays are read, and they all carry nominal ohms.
      const std::vector<double> amps = currents(v);
      double best = std::numeric_limits<double>::infinity();
      int victim = -1;
      for (int m = 0; m < count; ++m) {
        if (session.arrayOpen(m)) continue;
        const auto um = static_cast<std::size_t>(m);
        const double ratio = amps[um] / options.referenceCurrentAmps;
        rates[um] = ratio * ratio / budget[um];
        if (rates[um] <= 0.0) continue;
        const double remaining = (1.0 - damage[um]) / rates[um];
        if (remaining < best) {
          best = remaining;
          victim = m;
        }
      }
      if (victim < 0) break;
      t += best;
      for (int m = 0; m < count; ++m) {
        if (session.arrayOpen(m) || m == victim) continue;
        damage[static_cast<std::size_t>(m)] +=
            rates[static_cast<std::size_t>(m)] * best;
      }
      session.openArray(victim);
      damage[static_cast<std::size_t>(victim)] = 1.0;
      v = oracleVoltages(model, session);
      if (irFraction(v) >= options.systemCriterion.irDropFraction) break;
    }
    samples.push_back(t);
  }
  return samples;
}

TEST_F(GridSharedBaseTest, MeshSpecHitsNodeTargets) {
  for (const Index target : {10000, 100000}) {
    const MeshSpec spec = meshSpecForNodeTarget(target);
    const double ratio =
        static_cast<double>(spec.nodeCount()) / static_cast<double>(target);
    EXPECT_GT(ratio, 0.9) << "target " << target;
    EXPECT_LT(ratio, 1.1) << "target " << target;
  }
}

TEST_F(GridSharedBaseTest, MeshBuildsAWorkingGridModel) {
  const MeshSpec spec = smallSpec();
  const PowerGridModel model(tunedMesh(spec));
  // All load + strap nodes are unknowns; pads are eliminated.
  EXPECT_EQ(model.unknownCount(), spec.nodeCount());
  // One via array per stripe/strap crossing.
  const Index straps = (spec.cols - 1) / spec.viaPitch + 1;
  EXPECT_EQ(static_cast<Index>(model.viaArrays().size()), spec.rows * straps);
  const auto nominal = model.solveNominal();
  ASSERT_TRUE(nominal.solverOk);
  EXPECT_NEAR(nominal.worstIrDropFraction, 0.08, 1e-9);
  EXPECT_LT(model.kclResidual(nominal), 1e-9);
}

TEST_F(GridSharedBaseTest, MeshNetlistIsDeterministic) {
  const PowerGridModel a(tunedMesh(smallSpec()));
  const PowerGridModel b(tunedMesh(smallSpec()));
  EXPECT_EQ(a.structureDigest(), b.structureDigest());
}

TEST_F(GridSharedBaseTest, ModelExposesSharedBaseFactor) {
  // The one grid factor: supernodal Cholesky under AMD.
  const PowerGridModel model(tunedMesh(smallSpec()));
  ASSERT_NE(model.baseFactor(), nullptr);
  EXPECT_EQ(model.baseFactor()->size(), model.unknownCount());
  EXPECT_EQ(model.baseFactor()->factorNonZeroCount(),
            SupernodalCholesky(model.conductanceMatrix(), OrderingChoice::kAmd)
                .factorNonZeroCount());
}

TEST_F(GridSharedBaseTest, SessionWithoutUpdatesIsTheBaseSolution) {
  // With no pending update a solve is the shared x0, solved once next to
  // the base factor: bit-equal to a fresh solve on that factor.
  const PowerGridModel model(tunedMesh(smallSpec()));
  const std::vector<double> fresh =
      model.baseFactor()->solve(model.rhsVector());
  PowerGridModel::Session session(model);
  const auto sol = session.solve();
  ASSERT_TRUE(sol.solverOk);
  EXPECT_EQ(sol.pendingUpdates, 0);
  EXPECT_EQ(sol.voltages, fresh);
  EXPECT_EQ(model.solveNominal().voltages, fresh);
}

TEST_F(GridSharedBaseTest, SharedSessionsMatchExactPerTrialFactors) {
  // Shared-base sessions (Woodbury deltas on the model's immutable factor
  // and its shared base solution) against an exact factorization of the
  // session's current matrix after every step.
  const PowerGridModel model(tunedMesh(smallSpec()));
  compareWithOracle(model, /*steps=*/12, /*tol=*/1e-10, /*seed=*/31);
}

TEST_F(GridSharedBaseTest, SupernodalSessionsMatchUplooking) {
  // The supernodal + AMD engine against the up-looking + RCM oracle under a
  // second failure sequence.
  const PowerGridModel model(tunedMesh(smallSpec()));
  compareWithOracle(model, /*steps=*/12, /*tol=*/1e-10, /*seed=*/77);
}

TEST_F(GridSharedBaseTest, SessionAfterForcedRebaseMatchesOracle) {
  // A failed incremental solve makes the session fold its updates into a
  // private factor and re-solve its own base solution there. Every solve
  // after that starts from the private x0, not the model's.
  const PowerGridModel model(tunedMesh(smallSpec()));
  PowerGridModel::Session session(model);
  session.openArray(3);
  session.degradeArray(41, 5.0);
  fault::Registry::instance().arm("woodbury.solve", {.nth = 1});
  const auto rebased = session.solve();
  EXPECT_EQ(fault::Registry::instance().fireCount("woodbury.solve"), 1u);
  EXPECT_EQ(rebased.pendingUpdates, 0);
  expectMatchesOracle(model, session, rebased, 1e-10, 0);
  const int more[] = {17, 58, 90};
  for (int s = 0; s < 3; ++s) {
    session.openArray(more[s]);
    const auto sol = session.solve();
    EXPECT_EQ(sol.pendingUpdates, s + 1);
    expectMatchesOracle(model, session, sol, 1e-10, s + 1);
  }
}

TEST_F(GridSharedBaseTest, GridMcBitIdenticalAcrossThreadCounts) {
  const PowerGridModel model(tunedMesh(smallSpec()));
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 24;
  opts.seed = 9;
  opts.maxFailuresPerTrial = 6;
  opts.parallelism.threads = 1;
  const auto serial = runGridMonteCarlo(model, opts);
  ASSERT_EQ(serial.ttfSamples.size(), 24u);
  for (const int threads : {4, 8}) {
    opts.parallelism.threads = threads;
    const auto parallel = runGridMonteCarlo(model, opts);
    ASSERT_EQ(parallel.ttfSamples.size(), serial.ttfSamples.size());
    for (std::size_t i = 0; i < serial.ttfSamples.size(); ++i)
      EXPECT_EQ(parallel.ttfSamples[i], serial.ttfSamples[i])
          << "trial " << i << " with " << threads << " threads";
  }
}

TEST_F(GridSharedBaseTest, GridMcSamplesUnchangedBySharedBase) {
  // Sharing the base factor and base solution changes where the work is
  // done, not the physics: the Monte Carlo's samples match a replay whose
  // every solve is an exact factorization of the session's matrix.
  const PowerGridModel model(tunedMesh(smallSpec()));
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 12;
  opts.seed = 4;
  opts.maxFailuresPerTrial = 6;
  const auto mc = runGridMonteCarlo(model, opts);
  const auto ref = oracleSamples(model, opts);
  ASSERT_EQ(mc.ttfSamples.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(mc.ttfSamples[i], ref[i], 1e-10 * ref[i]) << "trial " << i;
}

GridMcOptions memoMcOptions(int threads) {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 24;
  opts.seed = 13;
  opts.maxFailuresPerTrial = 6;
  opts.parallelism.threads = threads;
  return opts;
}

TEST_F(GridSharedBaseTest, GridMcBitIdenticalWithColdWarmAndDisabledMemo) {
  // Every memoized column is the same serial solve a session would run,
  // so the samples do not depend on whether the memo is cold, warm or
  // disabled, at any thread count.
  const Netlist net = tunedMesh(smallSpec());
  const auto reference =
      runGridMonteCarlo(PowerGridModel(net, {}, 0), memoMcOptions(1));
  ASSERT_EQ(reference.ttfSamples.size(), 24u);
  for (const int threads : {1, 4, 8}) {
    const GridMcOptions opts = memoMcOptions(threads);
    const PowerGridModel model(net);
    const auto cold = runGridMonteCarlo(model, opts);
    const std::size_t coldBytes = model.columnMemoBytes();
    EXPECT_GT(coldBytes, 0u);
    const auto warm = runGridMonteCarlo(model, opts);
    EXPECT_EQ(model.columnMemoBytes(), coldBytes);  // nothing new to fill
    const PowerGridModel noMemo(net, {}, 0);
    const auto disabled = runGridMonteCarlo(noMemo, opts);
    EXPECT_EQ(noMemo.columnMemoBytes(), 0u);
    EXPECT_EQ(cold.ttfSamples, reference.ttfSamples) << threads << " threads";
    EXPECT_EQ(warm.ttfSamples, reference.ttfSamples) << threads << " threads";
    EXPECT_EQ(disabled.ttfSamples, reference.ttfSamples)
        << threads << " threads";
  }
}

TEST_F(GridSharedBaseTest, ConcurrentFirstTouchOfOneSite) {
  // Many sessions open the same cold site at once: one fills its column,
  // the rest share it, and every session sees the same bits as a session
  // on a model without a memo.
  const Netlist net = tunedMesh(smallSpec());
  const PowerGridModel model(net);
  const PowerGridModel noMemo(net, {}, 0);
  constexpr int kSite = 37;
  PowerGridModel::Session plain(noMemo);
  plain.openArray(kSite);
  const std::vector<double> expected = plain.solve().voltages;

  auto& hits = obs::Registry::instance().counter("woodbury.column_memo_hits");
  auto& misses =
      obs::Registry::instance().counter("woodbury.column_memo_misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::vector<double>> voltages(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PowerGridModel::Session session(model);
      start.arrive_and_wait();
      session.openArray(kSite);
      voltages[static_cast<std::size_t>(t)] = session.solve().voltages;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& v : voltages) EXPECT_EQ(v, expected);
  if (obs::enabled()) {
    EXPECT_EQ(misses.value() - misses0, 1u);
    EXPECT_EQ(hits.value() - hits0, kThreads - 1u);
  }
  EXPECT_EQ(model.columnMemoBytes(),
            static_cast<std::size_t>(model.unknownCount()) * sizeof(double));
}

TEST_F(GridSharedBaseTest, RebasedSessionIgnoresTheMemo) {
  // A session that rebased onto its private factor must solve its own
  // columns: the memoized column of a site belongs to the base matrix,
  // not to the session's.
  const PowerGridModel model(tunedMesh(smallSpec()));
  constexpr int kSite = 58;
  {
    PowerGridModel::Session warmUp(model);
    warmUp.openArray(kSite);
    ASSERT_TRUE(warmUp.solve().solverOk);
  }
  ASSERT_GT(model.columnMemoBytes(), 0u);
  PowerGridModel::Session session(model);
  session.openArray(3);
  session.degradeArray(41, 5.0);
  fault::Registry::instance().arm("woodbury.solve", {.nth = 1});
  ASSERT_EQ(session.solve().pendingUpdates, 0);  // forced rebase
  session.openArray(kSite);
  const auto sol = session.solve();
  EXPECT_EQ(sol.pendingUpdates, 1);
  expectMatchesOracle(model, session, sol, 1e-10, 1);
}

TEST_F(GridSharedBaseTest, BaseFactorFaultFallsBackDownTheLadder) {
  // grid.base_factor armed: with the policy enabled the model retries the
  // base factorization under the RCM ordering and stays usable.
  const Netlist net = tunedMesh(smallSpec());
  fault::Registry::instance().arm("grid.base_factor", {.nth = 1});
  const PowerGridModel model(net);
  EXPECT_GE(fault::Registry::instance().fireCount("grid.base_factor"), 1u);
  ASSERT_NE(model.baseFactor(), nullptr);
  const std::size_t rcmNnz =
      SupernodalCholesky(model.conductanceMatrix(), OrderingChoice::kRcm)
          .factorNonZeroCount();
  EXPECT_EQ(model.baseFactor()->factorNonZeroCount(), rcmNnz);
  EXPECT_NE(rcmNnz,
            SupernodalCholesky(model.conductanceMatrix(), OrderingChoice::kAmd)
                .factorNonZeroCount());
  const auto nominal = model.solveNominal();
  ASSERT_TRUE(nominal.solverOk);
  EXPECT_LT(model.kclResidual(nominal), 1e-9);
}

TEST_F(GridSharedBaseTest, BaseFactorFaultAbortsWithPolicyDisabled) {
  const Netlist net = tunedMesh(smallSpec());
  PowerGridConfig config;
  config.policy = fault::FailurePolicy::disabled();
  fault::Registry::instance().arm("grid.base_factor", {.nth = 1});
  EXPECT_THROW(PowerGridModel(net, config), NumericalError);
}

TEST_F(GridSharedBaseTest, SupernodalFactorSiteInjects) {
  // The numeric-factorization site: a direct construction fails, and a
  // policy-enabled model recovers through the same ladder (the injected
  // NumericalError is indistinguishable from an organic one).
  const Netlist net = tunedMesh(smallSpec());
  const PowerGridModel plain(net);
  fault::Registry::instance().arm("cholesky.supernodal_factor", {.nth = 1});
  EXPECT_THROW(SupernodalCholesky(plain.conductanceMatrix()), NumericalError);

  fault::Registry::instance().disarmAll();
  fault::Registry::instance().arm("cholesky.supernodal_factor", {.nth = 1});
  const PowerGridModel recovered(net);
  EXPECT_GE(
      fault::Registry::instance().fireCount("cholesky.supernodal_factor"),
      1u);
  ASSERT_NE(recovered.baseFactor(), nullptr);
  EXPECT_EQ(recovered.baseFactor()->factorNonZeroCount(),
            SupernodalCholesky(plain.conductanceMatrix(), OrderingChoice::kRcm)
                .factorNonZeroCount());
  ASSERT_TRUE(recovered.solveNominal().solverOk);
}

}  // namespace
}  // namespace viaduct
