// Wire-EM audit semantics across the grid stack: the closed-form verdict of
// every path tree agrees with the marched transient oracle on golden
// meshes; grid Monte Carlo samples are bit-identical with the audit on or
// off and across thread counts (the audit is diagnostic-only); the
// checkpoint key is byte-stable; and checkpoint/resume carries the audit
// payload exactly.
#include "grid/wire_mortality.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/units.h"
#include "grid/grid_mc.h"
#include "grid/signoff.h"
#include "spice/generator.h"
#include "support/transient_path.h"

namespace viaduct {
namespace {

Netlist meshNetlist(int stripes = 8, std::uint64_t seed = 11) {
  GridGeneratorConfig cfg;
  cfg.stripesX = stripes;
  cfg.stripesY = stripes;
  cfg.padCount = 4;
  cfg.totalCurrentAmps = 1.0;
  cfg.seed = seed;
  Netlist n = generatePowerGrid(cfg);
  tuneNominalIrDrop(n, 0.06);
  return n;
}

GridMcOptions mcOptions() {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.systemCriterion = GridFailureCriterion::irDrop(0.10);
  opts.trials = 12;
  opts.seed = 5;
  return opts;
}

void expectSameSamples(const GridMcResult& a, const GridMcResult& b) {
  ASSERT_EQ(a.ttfSamples.size(), b.ttfSamples.size());
  for (std::size_t i = 0; i < a.ttfSamples.size(); ++i)
    EXPECT_EQ(a.ttfSamples[i], b.ttfSamples[i]) << "sample " << i;
  EXPECT_EQ(a.meanFailuresToBreach, b.meanFailuresToBreach);
}

TEST(WireTreeSet, BuildsMeshTopologyOnce) {
  const Netlist netlist = meshNetlist();
  const auto trees = WireTreeSet::build(netlist, WireGeometry{});
  ASSERT_NE(trees, nullptr);
  EXPECT_GT(trees->treeCount(), 0);
  EXPECT_GT(trees->branchCount(), 0);
  EXPECT_EQ(trees->cyclicComponents(), 0);
  // The digest is deterministic and geometry-sensitive (it joins the
  // Monte Carlo checkpoint key).
  const auto again = WireTreeSet::build(netlist, WireGeometry{});
  EXPECT_EQ(trees->digest(), again->digest());
  WireGeometry fat;
  fat.crossSectionArea *= 2.0;
  EXPECT_NE(trees->digest(), WireTreeSet::build(netlist, fat)->digest());
}

// Every path tree's closed-form audit verdict must equal the verdict of the
// marched transient asymptote (the oracle judges the same extreme points:
// junction and end nodes), at margins from the mortal to the all-immortal
// regime. The trees are only read: per-tree solvers and the branch
// currents the audit left in its scratch.
TEST(WireEmModes, PathTreeVerdictsMatchMarchedOracleOnGoldenMeshes) {
  const EmParameters params;
  for (const int stripes : {6, 8}) {
    const Netlist netlist = meshNetlist(stripes);
    const PowerGridModel model(netlist);
    const auto solution = model.solveNominal();
    const auto trees = WireTreeSet::build(netlist, WireGeometry{});
    auto scratch = trees->makeScratch();
    for (const double marginMpa : {20.0, 340.0, 5000.0}) {
      const double margin = marginMpa * units::MPa;
      const WireTreeSet::Audit audit =
          trees->audit(model, solution, margin, params, scratch);
      int mortal = 0, paths = 0;
      std::vector<double> nodeStress;
      for (int i = 0; i < trees->treeCount(); ++i) {
        const SteadyStateTreeSolver& tree = trees->treeSolver(i);
        const auto branchJ = trees->treeCurrentDensity(i, scratch);
        nodeStress.resize(static_cast<std::size_t>(tree.nodeCount()));
        const bool closedMortal =
            tree.maxStressRise(branchJ, params, nodeStress) >= margin;
        mortal += closedMortal ? 1 : 0;
        if (!tree.isPath()) continue;
        ++paths;
        TransientPathReference marched(tree, branchJ, params,
                                       /*sigmaT=*/0.0);
        marched.runToSteadyState();
        EXPECT_EQ(marched.maxNodalStressRise() >= margin, closedMortal)
            << stripes << " stripes at " << marginMpa << " MPa, tree " << i;
      }
      EXPECT_GT(paths, 0);
      EXPECT_EQ(audit.mortalTrees, mortal)
          << stripes << " stripes at " << marginMpa << " MPa";
      // The margins span both regimes, so the oracle judges both verdicts.
      if (marginMpa == 20.0) {
        EXPECT_GT(mortal, 0);
      }
      if (marginMpa == 5000.0) {
        EXPECT_EQ(mortal, 0);
      }
    }
  }
}

TEST(WireEmModes, MarginSweepsFromAllMortalToAllImmortal) {
  const Netlist netlist = meshNetlist();
  const auto tight =
      classifyWiresEm(netlist, WireGeometry{}, 1.0 * units::MPa,
                      EmParameters{});
  EXPECT_GT(tight.mortalTrees, 0);
  EXPECT_FALSE(tight.passed());
  // A margin above the worst steady rise clears every tree.
  const double loose = tight.worstStressRisePa * 2.0;
  const auto cleared =
      classifyWiresEm(netlist, WireGeometry{}, loose, EmParameters{});
  EXPECT_EQ(cleared.mortalTrees, 0);
  EXPECT_TRUE(cleared.passed());
  EXPECT_EQ(cleared.worstStressRisePa, tight.worstStressRisePa);
}

TEST(WireEmModes, SignoffWiresMatchesCensus) {
  const Netlist netlist = meshNetlist();
  const SignoffConfig cfg;
  const auto report = signoffWires(netlist, cfg);
  const auto census = classifyWiresEm(netlist, cfg.wireGeometry,
                                      cfg.wireStressMarginPa, cfg.emParams);
  EXPECT_EQ(report.mortalTrees, census.mortalTrees);
  EXPECT_EQ(report.trees, census.trees);
  EXPECT_EQ(report.worstStressRisePa, census.worstStressRisePa);
  EXPECT_EQ(report.passed(), census.passed());
}

// The audit is diagnostic-only: TTF samples must be bit-identical in both
// audit modes (off and on) at every thread count, and the audit aggregates
// are themselves thread-invariant.
TEST(GridMcEmModes, SamplesBitIdenticalAcrossModesAndThreads) {
  const Netlist netlist = meshNetlist();
  const PowerGridModel model(netlist);
  const auto baseline = runGridMonteCarlo(model, mcOptions());
  ASSERT_EQ(baseline.ttfSamples.size(), 12u);
  EXPECT_EQ(baseline.wireAuditedConfigs, 0);

  const auto trees = WireTreeSet::build(netlist, WireGeometry{});
  int audited = -1, mortalConfigs = -1, mortalTrials = -1;
  for (const int threads : {1, 4, 8}) {
    auto opts = mcOptions();
    opts.parallelism.threads = threads;
    const auto off = runGridMonteCarlo(model, opts);
    expectSameSamples(baseline, off);
    EXPECT_EQ(off.wireAuditedConfigs, 0);

    opts.wireEm.trees = trees;
    const auto on = runGridMonteCarlo(model, opts);
    expectSameSamples(baseline, on);
    EXPECT_GT(on.wireAuditedConfigs, 0);
    if (audited < 0) {
      audited = on.wireAuditedConfigs;
      mortalConfigs = on.wireMortalConfigs;
      mortalTrials = on.wireMortalTrials;
    } else {
      EXPECT_EQ(on.wireAuditedConfigs, audited) << "@" << threads;
      EXPECT_EQ(on.wireMortalConfigs, mortalConfigs) << "@" << threads;
      EXPECT_EQ(on.wireMortalTrials, mortalTrials) << "@" << threads;
    }
  }
}

TEST(GridMcEmModes, CheckpointKeySeparatesEmConfigurations) {
  const Netlist netlist = meshNetlist();
  const PowerGridModel model(netlist);
  auto off = mcOptions();
  const std::string keyOff = gridMcCheckpointKey(model, off);
  EXPECT_NE(keyOff.find(";em=off"), std::string::npos);

  auto on = mcOptions();
  on.wireEm.trees = WireTreeSet::build(netlist, WireGeometry{});
  const std::string keyOn = gridMcCheckpointKey(model, on);
  EXPECT_NE(keyOff, keyOn);

  on.wireEm.stressMarginPa *= 0.5;
  EXPECT_NE(keyOn, gridMcCheckpointKey(model, on));
}

TEST(GridMcEmModes, CheckpointKeyIsByteStable) {
  // Grid-MC snapshots are looked up by this string; any byte change makes
  // every existing snapshot a miss. The literal was printed for this mesh
  // and these options when the verdict mode was still selectable (the
  // audit-on field then read "em=steady" under --em-mode steady), so those
  // snapshots keep resuming.
  const Netlist netlist = meshNetlist();
  const PowerGridModel model(netlist);
  auto opts = mcOptions();
  opts.wireEm.trees = WireTreeSet::build(netlist, WireGeometry{});
  EXPECT_EQ(gridMcCheckpointKey(model, opts),
            "gridmc-v4;model=14968db4a887b01f;"
            "ttf=19.346766547102792,0.40000000000000002;"
            "per=44bda7d473cdca4d;iref=0.01;crit=1,0.10000000000000001;"
            "tr=12;seed=5;maxf=0;pol=1,1;"
            "em=steady,340000000,406.64381573604055,5d2f3d952b7103");
}

class GridMcEmResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("viaduct_em_resume_" + std::to_string(::getpid()) + ".ckpt"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }
  std::string path_;
};

// Resume must reconstruct the audit aggregates exactly from the widened
// (4-value) trial payload, not just the TTF samples.
TEST_F(GridMcEmResumeTest, ResumeCarriesAuditPayload) {
  const Netlist netlist = meshNetlist();
  const PowerGridModel model(netlist);
  auto opts = mcOptions();
  opts.wireEm.trees = WireTreeSet::build(netlist, WireGeometry{});
  const auto baseline = runGridMonteCarlo(model, opts);
  ASSERT_GT(baseline.wireAuditedConfigs, 0);

  opts.checkpoint.path = path_;
  opts.checkpoint.everyTrials = 1;
  const auto full = runGridMonteCarlo(model, opts);
  expectSameSamples(baseline, full);

  // Kill it "mid-run": keep every 3rd trial in the snapshot, then resume.
  {
    const checkpoint::CheckpointFile file(path_);
    auto snap = file.load(gridMcCheckpointKey(model, opts), opts.trials);
    ASSERT_TRUE(snap.has_value());
    for (auto it = snap->trials.begin(); it != snap->trials.end();) {
      if (it->first % 3 == 0) {
        ++it;
      } else {
        it = snap->trials.erase(it);
      }
    }
    ASSERT_TRUE(file.write(*snap));
  }
  opts.checkpoint.resume = true;
  const auto resumed = runGridMonteCarlo(model, opts);
  EXPECT_EQ(resumed.resumedTrials, 4);  // trials 0,3,6,9
  expectSameSamples(baseline, resumed);
  EXPECT_EQ(resumed.wireAuditedConfigs, baseline.wireAuditedConfigs);
  EXPECT_EQ(resumed.wireMortalConfigs, baseline.wireMortalConfigs);
  EXPECT_EQ(resumed.wireMortalTrials, baseline.wireMortalTrials);
}

// A snapshot written without the audit (2-value payload) must not be
// resumed into an audited run — the key differs, so the run restarts from
// scratch rather than resuming with missing audit counts.
TEST_F(GridMcEmResumeTest, AuditOffSnapshotDoesNotLeakIntoAuditedRun) {
  const Netlist netlist = meshNetlist();
  const PowerGridModel model(netlist);
  auto opts = mcOptions();
  opts.checkpoint.path = path_;
  runGridMonteCarlo(model, opts);  // audit-off snapshot on disk

  opts.wireEm.trees = WireTreeSet::build(netlist, WireGeometry{});
  opts.checkpoint.resume = true;
  const auto audited = runGridMonteCarlo(model, opts);
  EXPECT_EQ(audited.resumedTrials, 0);
  EXPECT_GT(audited.wireAuditedConfigs, 0);
}

}  // namespace
}  // namespace viaduct
