// Wire-segment immortality census for a power grid.
//
// The paper restricts EM failures to via arrays, assuming the grid "is
// designed such that spanning voids in wires have a very low probability"
// (§5.2). This module verifies that assumption for a concrete netlist: it
// computes every wire segment's current density at the healthy DC
// operating point and applies the Blech immortality criterion
// (em/blech.h). bench/ablation_signoff_wires reports the census for the
// PG stand-ins.
// The census is also tree-aware (DESIGN.md §5.14): WireTreeSet decomposes
// the wire resistors into connected interconnect trees once, and audits
// any DC operating point in O(branches) with the linear-time closed-form
// steady-state solver — strictly more accurate than the per-segment Blech
// product because opposing current directions along a path cancel their
// stress contributions. The closed form is the only verdict; tests hold
// it to a marched transient oracle (tests/support/transient_path.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "em/em_params.h"
#include "em/steady_state.h"
#include "grid/power_grid.h"
#include "spice/netlist.h"

namespace viaduct {

struct WireGeometry {
  /// Wire cross-section area [m²] used to convert branch current to j.
  double crossSectionArea = 2.0e-6 * 0.3e-6;  // 2 um wide, 0.3 um thick
  /// Segment length [m] (one stripe pitch in generated grids).
  double segmentLength = 20e-6;
  /// Resistor-name prefixes identifying wire segments.
  std::vector<std::string> wirePrefixes = {"Rh_", "Rv_"};
};

struct WireMortality {
  int totalWires = 0;
  int mortalWires = 0;
  /// Worst (largest) jL product over all wires [A/m].
  double worstProduct = 0.0;
  /// (jL)_crit used for the verdicts [A/m].
  double productLimit = 0.0;
  /// Largest wire current density seen [A/m²].
  double worstCurrentDensity = 0.0;

  double mortalFraction() const {
    return totalWires == 0 ? 0.0
                           : static_cast<double>(mortalWires) /
                                 static_cast<double>(totalWires);
  }
};

/// Classifies every wire segment of the netlist at the healthy grid's DC
/// operating point. `stressMargin` is (σ_C − σ_T) for the wires [Pa].
WireMortality classifyWires(const Netlist& netlist,
                            const WireGeometry& geometry, double stressMargin,
                            const EmParameters& params);

/// Exists only because the frozen benchmark (perfbench/) names it: wire
/// trees are always judged by the closed-form steady-state solve.
enum class SignoffMode { kSteadyState };

/// Immutable decomposition of a netlist's wire resistors into connected
/// interconnect trees, shared read-only across Monte Carlo threads. Each
/// audit() recomputes only per-branch current densities and the O(n)
/// stress passes; the topology (and the per-tree SteadyStateTreeSolver
/// traversal order) is built once. Components that are not trees (cyclic
/// wire graphs from hand-written netlists) fall back to the per-segment
/// Blech product.
class WireTreeSet {
 public:
  /// Decomposes `netlist`'s wire resistors (by geometry.wirePrefixes).
  /// Resistor terminals on the ground node are treated as distinct
  /// blocking endpoints, not merged.
  static std::shared_ptr<const WireTreeSet> build(const Netlist& netlist,
                                                  const WireGeometry& geometry);

  int treeCount() const { return static_cast<int>(trees_.size()); }
  int branchCount() const { return static_cast<int>(branchNodeA_.size()); }
  int cyclicComponents() const { return cyclicComponents_; }
  int cyclicSegments() const { return static_cast<int>(cyclic_.size()); }
  const WireGeometry& geometry() const { return geometry_; }
  /// Stable digest over topology + geometry (checkpoint-key material).
  std::uint64_t digest() const { return digest_; }

  /// Reusable per-thread buffers for audit(); sized at build.
  struct Scratch {
    std::vector<double> branchCurrentDensity;
    std::vector<double> nodeStress;
  };
  Scratch makeScratch() const;

  struct Audit {
    int mortalTrees = 0;
    int steadySolves = 0;
    /// Mortal segments among cyclic (non-tree) components, per-segment
    /// Blech verdicts.
    int mortalCyclicSegments = 0;
    /// Largest steady-state stress rise over σ_T across all trees [Pa].
    double worstStressRisePa = 0.0;
    bool anyMortal() const {
      return mortalTrees > 0 || mortalCyclicSegments > 0;
    }
  };

  /// Audits one DC operating point: wire currents from `solution`, each
  /// tree's closed-form steady-state stress rise judged against
  /// `stressMarginPa` = σ_C − σ_T − σ_pkg. Thread-safe: all mutable state
  /// lives in `scratch`, which keeps the signed branch current densities
  /// of this operating point on return.
  Audit audit(const PowerGridModel& model,
              const PowerGridModel::DcSolution& solution,
              double stressMarginPa, const EmParameters& params,
              Scratch& scratch) const;

  /// Tree `i` (0 <= i < treeCount()) and its slice of
  /// `scratch.branchCurrentDensity`, which after an audit() holds that
  /// operating point's branch currents. Both views are read-only.
  const SteadyStateTreeSolver& treeSolver(int i) const;
  std::span<const double> treeCurrentDensity(int i,
                                             const Scratch& scratch) const;

 private:
  struct Tree {
    SteadyStateTreeSolver solver;
    int branchOffset = 0;  // into the shared branch arrays
  };

  WireGeometry geometry_;
  std::vector<Tree> trees_;
  int cyclicComponents_ = 0;
  std::uint64_t digest_ = 0;
  std::size_t maxTreeNodes_ = 0;
  // Branch -> netlist terminals/conductance, concatenated tree-by-tree so
  // per-tree spans are contiguous.
  std::vector<Index> branchNodeA_;
  std::vector<Index> branchNodeB_;
  std::vector<double> branchConductance_;
  // Cyclic-component segments judged by the Blech product instead.
  struct CyclicSegment {
    Index a = 0;
    Index b = 0;
    double conductance = 0.0;
  };
  std::vector<CyclicSegment> cyclic_;
};

/// Tree-level wire census at the healthy DC operating point — the
/// steady-state upgrade of classifyWires().
struct WireEmCensus {
  int trees = 0;
  int branches = 0;
  int mortalTrees = 0;
  int cyclicComponents = 0;
  int mortalCyclicSegments = 0;
  double worstStressRisePa = 0.0;
  double stressMarginPa = 0.0;
  bool passed() const {
    return mortalTrees == 0 && mortalCyclicSegments == 0;
  }
};

/// Census of `netlist`'s wire trees at the healthy DC operating point. The
/// trailing SignoffMode exists only because the frozen benchmark
/// (perfbench/) passes it.
WireEmCensus classifyWiresEm(const Netlist& netlist,
                             const WireGeometry& geometry,
                             double stressMargin, const EmParameters& params,
                             SignoffMode = SignoffMode::kSteadyState);

}  // namespace viaduct
