#include "grid/wire_mortality.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <unordered_map>

#include "common/check.h"
#include "em/blech.h"
#include "grid/power_grid.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

bool matchesWirePrefix(const std::string& name, const WireGeometry& geometry) {
  return std::any_of(geometry.wirePrefixes.begin(),
                     geometry.wirePrefixes.end(),
                     [&](const std::string& p) {
                       return name.rfind(p, 0) == 0;
                     });
}

std::uint64_t fnv1aMix64(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffull;
    hash *= kPrime;
  }
  return hash;
}

}  // namespace

WireMortality classifyWires(const Netlist& netlist,
                            const WireGeometry& geometry, double stressMargin,
                            const EmParameters& params) {
  VIADUCT_REQUIRE(geometry.crossSectionArea > 0.0 &&
                  geometry.segmentLength > 0.0);
  VIADUCT_REQUIRE(!geometry.wirePrefixes.empty());

  const PowerGridModel model(netlist);
  const auto solution = model.solveNominal();

  WireMortality census;
  census.productLimit = blechProductLimit(stressMargin, params);

  for (const auto& r : netlist.resistors()) {
    if (!matchesWirePrefix(r.name, geometry)) continue;
    const double va = model.nodeVoltage(r.a, solution);
    const double vb = model.nodeVoltage(r.b, solution);
    const double current = std::abs(va - vb) / r.ohms;
    const double j = current / geometry.crossSectionArea;
    const double product = j * geometry.segmentLength;
    ++census.totalWires;
    census.worstProduct = std::max(census.worstProduct, product);
    census.worstCurrentDensity = std::max(census.worstCurrentDensity, j);
    if (product >= census.productLimit) ++census.mortalWires;
  }
  VIADUCT_REQUIRE_MSG(census.totalWires > 0,
                      "no wire segments matched the configured prefixes");
  return census;
}

std::shared_ptr<const WireTreeSet> WireTreeSet::build(
    const Netlist& netlist, const WireGeometry& geometry) {
  VIADUCT_REQUIRE(geometry.crossSectionArea > 0.0 &&
                  geometry.segmentLength > 0.0);
  VIADUCT_REQUIRE(!geometry.wirePrefixes.empty());

  auto set = std::make_shared<WireTreeSet>();
  set->geometry_ = geometry;

  // Vertex interning: distinct netlist nodes become vertices; each ground
  // terminal becomes its OWN vertex (ground is a blocking endpoint for
  // atom transport, not a junction shared across the chip).
  struct Edge {
    int u = 0;
    int v = 0;
    Index a = kGroundNode;
    Index b = kGroundNode;
    double conductance = 0.0;
  };
  std::vector<Edge> edges;
  std::unordered_map<Index, int> vertexOf;
  int vertexCount = 0;
  for (const auto& r : netlist.resistors()) {
    if (!matchesWirePrefix(r.name, geometry)) continue;
    VIADUCT_REQUIRE_MSG(r.ohms > 0.0, "wire resistor needs positive ohms");
    auto intern = [&](Index node) {
      if (node == kGroundNode) return vertexCount++;
      auto [it, inserted] = vertexOf.try_emplace(node, vertexCount);
      if (inserted) ++vertexCount;
      return it->second;
    };
    Edge edge;
    edge.u = intern(r.a);
    edge.v = intern(r.b);
    edge.a = r.a;
    edge.b = r.b;
    edge.conductance = 1.0 / r.ohms;
    edges.push_back(edge);
  }
  VIADUCT_REQUIRE_MSG(!edges.empty(),
                      "no wire segments matched the configured prefixes");

  std::vector<std::vector<int>> adjacency(
      static_cast<std::size_t>(vertexCount));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adjacency[static_cast<std::size_t>(edges[e].u)].push_back(
        static_cast<int>(e));
    adjacency[static_cast<std::size_t>(edges[e].v)].push_back(
        static_cast<int>(e));
  }

  // Connected components in deterministic (netlist resistor) order.
  std::uint64_t digest = 1469598103934665603ull;
  std::vector<int> componentVertex(static_cast<std::size_t>(vertexCount), -1);
  std::vector<char> edgeSeen(edges.size(), 0);
  for (std::size_t seedEdge = 0; seedEdge < edges.size(); ++seedEdge) {
    if (edgeSeen[seedEdge]) continue;
    // BFS this component, assigning local node ids in discovery order.
    std::vector<int> localEdges;
    int localNodes = 0;
    std::queue<int> frontier;
    auto visit = [&](int vertex) {
      if (componentVertex[static_cast<std::size_t>(vertex)] < 0) {
        componentVertex[static_cast<std::size_t>(vertex)] = localNodes++;
        frontier.push(vertex);
      }
    };
    visit(edges[seedEdge].u);
    while (!frontier.empty()) {
      const int vertex = frontier.front();
      frontier.pop();
      for (int edgeIdx : adjacency[static_cast<std::size_t>(vertex)]) {
        if (!edgeSeen[static_cast<std::size_t>(edgeIdx)]) {
          edgeSeen[static_cast<std::size_t>(edgeIdx)] = 1;
          localEdges.push_back(edgeIdx);
        }
        visit(edges[static_cast<std::size_t>(edgeIdx)].u);
        visit(edges[static_cast<std::size_t>(edgeIdx)].v);
      }
    }

    if (static_cast<int>(localEdges.size()) == localNodes - 1) {
      // A tree: hand it to the linear-time steady-state solver.
      const int branchOffset = set->branchCount();
      std::vector<SteadyBranch> branches;
      branches.reserve(localEdges.size());
      for (int edgeIdx : localEdges) {
        const Edge& edge = edges[static_cast<std::size_t>(edgeIdx)];
        SteadyBranch branch;
        branch.a = componentVertex[static_cast<std::size_t>(edge.u)];
        branch.b = componentVertex[static_cast<std::size_t>(edge.v)];
        branch.length = geometry.segmentLength;
        branch.area = geometry.crossSectionArea;
        branches.push_back(branch);
        set->branchNodeA_.push_back(edge.a);
        set->branchNodeB_.push_back(edge.b);
        set->branchConductance_.push_back(edge.conductance);
      }
      set->trees_.push_back(
          Tree{SteadyStateTreeSolver(localNodes, std::move(branches)),
               branchOffset});
      const std::uint64_t treeDigest = set->trees_.back().solver.digest();
      digest = fnv1aMix64(digest, treeDigest);
      set->maxTreeNodes_ = std::max(set->maxTreeNodes_,
                                    static_cast<std::size_t>(localNodes));
    } else {
      // Cyclic wire graph (hand-written netlist): per-segment Blech
      // fallback keeps the audit total-coverage.
      ++set->cyclicComponents_;
      for (int edgeIdx : localEdges) {
        const Edge& edge = edges[static_cast<std::size_t>(edgeIdx)];
        set->cyclic_.push_back(
            CyclicSegment{edge.a, edge.b, edge.conductance});
        digest = fnv1aMix64(
            digest, static_cast<std::uint64_t>(edge.u) * 0x9e3779b9u +
                        static_cast<std::uint64_t>(edge.v));
      }
    }
    // Vertices keep their local ids only within one component; reset the
    // map for reuse is unnecessary because each vertex belongs to exactly
    // one component (ids already assigned stay put).
  }

  VIADUCT_COUNTER_ADD("em.steady_trees",
                      static_cast<std::uint64_t>(set->treeCount()));
  set->digest_ = digest;
  return set;
}

WireTreeSet::Scratch WireTreeSet::makeScratch() const {
  Scratch scratch;
  scratch.branchCurrentDensity.resize(
      static_cast<std::size_t>(branchCount()));
  scratch.nodeStress.resize(maxTreeNodes_);
  return scratch;
}

WireTreeSet::Audit WireTreeSet::audit(
    const PowerGridModel& model, const PowerGridModel::DcSolution& solution,
    double stressMarginPa, const EmParameters& params,
    Scratch& scratch) const {
  VIADUCT_SPAN("em.steady_pass");
  VIADUCT_REQUIRE_MSG(stressMarginPa > 0.0, "stress margin must be positive");
  VIADUCT_REQUIRE(scratch.branchCurrentDensity.size() ==
                  static_cast<std::size_t>(branchCount()));
  VIADUCT_REQUIRE(scratch.nodeStress.size() >= maxTreeNodes_);

  // Signed current densities along each branch's a→b orientation at this
  // operating point — the only per-configuration input the solvers need.
  const double invArea = 1.0 / geometry_.crossSectionArea;
  for (std::size_t i = 0; i < scratch.branchCurrentDensity.size(); ++i) {
    const double va = model.nodeVoltage(branchNodeA_[i], solution);
    const double vb = model.nodeVoltage(branchNodeB_[i], solution);
    scratch.branchCurrentDensity[i] =
        (va - vb) * branchConductance_[i] * invArea;
  }

  Audit result;
  for (int i = 0; i < treeCount(); ++i) {
    const SteadyStateTreeSolver& solver = treeSolver(i);
    const std::span<double> nodeStress(
        scratch.nodeStress.data(),
        static_cast<std::size_t>(solver.nodeCount()));
    const double rise = solver.maxStressRise(treeCurrentDensity(i, scratch),
                                             params, nodeStress);
    ++result.steadySolves;
    if (rise >= stressMarginPa) ++result.mortalTrees;
    result.worstStressRisePa = std::max(result.worstStressRisePa, rise);
  }

  // Cyclic components: per-segment Blech verdicts (legacy criterion).
  if (!cyclic_.empty()) {
    const double productLimit = blechProductLimit(stressMarginPa, params);
    for (const CyclicSegment& segment : cyclic_) {
      const double va = model.nodeVoltage(segment.a, solution);
      const double vb = model.nodeVoltage(segment.b, solution);
      const double j = std::abs(va - vb) * segment.conductance * invArea;
      if (j * geometry_.segmentLength >= productLimit)
        ++result.mortalCyclicSegments;
    }
  }

  VIADUCT_COUNTER_ADD("em.steady_solves",
                      static_cast<std::uint64_t>(result.steadySolves));
  return result;
}

const SteadyStateTreeSolver& WireTreeSet::treeSolver(int i) const {
  return trees_.at(static_cast<std::size_t>(i)).solver;
}

std::span<const double> WireTreeSet::treeCurrentDensity(
    int i, const Scratch& scratch) const {
  const Tree& tree = trees_.at(static_cast<std::size_t>(i));
  VIADUCT_REQUIRE(scratch.branchCurrentDensity.size() ==
                  static_cast<std::size_t>(branchCount()));
  return std::span<const double>(scratch.branchCurrentDensity)
      .subspan(static_cast<std::size_t>(tree.branchOffset),
               static_cast<std::size_t>(tree.solver.branchCount()));
}

WireEmCensus classifyWiresEm(const Netlist& netlist,
                             const WireGeometry& geometry,
                             double stressMargin, const EmParameters& params,
                             SignoffMode) {
  const auto trees = WireTreeSet::build(netlist, geometry);
  const PowerGridModel model(netlist);
  const auto solution = model.solveNominal();
  auto scratch = trees->makeScratch();
  const WireTreeSet::Audit audit =
      trees->audit(model, solution, stressMargin, params, scratch);

  WireEmCensus census;
  census.trees = trees->treeCount();
  census.branches = trees->branchCount();
  census.mortalTrees = audit.mortalTrees;
  census.cyclicComponents = trees->cyclicComponents();
  census.mortalCyclicSegments = audit.mortalCyclicSegments;
  census.worstStressRisePa = audit.worstStressRisePa;
  census.stressMarginPa = stressMargin;
  return census;
}

}  // namespace viaduct
