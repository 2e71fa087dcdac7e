#include "em/steady_state.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <queue>

#include "common/check.h"
#include "common/physical_constants.h"

namespace viaduct {
namespace {

std::uint64_t fnv1aMix(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffull;
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t doubleBits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

double stressGradientPerMeter(double currentDensity,
                              const EmParameters& params) {
  return constants::kElementaryCharge * params.effectiveChargeNumber *
         params.resistivityOhmM * currentDensity / params.atomicVolume;
}

SteadyStateTreeSolver::SteadyStateTreeSolver(int nodeCount,
                                             std::vector<SteadyBranch> branches)
    : nodeCount_(nodeCount), branches_(std::move(branches)) {
  VIADUCT_REQUIRE_MSG(nodeCount_ >= 2, "steady tree needs at least two nodes");
  VIADUCT_REQUIRE_MSG(static_cast<int>(branches_.size()) == nodeCount_ - 1,
                  "steady tree needs exactly nodeCount-1 branches (acyclic, "
                  "connected)");

  std::vector<int> degree(static_cast<std::size_t>(nodeCount_), 0);
  std::vector<std::vector<int>> adjacency(
      static_cast<std::size_t>(nodeCount_));
  std::uint64_t digest = 1469598103934665603ull;  // FNV offset basis
  for (std::size_t i = 0; i < branches_.size(); ++i) {
    const SteadyBranch& branch = branches_[i];
    VIADUCT_REQUIRE_MSG(branch.a >= 0 && branch.a < nodeCount_ && branch.b >= 0 &&
                        branch.b < nodeCount_ && branch.a != branch.b,
                    "steady branch endpoints out of range");
    VIADUCT_REQUIRE_MSG(branch.length > 0.0 && branch.area > 0.0,
                    "steady branch needs positive length and area");
    adjacency[static_cast<std::size_t>(branch.a)].push_back(
        static_cast<int>(i));
    adjacency[static_cast<std::size_t>(branch.b)].push_back(
        static_cast<int>(i));
    ++degree[static_cast<std::size_t>(branch.a)];
    ++degree[static_cast<std::size_t>(branch.b)];
    totalVolume_ += branch.length * branch.area;
    digest = fnv1aMix(digest, static_cast<std::uint64_t>(branch.a));
    digest = fnv1aMix(digest, static_cast<std::uint64_t>(branch.b));
    digest = fnv1aMix(digest, doubleBits(branch.length));
    digest = fnv1aMix(digest, doubleBits(branch.area));
  }
  digest_ = digest;
  isPath_ = std::all_of(degree.begin(), degree.end(),
                        [](int d) { return d <= 2; });

  // BFS from node 0 both orders the two solve passes and proves
  // connectivity (with n-1 edges, connected ⇔ acyclic).
  order_.reserve(branches_.size());
  std::vector<char> visited(static_cast<std::size_t>(nodeCount_), 0);
  std::queue<int> frontier;
  frontier.push(0);
  visited[0] = 1;
  while (!frontier.empty()) {
    const int node = frontier.front();
    frontier.pop();
    for (int branchIdx : adjacency[static_cast<std::size_t>(node)]) {
      const SteadyBranch& branch = branches_[static_cast<std::size_t>(branchIdx)];
      const int other = branch.a == node ? branch.b : branch.a;
      if (visited[static_cast<std::size_t>(other)]) continue;
      visited[static_cast<std::size_t>(other)] = 1;
      order_.push_back(Step{branchIdx, node, other,
                            branch.a == node ? 1.0 : -1.0});
      frontier.push(other);
    }
  }
  VIADUCT_REQUIRE_MSG(static_cast<int>(order_.size()) == nodeCount_ - 1,
                  "steady tree branches must connect all nodes");
}

void SteadyStateTreeSolver::solve(std::span<const double> branchCurrentDensity,
                                  const EmParameters& params, double sigmaT,
                                  std::span<double> nodeStress) const {
  VIADUCT_REQUIRE_MSG(
      static_cast<int>(branchCurrentDensity.size()) == branchCount(),
      "branch current span size mismatch");
  VIADUCT_REQUIRE_MSG(static_cast<int>(nodeStress.size()) == nodeCount_,
                  "node stress span size mismatch");

  // Pass 1 (top-down): relative stress φ with φ(root) = 0. Flux-free
  // branches force σ(b) = σ(a) − G·L along each a→b orientation.
  const double gradientPerJ = stressGradientPerMeter(1.0, params);
  nodeStress[0] = 0.0;
  for (const Step& step : order_) {
    const SteadyBranch& branch = branches_[static_cast<std::size_t>(step.branch)];
    const double gradient =
        gradientPerJ * branchCurrentDensity[static_cast<std::size_t>(step.branch)];
    nodeStress[static_cast<std::size_t>(step.child)] =
        nodeStress[static_cast<std::size_t>(step.parent)] -
        step.sign * gradient * branch.length;
  }

  // Pass 2 (bottom-up reduce): atom conservation fixes the offset so the
  // volume-weighted mean stress equals σ_T. σ is linear on each branch, so
  // its exact volume integral is V_b·(φ_a + φ_b)/2.
  double weighted = 0.0;
  for (const SteadyBranch& branch : branches_) {
    weighted += branch.length * branch.area *
                (nodeStress[static_cast<std::size_t>(branch.a)] +
                 nodeStress[static_cast<std::size_t>(branch.b)]) *
                0.5;
  }
  const double offset = sigmaT - weighted / totalVolume_;
  for (double& stress : nodeStress) stress += offset;
}

double SteadyStateTreeSolver::maxStressRise(
    std::span<const double> branchCurrentDensity, const EmParameters& params,
    std::span<double> scratch) const {
  solve(branchCurrentDensity, params, /*sigmaT=*/0.0, scratch);
  double rise = 0.0;
  for (double stress : scratch) rise = std::max(rise, stress);
  return rise;
}

}  // namespace viaduct
