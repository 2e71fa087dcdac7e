#include "support/transient_path.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "common/logging.h"
#include "common/physical_constants.h"

namespace viaduct {

TransientPathReference::TransientPathReference(
    const SteadyStateTreeSolver& tree,
    std::span<const double> branchCurrentDensity, const EmParameters& params,
    double sigmaT, const Options& options)
    : options_(options), sigmaT_(sigmaT) {
  VIADUCT_REQUIRE_MSG(tree.isPath(),
                  "transient reference requires a path-shaped tree");
  VIADUCT_REQUIRE_MSG(
      branchCurrentDensity.size() == tree.branches().size(),
      "branch current span size mismatch");
  VIADUCT_REQUIRE_MSG(options_.cellsPerBranch >= 2 && options_.growth >= 1.0,
                  "invalid transient reference options (>= 2 cells/branch)");

  // Recover the path's branch order by walking from one endpoint. Node
  // stresses from the closed form also seed `steady_` below.
  const auto& branches = tree.branches();
  const int nodeCount = tree.nodeCount();
  std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(nodeCount));
  for (std::size_t i = 0; i < branches.size(); ++i) {
    adjacency[static_cast<std::size_t>(branches[i].a)].push_back(
        static_cast<int>(i));
    adjacency[static_cast<std::size_t>(branches[i].b)].push_back(
        static_cast<int>(i));
  }
  int start = 0;
  for (int node = 0; node < nodeCount; ++node) {
    if (adjacency[static_cast<std::size_t>(node)].size() == 1) {
      start = node;
      break;
    }
  }
  std::vector<int> pathBranch;      // branch index in walk order
  std::vector<double> pathSign;     // +1 when walked a→b
  pathBranch.reserve(branches.size());
  pathSign.reserve(branches.size());
  int node = start;
  int previousBranch = -1;
  while (static_cast<int>(pathBranch.size()) < nodeCount - 1) {
    int next = -1;
    for (int branchIdx : adjacency[static_cast<std::size_t>(node)]) {
      if (branchIdx != previousBranch) {
        next = branchIdx;
        break;
      }
    }
    VIADUCT_REQUIRE_MSG(next >= 0, "path walk disconnected");
    const SteadyBranch& branch = branches[static_cast<std::size_t>(next)];
    pathBranch.push_back(next);
    pathSign.push_back(branch.a == node ? 1.0 : -1.0);
    node = branch.a == node ? branch.b : branch.a;
    previousBranch = next;
  }

  // Cell-centered grid: `cellsPerBranch` equal cells per branch, with the
  // stress-gradient source G oriented along the walk direction.
  const int cellsPerBranch = options_.cellsPerBranch;
  const std::size_t cellCount = pathBranch.size() *
                                static_cast<std::size_t>(cellsPerBranch);
  dx_.reserve(cellCount);
  std::vector<double> cellG;
  cellG.reserve(cellCount);
  double totalLength = 0.0;
  double maxGradient = 0.0;
  for (std::size_t p = 0; p < pathBranch.size(); ++p) {
    const SteadyBranch& branch =
        branches[static_cast<std::size_t>(pathBranch[p])];
    const double gradient =
        pathSign[p] *
        stressGradientPerMeter(
            branchCurrentDensity[static_cast<std::size_t>(pathBranch[p])],
            params);
    const double width = branch.length / cellsPerBranch;
    for (int c = 0; c < cellsPerBranch; ++c) {
      dx_.push_back(width);
      cellG.push_back(gradient);
    }
    totalLength += branch.length;
    maxGradient = std::max(maxGradient, std::abs(gradient));
  }
  gradientScale_ = maxGradient > 0.0 ? maxGradient : 1.0;

  // Flux-matched face source: the length-weighted mean of the two
  // neighbouring cell gradients makes the discrete steady state agree with
  // the continuous piecewise-linear profile exactly at cell centers.
  faceDx_.resize(cellCount > 0 ? cellCount - 1 : 0);
  faceG_.resize(faceDx_.size());
  for (std::size_t f = 0; f + 1 < cellCount; ++f) {
    faceDx_[f] = 0.5 * (dx_[f] + dx_[f + 1]);
    faceG_[f] = (cellG[f] * dx_[f] + cellG[f + 1] * dx_[f + 1]) /
                (dx_[f] + dx_[f + 1]);
  }

  sigma_.assign(cellCount, sigmaT_);
  lower_.resize(cellCount);
  diag_.resize(cellCount);
  upper_.resize(cellCount);
  rhs_.resize(cellCount);

  kappa_ = params.medianDeff() * params.bulkModulusPa * params.atomicVolume /
           (constants::kBoltzmann * params.temperatureK);
  double minWidth = dx_.empty() ? 1.0 : dx_[0];
  for (double width : dx_) minWidth = std::min(minWidth, width);
  dt_ = options_.initialCellFraction * minWidth * minWidth / kappa_;
  horizon_ = options_.horizonDiffusionTimes * totalLength * totalLength / kappa_;

  // Closed-form asymptote at cell centers: integrate the −G slope along
  // the walk, then shift so the cell-volume-weighted mean equals σ_T
  // (uniform area on a path, so weights are just dx).
  steady_.resize(cellCount);
  double position = 0.0;  // φ at the running cell center, relative to start
  double weighted = 0.0;
  for (std::size_t i = 0; i < cellCount; ++i) {
    if (i == 0) {
      position = -cellG[0] * 0.5 * dx_[0];
    } else {
      position -= faceG_[i - 1] * faceDx_[i - 1];
    }
    steady_[i] = position;
    weighted += position * dx_[i];
  }
  const double offset = sigmaT_ - weighted / totalLength;
  for (double& value : steady_) value += offset;
}

double TransientPathReference::step() {
  const std::size_t n = sigma_.size();
  dt_ *= options_.growth;
  // Implicit Euler on dσ/dt = (1/dx_i)[F_{i+1/2} − F_{i−1/2}],
  // F = κ(∂σ/∂x + G); blocking ends have F = 0.
  for (std::size_t i = 0; i < n; ++i) {
    lower_[i] = 0.0;
    upper_[i] = 0.0;
    diag_[i] = 1.0;
    rhs_[i] = sigma_[i];
    if (i > 0) {
      const double coupling = dt_ * kappa_ / (dx_[i] * faceDx_[i - 1]);
      lower_[i] = -coupling;
      diag_[i] += coupling;
      rhs_[i] -= dt_ * kappa_ * faceG_[i - 1] / dx_[i];
    }
    if (i + 1 < n) {
      const double coupling = dt_ * kappa_ / (dx_[i] * faceDx_[i]);
      upper_[i] = -coupling;
      diag_[i] += coupling;
      rhs_[i] += dt_ * kappa_ * faceG_[i] / dx_[i];
    }
  }
  // Thomas elimination.
  for (std::size_t i = 1; i < n; ++i) {
    const double m = lower_[i] / diag_[i - 1];
    diag_[i] -= m * upper_[i - 1];
    rhs_[i] -= m * rhs_[i - 1];
  }
  sigma_[n - 1] = rhs_[n - 1] / diag_[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    sigma_[i] = (rhs_[i] - upper_[i] * sigma_[i + 1]) / diag_[i];
  }
  time_ += dt_;
  return time_;
}

double TransientPathReference::steadyStateResidual() const {
  double worst = 0.0;
  for (std::size_t f = 0; f + 1 < sigma_.size(); ++f) {
    const double flux =
        (sigma_[f + 1] - sigma_[f]) / faceDx_[f] + faceG_[f];
    worst = std::max(worst, std::abs(flux));
  }
  return worst / gradientScale_;
}

double TransientPathReference::runToSteadyState() {
  double residual = steadyStateResidual();
  while (residual > options_.tolerance && time_ < horizon_) {
    step();
    residual = steadyStateResidual();
  }
  if (residual > options_.tolerance && !warned_) {
    warned_ = true;
    VIADUCT_WARN << "transient asymptote horizon hit un-converged: residual="
                 << residual << " tol=" << options_.tolerance
                 << " t=" << time_ << " s";
  }
  return residual;
}

double TransientPathReference::maxStressRise() const {
  double rise = 0.0;
  for (double stress : sigma_) rise = std::max(rise, stress - sigmaT_);
  return rise;
}

double TransientPathReference::maxNodalStressRise() const {
  const std::size_t cells = static_cast<std::size_t>(options_.cellsPerBranch);
  const std::size_t branchCount = sigma_.size() / cells;
  double worst = maxStressRise();
  for (std::size_t p = 0; p < branchCount; ++p) {
    const std::size_t first = p * cells;
    const std::size_t last = first + cells - 1;
    // The two boundary cells of a branch share its width, so the in-branch
    // center spacing equals dx; extrapolate half a cell to each node.
    const double frontSlope =
        (sigma_[first + 1] - sigma_[first]) / faceDx_[first];
    const double frontNode = sigma_[first] - frontSlope * 0.5 * dx_[first];
    const double backSlope =
        (sigma_[last] - sigma_[last - 1]) / faceDx_[last - 1];
    const double backNode = sigma_[last] + backSlope * 0.5 * dx_[last];
    worst = std::max({worst, frontNode - sigmaT_, backNode - sigmaT_});
  }
  return worst;
}

std::vector<double> TransientPathReference::closedFormCellStress() const {
  return steady_;
}

}  // namespace viaduct
