// FEA multigrid solve at the paper's Figure 7 problem sizes: end-to-end
// stress solves (solver construction + PCG) on one thread, recording the
// best wall time and the CG iteration count in BENCH_fea_mg.json. The
// via-peak values themselves are pinned at 1e-9 by paper_parity_test.
// Exits nonzero (never on absolute time) when the warm primitive store
// gate misses: a characterization re-run against a just-populated store
// must perform ZERO FEA solves and reproduce the cold run's raw stress
// bit-for-bit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "common/cli.h"
#include "common/logging.h"
#include "common/units.h"
#include "fea/thermo_solver.h"
#include "obs/obs.h"
#include "structures/cudd_builder.h"
#include "viaarray/characterize.h"
#include "viaarray/primitive_store.h"

using namespace viaduct;

namespace {

struct SolveSample {
  double seconds = std::numeric_limits<double>::infinity();
  int iterations = 0;
};

SolveSample runSolve(const BuiltStructure& built, int repeats) {
  SolveSample sample;
  for (int r = 0; r < repeats; ++r) {
    ThermoSolverOptions opts;
    opts.parallelism.threads = 1;
    const auto start = std::chrono::steady_clock::now();
    ThermoSolver solver(built.grid, opts);
    const CgResult cg = solver.solve();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    sample.seconds = std::min(sample.seconds, dt.count());
    sample.iterations = cg.iterations;
  }
  return sample;
}

std::int64_t feaSolveCount() {
  return static_cast<std::int64_t>(
      obs::Registry::instance().counter("viaarray.fea_solves").value());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int repeats = 3;
  std::string out = "BENCH_fea_mg.json";
  CliFlags flags("perf_fea_mg: multigrid FEA solve at fig7 problem sizes");
  flags.addBool("smoke", &smoke, "small problem, 1 repeat");
  flags.addInt("repeats", &repeats, "solve repeats (best kept)");
  flags.addString("out", &out, "JSON report path");
  if (!flags.parse(argc, argv)) return 0;
  setLogLevel(LogLevel::kWarn);
  if (smoke) repeats = 1;

  // Full mode reproduces the fig7 8x8 plus-pattern array at the paper's
  // 0.125 um resolution (~1.2e5 dofs). Smoke shrinks to a 4x4 at 0.25 um so
  // the same record and gates run inside tier-1.
  ViaArrayStructureSpec spec;
  spec.viaArray.n = smoke ? 4 : 8;
  spec.resolutionXy = (smoke ? 0.25 : 0.125) * units::um;
  const BuiltStructure built = buildViaArrayStructure(spec);

  std::cout << "=== perf_fea_mg: " << spec.viaArray.n << "x" << spec.viaArray.n
            << " array @ " << spec.resolutionXy / units::um << " um, "
            << built.grid.nodeCount() * 3 << " dofs"
            << (smoke ? " [smoke]" : "") << " ===\n";

  const SolveSample mg = runSolve(built, repeats);
  std::cout << "  solve " << mg.seconds << " s  (" << mg.iterations
            << " CG iters)\n";

  // --- Warm primitive store: cold characterization populates, warm re-run
  // must do zero FEA solves and return bit-identical raw stress.
  const std::string storePath =
      (std::filesystem::temp_directory_path() /
       ("perf_fea_mg_store_" + std::to_string(::getpid()) + ".tbl"))
          .string();
  std::filesystem::remove(storePath);
  ViaArrayCharacterizationSpec charSpec;
  charSpec.array.n = 4;
  charSpec.resolutionXy = 0.25 * units::um;
  charSpec.trials = 16;
  charSpec.primitiveStore = std::make_shared<StressPrimitiveStore>(storePath);
  const ViaArrayCharacterizer cold(charSpec);
  const std::int64_t solvesBeforeWarm = feaSolveCount();
  const ViaArrayCharacterizer warm(charSpec);
  const std::int64_t warmSolves = feaSolveCount() - solvesBeforeWarm;
  const bool warmBitIdentical = warm.rawSigmaT() == cold.rawSigmaT();
  std::filesystem::remove(storePath);
  std::cout << "  warm store: " << warmSolves << " FEA solves, raw stress "
            << (warmBitIdentical ? "bit-identical" : "DIFFERS") << "\n";

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot create " << out << "\n";
    return 1;
  }
  os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"array_n\": " << spec.viaArray.n
     << ",\n  \"resolution_um\": " << spec.resolutionXy / units::um
     << ",\n  \"dofs\": " << built.grid.nodeCount() * 3
     << ",\n  \"repeats\": " << repeats
     << ",\n  \"seconds\": " << mg.seconds
     << ",\n  \"iterations\": " << mg.iterations
     << ",\n  \"warm_store_fea_solves\": " << warmSolves
     << ",\n  \"warm_store_bit_identical\": "
     << (warmBitIdentical ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out << "\n";

  bool ok = true;
  if (warmSolves != 0) {
    std::cerr << "FAIL: warm-store characterization ran " << warmSolves
              << " FEA solves (expected 0)\n";
    ok = false;
  }
  if (!warmBitIdentical) {
    std::cerr << "FAIL: warm-store raw stress differs from the cold run\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
