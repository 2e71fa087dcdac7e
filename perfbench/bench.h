// Shared pieces of the viaduct benchmark: run options, the result record,
// output checks, seed derivation and reference values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

/// The seed whose analysis results are recorded in perfbench/reference.golden.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Relative tolerance of every reference comparison: 100x the FEA CG
/// relative residual tolerance (1e-7). Block-Jacobi and multigrid solves of
/// one structure differ by about 2e-7, so both pass; a perturbation of the
/// reference by 1e-3 does not.
inline constexpr double kReferenceRelTol = 1e-5;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the self-test (perfbench/test_smoke.py).
  bool smoke = false;
  /// Scales every reference value by (1 + 1e-3) so the output check must fail.
  bool perturbReference = false;
  std::string root = ".";   // checkout root: data/golden and perfbench/ live here
  std::string workDir;      // stores, the run record and the trace file
  int nproc = 1;
  int threads = 1;          // nproc capped at 4
  bool releaseBuild = false;
  /// Whether the *_speedup_nt metrics are reported (nproc > 1, Release).
  bool speedups() const { return nproc > 1 && releaseBuild; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run produces. `metrics` go into the last stdout line;
/// `lines` are printed before it; `samples` go into the run record.
struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::map<std::string, std::vector<double>> samples;

  void metric(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines.push_back(text); }
  /// Keeps the samples and prints "<name> = median (n=..)", and adds a
  /// <name>_p90 line when at least ten samples lie beyond the 90th
  /// percentile. Returns the median.
  double timing(const std::string& name, const std::vector<double>& values,
                const std::string& unit = "s");
};

/// Output checks. Every op opens a scope; any failed expectation inside it
/// marks the op failed. Messages go to stderr (the first few per run).
class Checker {
 public:
  explicit Checker(Report& report) : report_(report) {}
  void beginOp() { opFailed_ = false; }
  bool expect(bool ok, const std::string& what);
  void endOp();
  /// Records an op that threw before its checks could run.
  void thrown(const std::string& what);

 private:
  Report& report_;
  bool opFailed_ = false;
  int messages_ = 0;
};

std::uint64_t deriveSeed(std::uint64_t seed, std::string_view tag,
                         std::uint64_t index = 0);

double median(std::vector<double> values);
/// Linear-interpolated quantile of the samples, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// |a - b| <= tol * scale.
bool close(double a, double b, double scale, double tol = kReferenceRelTol);
/// Element-wise close() with scale = max |expected|.
bool closeVector(const std::vector<double>& actual,
                 const std::vector<double>& expected,
                 double tol = kReferenceRelTol);

/// Named value vectors in the repository's golden format:
///   viaduct-golden v1 / set <name> / values <doubles>.
using ValueSets = std::map<std::string, std::vector<double>>;
ValueSets readValueSets(const std::string& path);
/// Applies Options::perturbReference to loaded reference values.
void perturb(ValueSets& sets, const Options& options);
/// The benchmark's own reference values (perfbench/reference.golden).
ValueSets loadReference(const Options& options);

double peakRssMb();
double fileBytes(const std::string& path);

/// Entry points, one per workload (fig_stress.cpp, pg1_char.cpp, pg5_mc.cpp).
void runFigStress(const Options& options, Report& report);
void runPg1Char(const Options& options, Report& report);
void runPg5Mc(const Options& options, Report& report);

/// Per-layer metrics with their units, in the order BENCHMARK.json lists
/// them. A traced run reports all of them; a layer the workload's op does
/// not reach is reported as 0 and listed as such in the report lines.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();
/// Span coverage: the layer spans of a traced op over the untraced op's wall
/// time. Reports the median and whether it lies within kCoverageBound of 1.
inline constexpr double kCoverageBound = 0.15;
void reportCoverage(Report& report, const std::vector<double>& coverage);

/// Adds 0 for every per-layer metric the workload did not measure.
void fillUnmeasured(const Options& options, Report& report);

std::string fmt(double value, int precision = 6);

}  // namespace perfbench
