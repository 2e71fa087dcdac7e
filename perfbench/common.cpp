#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << value;
  return os.str();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double Report::timing(const std::string& name,
                      const std::vector<double>& values,
                      const std::string& unit) {
  samples[name] = values;
  if (values.empty()) {
    line(name + " = n/a (no samples)");
    return 0.0;
  }
  const double med = median(values);
  line(name + " = " + fmt(med) + " " + unit + " (median, n=" +
       std::to_string(values.size()) + ")");
  // The highest percentile with at least ten samples beyond it.
  if (values.size() >= 100) {
    line(name + "_p90 = " + fmt(quantile(values, 0.9)) + " " + unit +
         " (n=" + std::to_string(values.size()) + ")");
  }
  return med;
}

bool Checker::expect(bool ok, const std::string& what) {
  if (!ok) {
    opFailed_ = true;
    if (messages_++ < 20) std::cerr << "check failed: " << what << "\n";
  }
  return ok;
}

void Checker::endOp() {
  ++report_.attempted;
  if (opFailed_) ++report_.failed;
  opFailed_ = false;
}

void Checker::thrown(const std::string& what) {
  expect(false, "op threw: " + what);
  endOp();
}

std::uint64_t deriveSeed(std::uint64_t seed, std::string_view tag,
                         std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the tag
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ h ^ (index << 32 | index);
  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool close(double a, double b, double scale, double tol) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::abs(a - b) <= tol * std::abs(scale);
}

bool closeVector(const std::vector<double>& actual,
                 const std::vector<double>& expected, double tol) {
  if (actual.size() != expected.size() || expected.empty()) return false;
  double scale = 0.0;
  for (const double e : expected) scale = std::max(scale, std::abs(e));
  for (std::size_t i = 0; i < actual.size(); ++i)
    if (!close(actual[i], expected[i], scale, tol)) return false;
  return true;
}

ValueSets readValueSets(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  if (!std::getline(in, line) || line != "viaduct-golden v1")
    throw std::runtime_error(path + ": not a viaduct-golden v1 file");
  ValueSets sets;
  std::string current;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string word;
    is >> word;
    if (word == "set") {
      is >> current;
    } else if (word == "values" && !current.empty()) {
      auto& values = sets[current];
      for (std::string token; is >> token;) values.push_back(std::stod(token));
    }
  }
  return sets;
}

void perturb(ValueSets& sets, const Options& options) {
  if (!options.perturbReference) return;
  for (auto& [name, values] : sets)
    for (double& v : values) v *= 1.0 + 1e-3;
}

ValueSets loadReference(const Options& options) {
  ValueSets sets = readValueSets(options.root + "/perfbench/reference.golden");
  perturb(sets, options);
  return sets;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double fileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"structures.build_s", "s"},
      {"fea.setup_s", "s"},
      {"fea.solve_s", "s"},
      {"fea.cg_iterations", "count"},
      {"fea.s_per_iteration", "s"},
      {"fea.speedup_nt", "x"},
      {"viaarray.fea_s", "s"},
      {"viaarray.mc_s", "s"},
      {"viaarray.mc_trials_per_s", "1/s"},
      {"viaarray.fit_s", "s"},
      {"viaarray.store_save_s", "s"},
      {"viaarray.store_load_s", "s"},
      {"viaarray.store_bytes", "bytes"},
      {"viaarray.library_hit_ratio", "ratio"},
      {"viaarray.discarded_share", "ratio"},
      {"core.char_share", "ratio"},
      {"common.bootstrap_s", "s"},
      {"grid.tune_s", "s"},
      {"grid.model_s", "s"},
      {"grid.mc_s", "s"},
      {"grid.trials_per_s", "1/s"},
      {"grid.failures_per_trial", "count"},
      {"grid.update_ms", "ms"},
      {"grid.resolve_ms", "ms"},
      {"grid.rebases_per_trial", "count"},
      {"grid.mc_speedup_nt", "x"},
      {"numerics.factor_nnz", "count"},
      {"numerics.solve_bytes", "bytes"},
      {"em.tree_build_s", "s"},
      {"em.audit_s", "s"},
      {"em.census_s", "s"},
      {"em.mortal_config_share", "ratio"},
      {"obs.overhead_pct", "%"},
      {"bench.span_coverage", "ratio"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

void reportCoverage(Report& report, const std::vector<double>& coverage) {
  const double med = median(coverage);
  report.metric("bench.span_coverage", med, "ratio");
  const bool within = std::abs(med - 1.0) <= kCoverageBound;
  report.line("bench.span_coverage " + fmt(med) + (within ? " is" : " is NOT") +
              " within 1 +- " + fmt(kCoverageBound) + " (n=" +
              std::to_string(coverage.size()) + ")");
}

void fillUnmeasured(const Options& options, Report& report) {
  std::set<std::string> have;
  for (const auto& m : report.metrics) have.insert(m.name);
  std::string missing;
  for (const auto& [name, unit] : perLayerMetrics()) {
    if (have.count(name)) continue;
    const bool speedup = name.find("_speedup_nt") != std::string::npos;
    if (speedup && !options.speedups()) continue;  // omitted, flagged in the stamp
    report.metric(name, 0.0, unit);
    missing += (missing.empty() ? "" : ", ") + name;
  }
  if (!missing.empty())
    report.line("not exercised by " + options.workload +
                " (reported as 0): " + missing);
}

}  // namespace perfbench
