// viaduct benchmark program. Usually started through perfbench/run.py:
//
//   viaduct_perfbench --workload fig_stress|pg1_char|pg5_mc --seed N
//                     --seconds S --trace 0|1 [--smoke] [--perturb-reference]
//                     --root <checkout> --work-dir <dir>
//                     [--git-sha SHA] [--src-digest HEX]
//
// One closed-loop caller: each op starts when the previous one returned.
// The last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Human-readable report lines come before it; the full run
// record (stamp, samples) and, for traced runs, the span trace are written
// under --work-dir.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace {

using namespace perfbench;

int cpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: viaduct_perfbench --workload fig_stress|pg1_char|pg5_mc "
               "--seed N --seconds S --trace 0|1 [--smoke] [--perturb-reference] "
               "--root DIR --work-dir DIR [--git-sha SHA] [--src-digest HEX]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string gitSha = "unknown", srcDigest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = std::stoi(value()) != 0;
      else if (arg == "--smoke") options.smoke = true;
      else if (arg == "--perturb-reference") options.perturbReference = true;
      else if (arg == "--root") options.root = value();
      else if (arg == "--work-dir") options.workDir = value();
      else if (arg == "--git-sha") gitSha = value();
      else if (arg == "--src-digest") srcDigest = value();
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const std::map<std::string, std::function<void(const Options&, Report&)>> workloads = {
      {"fig_stress", runFigStress}, {"pg1_char", runPg1Char}, {"pg5_mc", runPg5Mc}};
  if (!workloads.count(options.workload)) usage("unknown workload '" + options.workload + "'");
  if (options.workDir.empty()) usage("--work-dir is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  options.nproc = cpuCount();
  options.threads = std::min(options.nproc, 4);
  options.releaseBuild = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::filesystem::create_directories(options.workDir);
  viaduct::setLogLevel(viaduct::LogLevel::kWarn);

  Report report;
  try {
    workloads.at(options.workload)(options, report);
  } catch (const std::exception& e) {
    std::cerr << "error: " << options.workload << " could not run: " << e.what() << "\n";
    return 1;
  }
  const double rss = peakRssMb();
  report.line("peak_rss_mb = " + fmt(rss) + " MB");
  const double failedShare =
      report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 1.0;
  report.line("failed_op_share = " + fmt(failedShare) + " ratio (" + std::to_string(report.failed) +
              " of " + std::to_string(report.attempted) + " ops)");
  if (options.trace) {
    fillUnmeasured(options, report);
    std::vector<Metric> perLayer;
    for (const auto& [name, unit] : perLayerMetrics())
      for (const auto& m : report.metrics)
        if (m.name == name) perLayer.push_back(m);
    report.metrics = perLayer;
  } else {
    report.metric("peak_rss_mb", rss, "MB");
  }

  // The stamp every record carries.
  std::string flags;
  if (options.nproc == 1) flags += "nproc=1: *_speedup_nt omitted; ";
  if (!options.releaseBuild) flags += "not a Release build: *_speedup_nt omitted; ";
  std::ostringstream stamp;
  stamp << "{\"workload\": " << jsonString(options.workload)
        << ", \"seed\": " << options.seed << ", \"seconds\": " << jsonNumber(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"smoke\": " << (options.smoke ? 1 : 0)
        << ", \"nproc\": " << options.nproc << ", \"threads\": " << options.threads
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
        << ", \"git_sha\": " << jsonString(gitSha)
        << ", \"src_digest\": " << jsonString(srcDigest)
        << ", \"flags\": " << jsonString(flags) << "}";

  std::ostringstream result;
  const bool correct = report.attempted > 0 && report.failed == 0;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    result << (i ? ", " : "") << jsonString(m.name) << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
  }
  result << "}}";

  const std::string base = options.workDir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  {
    std::ofstream record(base + ".record.json");
    record << "{\"stamp\": " << stamp.str() << ",\n\"result\": " << result.str()
           << ",\n\"lines\": [";
    for (std::size_t i = 0; i < report.lines.size(); ++i)
      record << (i ? ",\n  " : "\n  ") << jsonString(report.lines[i]);
    record << "],\n\"samples\": {";
    bool firstSample = true;
    for (const auto& [name, values] : report.samples) {
      record << (firstSample ? "\n  " : ",\n  ") << jsonString(name) << ": [";
      for (std::size_t i = 0; i < values.size(); ++i)
        record << (i ? ", " : "") << jsonNumber(values[i]);
      record << "]";
      firstSample = false;
    }
    record << "}}\n";
  }
  if (options.trace) tracer().writeJson(base + ".trace.json");

  std::cout << "stamp: " << stamp.str() << "\n";
  for (const auto& line : report.lines) std::cout << line << "\n";
  std::cout << result.str() << std::endl;
  return 0;
}
