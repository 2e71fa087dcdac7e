// viaduct command-line driver: the library's main flows as subcommands.
//
//   viaduct_cli generate     --preset PG1 --out grid.spice
//   viaduct_cli analyze      --netlist grid.spice --via-n 4 --trials 300
//   viaduct_cli characterize --n 8 --pattern T --criterion 2x
//   viaduct_cli signoff      --preset PG1 --limit 2e10
//   viaduct_cli census       --preset PG1 --margin-mpa 340
//
// Every subcommand accepts --help. Global flags work with any command and
// are stripped before subcommand parsing:
//   --metrics-out FILE   write the obs metrics snapshot (JSON) at exit
//   --trace-out FILE     record spans and write a Chrome trace-event JSON
//                        (load in chrome://tracing or ui.perfetto.dev)
//   --fault-spec SPEC    arm deterministic fault injection, e.g.
//                        "seed=42;cg.nonconverge:p=0.05;cholesky.factor:nth=3"
//                        (also readable from the VIADUCT_FAULTS env var)
//   --obs-listen H:P     serve live telemetry over HTTP while the run is
//                        in flight (/metrics OpenMetrics, /metrics.json,
//                        /debug/solves, /healthz); port 0 = ephemeral
//   --metrics-stream F   append periodic registry snapshots to F (JSONL,
//                        crash-safe: complete lines survive a SIGKILL)
//   --metrics-every N    sampling interval for --metrics-stream, seconds
//   --progress           print periodic progress/ETA lines (lowers the log
//                        level to INFO; VIADUCT_LOG_JSON=1 for JSON lines)
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/table.h"
#include "common/units.h"
#include "core/analyzer.h"
#include "fault/fault.h"
#include "grid/signoff.h"
#include "grid/wire_mortality.h"
#include "obs/http.h"
#include "obs/obs.h"
#include "obs/sampler.h"
#include "spice/generator.h"
#include "spice/parser.h"
#include "spice/writer.h"
#include "viaarray/cache.h"
#include "viaarray/primitive_store.h"

using namespace viaduct;

namespace {

Netlist loadGrid(const std::string& netlistPath, const std::string& preset) {
  if (!netlistPath.empty()) return parseSpiceFile(netlistPath);
  if (preset == "PG1") return generatePgBenchmark(PgPreset::kPg1);
  if (preset == "PG2") return generatePgBenchmark(PgPreset::kPg2);
  if (preset == "PG5") return generatePgBenchmark(PgPreset::kPg5);
  throw PreconditionError("unknown preset '" + preset + "' (PG1/PG2/PG5)");
}

int cmdGenerate(int argc, const char* const* argv) {
  std::string preset = "PG1";
  std::string out;
  int stripes = 0;
  int layers = 2;
  double amps = 0.0;
  CliFlags flags("viaduct_cli generate: write a synthetic power-grid netlist");
  flags.addString("preset", &preset, "PG1, PG2, or PG5");
  flags.addString("out", &out, "output SPICE file (stdout if empty)");
  flags.addInt("stripes", &stripes, "override stripe count (0 = preset)");
  flags.addInt("layers", &layers, "routed metal layers");
  flags.addDouble("amps", &amps, "override total load current (0 = preset)");
  if (!flags.parse(argc, argv)) return 0;

  GridGeneratorConfig cfg =
      preset == "PG2"   ? pgPresetConfig(PgPreset::kPg2)
      : preset == "PG5" ? pgPresetConfig(PgPreset::kPg5)
                        : pgPresetConfig(PgPreset::kPg1);
  if (stripes > 0) cfg.stripesX = cfg.stripesY = stripes;
  if (amps > 0.0) cfg.totalCurrentAmps = amps;
  cfg.layers = layers;
  const Netlist netlist = generatePowerGrid(cfg);
  if (out.empty()) {
    writeSpice(netlist, std::cout);
  } else {
    writeSpiceFile(netlist, out);
    std::cout << "wrote " << out << " (" << netlist.resistors().size()
              << " resistors, " << netlist.currentSources().size()
              << " loads)\n";
  }
  return 0;
}

int cmdAnalyze(int argc, const char* const* argv) {
  std::string netlistPath, preset = "PG1", arrayCrit = "open",
                           systemCrit = "ir", cachePath, checkpointPath,
                           primitiveStorePath;
  int viaN = 4, trials = 300, charTrials = 300, threads = 0,
      checkpointEvery = 32;
  bool resume = false, wireAudit = false;
  double tuneIr = 0.06, wireMarginMpa = 340.0;
  CliFlags flags("viaduct_cli analyze: two-level EM TTF analysis");
  flags.addString("netlist", &netlistPath, "SPICE netlist (overrides preset)");
  flags.addString("preset", &preset, "PG1/PG2/PG5");
  flags.addInt("via-n", &viaN, "via array dimension");
  flags.addString("array-criterion", &arrayCrit,
                  "open, weakest, <k>, or <r>x");
  flags.addString("system-criterion", &systemCrit, "ir or weakest");
  flags.addInt("trials", &trials, "grid Monte Carlo trials");
  flags.addInt("char-trials", &charTrials, "characterization trials");
  flags.addDouble("tune-ir", &tuneIr, "nominal IR-drop tuning target");
  flags.addString("cache", &cachePath, "characterization cache file");
  flags.addInt("threads", &threads,
               "worker threads (0 = hardware concurrency); results are "
               "identical for any value");
  flags.addString("checkpoint", &checkpointPath,
                  "crash-safe snapshot file for both MC levels (empty = "
                  "disabled); results are identical with or without it");
  flags.addInt("checkpoint-every", &checkpointEvery,
               "snapshot every N completed trials (<= 0: only at run end)");
  flags.addBool("resume", &resume,
                "resume completed trials from --checkpoint (stale or "
                "corrupt snapshots are rejected and re-run)");
  flags.addString("primitive-store", &primitiveStorePath,
                  "on-disk FEA stress-primitive store; a warm store "
                  "characterizes with zero FEA solves");
  flags.addBool("wire-audit", &wireAudit,
                "audit every MC failure configuration's wire stresses with "
                "the steady-state tree solver (diagnostic; TTF samples are "
                "unchanged)");
  flags.addDouble("wire-margin-mpa", &wireMarginMpa,
                  "wire stress margin sigma_C - sigma_T - sigma_pkg [MPa]");
  if (!flags.parse(argc, argv)) return 0;

  AnalyzerConfig config;
  config.viaArraySize = viaN;
  config.trials = trials;
  config.characterization.trials = charTrials;
  if (!primitiveStorePath.empty())
    config.characterization.primitiveStore =
        std::make_shared<StressPrimitiveStore>(primitiveStorePath);
  config.tuneNominalIrDropFraction = tuneIr;
  config.parallelism.threads = threads;
  config.checkpoint.path = checkpointPath;
  config.checkpoint.everyTrials = checkpointEvery;
  config.checkpoint.resume = resume;
  if (resume && checkpointPath.empty())
    throw PreconditionError("--resume needs --checkpoint <path>");
  config.wireEmAudit = wireAudit;
  config.wireStressMarginPa = wireMarginMpa * units::MPa;

  auto library =
      cachePath.empty()
          ? std::make_shared<ViaArrayLibrary>()
          : std::make_shared<ViaArrayLibrary>(
                std::make_shared<CharacterizationStore>(cachePath));
  PowerGridEmAnalyzer analyzer(loadGrid(netlistPath, preset), config,
                               library);

  const auto acParsed = ViaArrayFailureCriterion::parse(arrayCrit);
  if (!acParsed)
    throw PreconditionError("bad --array-criterion '" + arrayCrit +
                            "' (open, weakest, <k>, or <r>x)");
  const auto ac = *acParsed;
  const auto sc = systemCrit == "weakest" ? GridFailureCriterion::weakestLink()
                                          : GridFailureCriterion::irDrop(0.10);
  const auto report = analyzer.analyze(ac, sc);
  std::cout << "grid: " << analyzer.model().unknownCount() << " nodes, "
            << analyzer.model().viaArrays().size() << " via arrays ("
            << viaN << "x" << viaN << ")\n";
  std::cout << "criteria: array " << report.arrayCriterion << ", system "
            << report.systemCriterion << "\n";
  std::cout << "worst-case TTF: " << TextTable::num(report.worstCaseYears, 2)
            << " years (95% CI "
            << TextTable::num(report.worstCaseCiLowYears, 2) << "-"
            << TextTable::num(report.worstCaseCiHighYears, 2)
            << "), median " << TextTable::num(report.medianYears, 2)
            << " years, " << TextTable::num(report.meanFailuresToBreach, 1)
            << " failures to breach\n";
  if (report.discardedTrials > 0 || report.salvagedTrials > 0) {
    std::cout << "fault policy: " << report.discardedTrials
              << " trials discarded, " << report.salvagedTrials
              << " salvaged (of " << trials << ")\n";
  }
  if (report.resumedTrials > 0) {
    std::cout << "checkpoint: resumed " << report.resumedTrials << "/"
              << trials << " grid trials from " << checkpointPath << "\n";
  }
  if (wireAudit) {
    std::cout << "wire-EM audit (steady): "
              << report.wireMortalConfigs << "/" << report.wireAuditedConfigs
              << " failure configurations with mortal wires ("
              << report.wireMortalTrials << "/" << trials << " trials)\n";
  }
  return 0;
}

int cmdCharacterize(int argc, const char* const* argv) {
  int n = 4, trials = 500, threads = 0, checkpointEvery = 32;
  bool resume = false;
  std::string pattern = "Plus", criterion = "open", cachePath, checkpointPath,
              primitiveStorePath;
  CliFlags flags("viaduct_cli characterize: level-1 via-array TTF");
  flags.addInt("n", &n, "via array dimension");
  flags.addString("pattern", &pattern, "Plus, T, or L");
  flags.addString("criterion", &criterion, "open, weakest, <k>, or <r>x");
  flags.addInt("trials", &trials, "Monte Carlo trials");
  flags.addString("cache", &cachePath, "characterization cache file");
  flags.addInt("threads", &threads,
               "worker threads (0 = hardware concurrency); results are "
               "identical for any value");
  flags.addString("checkpoint", &checkpointPath,
                  "crash-safe snapshot file for the characterization Monte "
                  "Carlo (empty = disabled)");
  flags.addInt("checkpoint-every", &checkpointEvery,
               "snapshot every N completed trials (<= 0: only at run end)");
  flags.addBool("resume", &resume,
                "resume completed trials from --checkpoint (stale or "
                "corrupt snapshots are rejected and re-run)");
  flags.addString("primitive-store", &primitiveStorePath,
                  "on-disk FEA stress-primitive store; a warm store "
                  "characterizes with zero FEA solves");
  if (!flags.parse(argc, argv)) return 0;

  ViaArrayCharacterizationSpec spec;
  spec.array.n = n;
  if (!primitiveStorePath.empty())
    spec.primitiveStore =
        std::make_shared<StressPrimitiveStore>(primitiveStorePath);
  spec.pattern = pattern == "T"   ? IntersectionPattern::kT
                 : pattern == "L" ? IntersectionPattern::kL
                                  : IntersectionPattern::kPlus;
  spec.trials = trials;
  spec.parallelism.threads = threads;
  spec.checkpoint.path = checkpointPath;
  spec.checkpoint.everyTrials = checkpointEvery;
  spec.checkpoint.resume = resume;
  if (resume && checkpointPath.empty())
    throw PreconditionError("--resume needs --checkpoint <path>");

  auto library =
      cachePath.empty()
          ? std::make_shared<ViaArrayLibrary>()
          : std::make_shared<ViaArrayLibrary>(
                std::make_shared<CharacterizationStore>(cachePath));
  auto ch = library->get(spec);
  const auto critParsed = ViaArrayFailureCriterion::parse(criterion);
  if (!critParsed)
    throw PreconditionError("bad --criterion '" + criterion +
                            "' (open, weakest, <k>, or <r>x)");
  const auto crit = *critParsed;
  const auto cdf = ch->ttfCdf(crit);
  const auto fit = ch->ttfLognormal(crit);
  std::cout << n << "x" << n << " " << patternName(spec.pattern)
            << " array, criterion " << crit.describe() << ":\n";
  std::cout << "  median " << TextTable::num(cdf.median() / units::year, 2)
            << " yr, 0.3%ile " << TextTable::num(cdf.worstCase() / units::year, 2)
            << " yr, lognormal(mu=" << TextTable::num(fit.mu(), 3)
            << ", sigma=" << TextTable::num(fit.sigma(), 3) << ")\n";
  if (ch->resumedTrials() > 0) {
    std::cout << "  checkpoint: resumed " << ch->resumedTrials() << "/"
              << trials << " trials from " << checkpointPath << "\n";
  }
  return 0;
}

int cmdSignoff(int argc, const char* const* argv) {
  std::string netlistPath, preset = "PG1";
  double limit = 2e10;
  double tuneIr = 0.06, wireMarginMpa = 340.0;
  bool wires = false;
  CliFlags flags("viaduct_cli signoff: traditional current-density check");
  flags.addString("netlist", &netlistPath, "SPICE netlist (overrides preset)");
  flags.addString("preset", &preset, "PG1/PG2/PG5");
  flags.addDouble("limit", &limit, "foundry via limit [A/m^2]");
  flags.addDouble("tune-ir", &tuneIr,
                  "retune loads to this nominal IR fraction (0 = as-is)");
  flags.addBool("wires", &wires,
                "also sign off wire trees with the steady-state EM solver");
  flags.addDouble("wire-margin-mpa", &wireMarginMpa,
                  "wire stress margin sigma_C - sigma_T - sigma_pkg [MPa]");
  if (!flags.parse(argc, argv)) return 0;

  Netlist netlist = loadGrid(netlistPath, preset);
  if (tuneIr > 0.0) tuneNominalIrDrop(netlist, tuneIr);
  const PowerGridModel model(netlist);
  SignoffConfig cfg;
  cfg.currentDensityLimit = limit;
  cfg.wireStressMarginPa = wireMarginMpa * units::MPa;
  const auto report = signoffViaArrays(model, cfg);
  std::cout << (report.passed() ? "PASS" : "FAIL") << ": "
            << report.violations << "/" << report.totalArrays
            << " via arrays over the limit; worst j = "
            << report.worstCurrentDensity << " A/m^2 ("
            << TextTable::num(100.0 * report.worstUtilization(), 1)
            << "% of limit)\n";
  bool wiresPassed = true;
  if (wires) {
    const auto wireReport = signoffWires(netlist, cfg);
    wiresPassed = wireReport.passed();
    std::cout << (wireReport.passed() ? "PASS" : "FAIL")
              << ": wires (steady): " << wireReport.mortalTrees << "/"
              << wireReport.trees << " trees mortal, worst steady stress rise "
              << TextTable::num(wireReport.worstStressRisePa / units::MPa, 1)
              << " MPa vs margin "
              << TextTable::num(wireReport.stressMarginPa / units::MPa, 1)
              << " MPa";
    if (wireReport.cyclicComponents > 0)
      std::cout << " [" << wireReport.cyclicComponents
                << " cyclic components via Blech, "
                << wireReport.mortalCyclicSegments << " mortal]";
    std::cout << "\n";
  }
  return report.passed() && wiresPassed ? 0 : 2;
}

int cmdCensus(int argc, const char* const* argv) {
  std::string netlistPath, preset = "PG1";
  double marginMpa = 340.0;
  double tuneIr = 0.06;
  CliFlags flags("viaduct_cli census: wire Blech immortality census");
  flags.addString("netlist", &netlistPath, "SPICE netlist (overrides preset)");
  flags.addString("preset", &preset, "PG1/PG2/PG5");
  flags.addDouble("margin-mpa", &marginMpa,
                  "critical-stress margin sigma_C - sigma_T [MPa]");
  flags.addDouble("tune-ir", &tuneIr,
                  "retune loads to this nominal IR fraction (0 = as-is)");
  if (!flags.parse(argc, argv)) return 0;

  Netlist netlist = loadGrid(netlistPath, preset);
  if (tuneIr > 0.0) tuneNominalIrDrop(netlist, tuneIr);
  const auto census = classifyWires(netlist, WireGeometry{},
                                    marginMpa * units::MPa, EmParameters{});
  std::cout << census.mortalWires << "/" << census.totalWires
            << " wires mortal ("
            << TextTable::num(100.0 * census.mortalFraction(), 2)
            << "%); worst jL = " << TextTable::num(census.worstProduct, 0)
            << " A/m vs limit " << TextTable::num(census.productLimit, 0)
            << " A/m\n";
  const auto treeCensus =
      classifyWiresEm(netlist, WireGeometry{}, marginMpa * units::MPa,
                      EmParameters{});
  std::cout << "tree census (steady): " << treeCensus.mortalTrees << "/" << treeCensus.trees
            << " trees mortal over " << treeCensus.branches
            << " branches; worst steady stress rise "
            << TextTable::num(treeCensus.worstStressRisePa / units::MPa, 1)
            << " MPa vs margin "
            << TextTable::num(treeCensus.stressMarginPa / units::MPa, 1)
            << " MPa";
  if (treeCensus.cyclicComponents > 0)
    std::cout << " [" << treeCensus.cyclicComponents
              << " cyclic components via Blech, "
              << treeCensus.mortalCyclicSegments << " mortal]";
  std::cout << "\n";
  return census.mortalWires == 0 && treeCensus.passed() ? 0 : 2;
}

void printUsage() {
  std::cout << "usage: viaduct_cli <command> [flags]\n\ncommands:\n"
               "  generate      write a synthetic power-grid netlist\n"
               "  analyze       two-level EM TTF analysis of a grid\n"
               "  characterize  level-1 via-array TTF characterization\n"
               "  signoff       traditional current-density check\n"
               "  census        wire Blech immortality census\n"
               "\nglobal flags (any command):\n"
               "  --metrics-out FILE  write the obs metrics snapshot (JSON)\n"
               "  --trace-out FILE    write a Chrome trace-event JSON\n"
               "  --fault-spec SPEC   arm deterministic fault injection\n"
               "                      (e.g. \"seed=42;cg.nonconverge:p=0.05\";\n"
               "                      VIADUCT_FAULTS env var works too)\n"
               "  --obs-listen H:P    serve live telemetry over HTTP\n"
               "                      (/metrics OpenMetrics, /metrics.json,\n"
               "                      /debug/solves, /healthz; port 0 picks\n"
               "                      an ephemeral port)\n"
               "  --metrics-stream F  append registry snapshots to F (JSONL)\n"
               "  --metrics-every N   stream sampling interval in seconds\n"
               "                      (default 5)\n"
               "  --progress          periodic progress/ETA lines (INFO;\n"
               "                      VIADUCT_LOG_JSON=1 for JSON log lines)\n"
               "\nrun 'viaduct_cli <command> --help' for flags.\n";
}

/// Extracts `--flag VALUE` or `--flag=VALUE` from `args` (in place);
/// returns the value or "" when the flag is absent.
std::string extractFlag(std::vector<const char*>& args,
                        const std::string& flag) {
  const std::string prefix = flag + "=";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i];
    if (arg == flag) {
      if (i + 1 >= args.size())
        throw PreconditionError(flag + " needs a file argument");
      const std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
    if (arg.rfind(prefix, 0) == 0) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return arg.substr(prefix.size());
    }
  }
  return "";
}

/// Extracts a valueless `--flag` from `args` (in place); returns whether it
/// was present.
bool extractBoolFlag(std::vector<const char*>& args, const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::string(args[i]) == flag) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  std::vector<const char*> args(argv, argv + argc);
  std::string metricsOut, traceOut, obsListen, metricsStream;
  double metricsEvery = 5.0;
  try {
    metricsOut = extractFlag(args, "--metrics-out");
    traceOut = extractFlag(args, "--trace-out");
    obsListen = extractFlag(args, "--obs-listen");
    metricsStream = extractFlag(args, "--metrics-stream");
    const std::string everySpec = extractFlag(args, "--metrics-every");
    if (!everySpec.empty()) {
      const auto every = parseDoubleToken(everySpec);
      if (!every)
        throw PreconditionError("bad --metrics-every '" + everySpec + "'");
      metricsEvery = *every;
    }
    if (extractBoolFlag(args, "--progress")) setLogLevel(LogLevel::kInfo);
    // --fault-spec stacks on top of whatever VIADUCT_FAULTS armed (the
    // registry parses the env var on first access).
    const std::string faultSpec = extractFlag(args, "--fault-spec");
    if (!faultSpec.empty()) fault::Registry::instance().configure(faultSpec);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!traceOut.empty()) obs::setTracingEnabled(true);

  // Live telemetry starts before subcommand dispatch so a scrape or the
  // stream sees the whole run, and stops (unique_ptr destructors, final
  // sample included) after writeObsArtifacts on every exit path.
  std::unique_ptr<obs::TelemetryHttpServer> telemetryServer;
  std::unique_ptr<obs::MetricsSampler> metricsSampler;
  if (!obsListen.empty()) {
    std::string error;
    telemetryServer = obs::TelemetryHttpServer::start(obsListen, &error);
    if (!telemetryServer) {
      std::cerr << "error: --obs-listen: " << error << "\n";
      return 1;
    }
    std::cerr << "telemetry: serving " << telemetryServer->endpoint()
              << "/metrics\n";
  }
  if (!metricsStream.empty()) {
    std::string error;
    metricsSampler =
        obs::MetricsSampler::start(metricsStream, metricsEvery, &error);
    if (!metricsSampler) {
      std::cerr << "error: --metrics-stream: " << error << "\n";
      return 1;
    }
  }

  // Write the observability artifacts on every exit path (including
  // subcommand errors — a failed run's partial metrics are still useful).
  const auto writeObsArtifacts = [&] {
    if (!metricsOut.empty() && !obs::writeSnapshot(metricsOut))
      std::cerr << "warning: could not write metrics to " << metricsOut << "\n";
    if (!traceOut.empty() && !obs::writeTrace(traceOut))
      std::cerr << "warning: could not write trace to " << traceOut << "\n";
    if (fault::Registry::instance().totalFires() > 0)
      std::cerr << "fault injection: " << fault::Registry::instance().summary()
                << "\n";
  };

  if (args.size() < 2) {
    printUsage();
    return 1;
  }
  const std::string cmd = args[1];
  // Shift argv so each subcommand sees its own flags.
  const int subArgc = static_cast<int>(args.size()) - 1;
  const char* const* subArgv = args.data() + 1;
  try {
    int rc = 1;
    if (cmd == "generate") {
      rc = cmdGenerate(subArgc, subArgv);
    } else if (cmd == "analyze") {
      rc = cmdAnalyze(subArgc, subArgv);
    } else if (cmd == "characterize") {
      rc = cmdCharacterize(subArgc, subArgv);
    } else if (cmd == "signoff") {
      rc = cmdSignoff(subArgc, subArgv);
    } else if (cmd == "census") {
      rc = cmdCensus(subArgc, subArgv);
    } else if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      printUsage();
      return 0;
    } else {
      std::cerr << "unknown command: " << cmd << "\n";
      printUsage();
      return 1;
    }
    writeObsArtifacts();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    writeObsArtifacts();
    return 1;
  }
}
