// Export-surface tests: the reworked Gauge (authoritative set + sharded
// add), histogram quantiles, the structured registry snapshot, and the
// OpenMetrics text exposition — including a mini-validator for the format
// invariants a scraper depends on (TYPE lines, cumulative buckets, the
// +Inf bucket equaling _count, the "# EOF" terminator) and a
// snapshot-under-concurrent-writers check.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace viaduct {
namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    obs::resetAll();
  }
};

// --- Gauge semantics (the set-slot fix) ----------------------------------

TEST_F(ObsExportTest, GaugeShardedAddsSumExactly) {
  obs::Gauge& g = obs::Registry::instance().gauge("export.gauge.adds");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kAddsPerThread; ++i) g.add(0.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kAddsPerThread * 0.5);
}

TEST_F(ObsExportTest, GaugeSetIsAuthoritativeOverPriorAdds) {
  obs::Gauge& g = obs::Registry::instance().gauge("export.gauge.set");
  // Accumulate deltas from several threads so multiple shards are dirty,
  // then set: the set must retire every shard, not just the setter's own.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&g] { g.add(3.25); });
  for (auto& t : threads) t.join();
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.add(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST_F(ObsExportTest, GaugeConcurrentSettersConvergeToOneSetValue) {
  obs::Gauge& g = obs::Registry::instance().gauge("export.gauge.race");
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &go, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < 500; ++i) g.set(static_cast<double>(t + 1));
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  // Last write wins: the final value is exactly one of the set values.
  const double v = g.value();
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(v, std::floor(v));
}

// --- Histogram quantiles --------------------------------------------------

TEST_F(ObsExportTest, HistogramQuantileInterpolatesWithinBucket) {
  obs::HistogramSnapshot h;
  h.bounds = {10.0, 20.0, 40.0};
  // 10 observations in (10, 20]: rank q=0.5 -> 5th of 10 -> 10 + 0.5*10.
  h.counts = {0, 10, 0, 0};
  h.count = 10;
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 1.0), 20.0);
}

TEST_F(ObsExportTest, HistogramQuantileInOverflowBucketIsInfinite) {
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {0, 0, 5};  // everything beyond the last finite bound
  h.count = 5;
  // The quantile is only known to exceed 2: reporting 2 would be a lie.
  EXPECT_EQ(obs::histogramQuantile(h, 0.50),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(obs::histogramQuantile(h, 0.99),
            std::numeric_limits<double>::infinity());
  // A rank below the overflow bucket still interpolates.
  h.counts = {0, 5, 5};
  h.count = 10;
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 2.0);
}

TEST_F(ObsExportTest, HistogramQuantileEmptyIsZero) {
  obs::HistogramSnapshot h;
  h.bounds = {1.0};
  h.counts = {0, 0};
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 0.0);
}

TEST_F(ObsExportTest, SnapshotJsonCarriesDerivedQuantiles) {
  obs::Histogram& h = obs::Registry::instance().histogram(
      "export.quantiles", std::vector<double>{1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const std::string json = obs::snapshotJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

// --- OpenMetrics exposition ----------------------------------------------

TEST_F(ObsExportTest, OpenMetricsNameSanitization) {
  EXPECT_EQ(obs::openMetricsName("cg.solves"), "viaduct_cg_solves");
  EXPECT_EQ(obs::openMetricsName("grid_mc.trials/sec"),
            "viaduct_grid_mc_trials_sec");
}

// Mini-validator: checks the exposition-format invariants a Prometheus /
// OpenMetrics scraper relies on.
void validateOpenMetrics(const std::string& text) {
  // Must end with the OpenMetrics terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  std::istringstream in(text);
  std::string line;
  std::string currentMetric;
  double lastCumulative = -1.0;
  double bucketCount = -1.0, countValue = -1.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# EOF", 0) == 0) break;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line);
      std::string hash, type, name, kind;
      ls >> hash >> type >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      currentMetric = name;
      lastCumulative = -1.0;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment: " << line;
    // Every sample line is "<name>[{labels}] <value>".
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string sample = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    // Values parse as numbers (NaN/+Inf spellings allowed).
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      std::size_t pos = 0;
      EXPECT_NO_THROW((void)std::stod(value, &pos)) << line;
      EXPECT_EQ(pos, value.size()) << line;
    }
    // Histogram buckets must be cumulative in le-order, with the +Inf
    // bucket equal to _count.
    if (sample.find("_bucket{le=") != std::string::npos) {
      const double v = std::stod(value);
      EXPECT_GE(v, lastCumulative) << "non-cumulative bucket: " << line;
      lastCumulative = v;
      if (sample.find("le=\"+Inf\"") != std::string::npos) bucketCount = v;
    } else if (sample.size() > 6 &&
               sample.compare(sample.size() - 6, 6, "_count") == 0) {
      countValue = std::stod(value);
      if (bucketCount >= 0.0)
        EXPECT_DOUBLE_EQ(bucketCount, countValue) << sample;
      bucketCount = -1.0;
    }
  }
  (void)currentMetric;
}

TEST_F(ObsExportTest, OpenMetricsTextIsValid) {
  obs::Registry::instance().counter("export.om.counter").add(42);
  obs::Registry::instance().gauge("export.om.gauge").set(2.5);
  obs::Histogram& h = obs::Registry::instance().histogram(
      "export.om.hist", std::vector<double>{1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(100.0);
  obs::Registry::instance().spanStat("export.om.span").record(1'000'000);

  const std::string text = obs::openMetricsText();
  validateOpenMetrics(text);
  EXPECT_NE(text.find("# TYPE viaduct_export_om_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("viaduct_export_om_counter_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("viaduct_export_om_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("viaduct_export_om_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("viaduct_export_om_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("viaduct_export_om_hist_p50"), std::string::npos);
  EXPECT_NE(text.find("viaduct_span_export_om_span_seconds_total"),
            std::string::npos);
  EXPECT_NE(text.find("viaduct_span_export_om_span_calls_total 1"),
            std::string::npos);
  EXPECT_NE(std::string(obs::openMetricsContentType()).find("openmetrics"),
            std::string::npos);
}

TEST_F(ObsExportTest, OverflowQuantilesAreNullInJsonAndInfInOpenMetrics) {
  obs::Histogram& h = obs::Registry::instance().histogram(
      "export.overflow", std::vector<double>{1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  const std::string json = obs::snapshotJson();
  const std::size_t at = json.find("\"export.overflow\"");
  ASSERT_NE(at, std::string::npos);
  const std::string entry = json.substr(at, json.find('}', at) - at);
  EXPECT_NE(entry.find("\"p50\": null"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"p99\": null"), std::string::npos) << entry;
  EXPECT_EQ(entry.find("inf"), std::string::npos) << entry;

  const std::string line =
      obs::sampleJsonLine(obs::Registry::instance().snapshot(), 1, 0, 0);
  const std::size_t lat = line.find("\"export.overflow\"");
  ASSERT_NE(lat, std::string::npos);
  const std::string lentry = line.substr(lat, line.find('}', lat) - lat);
  EXPECT_NE(lentry.find("\"p50\":null"), std::string::npos) << lentry;
  EXPECT_EQ(lentry.find("inf"), std::string::npos) << lentry;

  const std::string text = obs::openMetricsText();
  validateOpenMetrics(text);
  EXPECT_NE(text.find("viaduct_export_overflow_p50 +Inf"), std::string::npos);
}

TEST_F(ObsExportTest, SampleJsonLineIsSingleLine) {
  obs::Registry::instance().counter("export.jsonl.counter").add(7);
  obs::Histogram& h = obs::Registry::instance().histogram(
      "export.jsonl.hist", std::vector<double>{1.0});
  h.observe(0.5);
  const std::string line =
      obs::sampleJsonLine(obs::Registry::instance().snapshot(), 3, 1000, 2000);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "embedded newline";
  EXPECT_NE(line.find("\"schema\":\"viaduct-obs-stream-v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(line.find("export.jsonl.counter"), std::string::npos);
}

// --- Snapshot under concurrent writers -----------------------------------

TEST_F(ObsExportTest, SnapshotWhileHammeringKeepsCountersMonotone) {
  obs::Counter& c = obs::Registry::instance().counter("export.hammer.counter");
  obs::Histogram& h = obs::Registry::instance().histogram(
      "export.hammer.hist", std::vector<double>{0.5});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      // At least some writes even if the reader finishes first, then keep
      // hammering until the reader is done.
      for (int i = 0; i < 1000 || !stop.load(std::memory_order_relaxed);
           ++i) {
        c.add(1);
        h.observe(0.25);
      }
    });
  }
  std::uint64_t lastCounter = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name != "export.hammer.counter") continue;
      EXPECT_GE(value, lastCounter) << "counter went backwards";
      lastCounter = value;
    }
    for (const auto& [name, hist] : snap.histograms) {
      if (name != "export.hammer.hist") continue;
      // Per-instrument consistency: count always equals the bucket sum.
      std::uint64_t total = 0;
      for (const std::uint64_t b : hist.counts) total += b;
      EXPECT_EQ(total, hist.count);
    }
    // The exposition itself must stay well-formed mid-hammer.
    if (i % 50 == 0) validateOpenMetrics(obs::openMetricsText(snap));
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(c.value(), 0u);
}

}  // namespace
}  // namespace viaduct
