#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>

namespace viaduct::obs {

namespace {

bool initialEnabled() {
  const char* e = std::getenv("VIADUCT_OBS");
  if (!e) return true;
  const std::string v(e);
  return !(v == "0" || v == "false" || v == "off");
}

std::atomic<bool>& enabledFlag() {
  static std::atomic<bool> flag{initialEnabled()};
  return flag;
}

}  // namespace

bool enabled() { return enabledFlag().load(std::memory_order_relaxed); }
void setEnabled(bool on) { enabledFlag().store(on, std::memory_order_relaxed); }

int threadIndex() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)) {
  const std::size_t buckets = bounds_.size() + 1;
  shardCounts_.reserve(detail::kShards);
  for (int s = 0; s < detail::kShards; ++s) {
    shardCounts_.push_back(
        std::make_unique<std::atomic<std::uint64_t>[]>(buckets));
    for (std::size_t b = 0; b < buckets; ++b)
      shardCounts_.back()[b].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  const auto shard = static_cast<std::size_t>(detail::shardIndex());
  shardCounts_[shard][bucket].fetch_add(1, std::memory_order_relaxed);
  detail::atomicAdd(sums_[shard].value, v);
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& shard : shardCounts_)
    for (std::size_t b = 0; b < out.size(); ++b)
      out[b] += shard[b].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : bucketCounts()) total += c;
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const auto& s : sums_) total += s.value.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (auto& shard : shardCounts_)
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
      shard[b].store(0, std::memory_order_relaxed);
  for (auto& s : sums_) s.value.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Buckets::exponential(double start, double factor,
                                         int count) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> Buckets::linear(double start, double step, int count) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(start + step * i);
  return out;
}

std::uint64_t SpanStat::count() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.count.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t SpanStat::totalNs() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_)
    total += s.totalNs.load(std::memory_order_relaxed);
  return total;
}

void SpanStat::reset() {
  for (auto& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.totalNs.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

namespace {
/// Shared-lock lookup, unique-lock insert. The factory runs under the
/// unique lock only when the name is new.
template <typename Map, typename Factory>
auto& findOrCreate(std::shared_mutex& mutex, Map& map, std::string_view name,
                   Factory&& factory) {
  {
    std::shared_lock lock(mutex);
    const auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), factory()).first;
  return *it->second;
}
}  // namespace

Counter& Registry::counter(std::string_view name) {
  return findOrCreate(mutex_, counters_, name,
                      [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  return findOrCreate(mutex_, gauges_, name,
                      [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  return findOrCreate(mutex_, histograms_, name, [&] {
    return std::make_unique<Histogram>(
        std::vector<double>(bounds.begin(), bounds.end()));
  });
}

SpanStat& Registry::spanStat(std::string_view name) {
  return findOrCreate(mutex_, spanStats_, name,
                      [] { return std::make_unique<SpanStat>(); });
}

void Registry::reset() {
  std::unique_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : spanStats_) s->reset();
}

double histogramQuantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0 || h.bounds.empty()) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    cumulative += h.counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    if (b >= h.bounds.size()) break;  // +inf bucket: see below
    const double hi = h.bounds[b];
    const double lo = b == 0 ? std::min(0.0, hi) : h.bounds[b - 1];
    const auto inBucket = static_cast<double>(h.counts[b]);
    if (inBucket <= 0.0) return hi;
    const double below = static_cast<double>(cumulative) - inBucket;
    return lo + (hi - lo) * std::min(1.0, (rank - below) / inBucket);
  }
  // The rank lies in the overflow bucket: all that is known is that the
  // quantile exceeds the last finite bound, so no finite value is honest.
  return std::numeric_limits<double>::infinity();
}

RegistrySnapshot Registry::snapshot() const {
  std::shared_lock lock(mutex_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->upperBounds();
    hs.counts = h->bucketCounts();
    hs.sum = h->sum();
    for (const std::uint64_t c : hs.counts) hs.count += c;
    snap.histograms.emplace_back(name, std::move(hs));
  }
  snap.spans.reserve(spanStats_.size());
  for (const auto& [name, s] : spanStats_)
    snap.spans.emplace_back(name, SpanSnapshot{s->count(), s->totalNs()});
  return snap;
}

namespace {
void appendJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// JSON has no infinity: an unknown (overflow-bucket) quantile is null.
void appendJsonNumber(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}
}  // namespace

std::string Registry::snapshotJson() const {
  const RegistrySnapshot snap = snapshot();
  std::ostringstream os;
  os.precision(17);

  os << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) os << ", ";
    first = false;
    appendJsonString(os, name);
    os << ": " << value;
  }
  os << "},\n\"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) os << ", ";
    first = false;
    appendJsonString(os, name);
    os << ": " << value;
  }
  os << "},\n\"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\n  ";
    appendJsonString(os, name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i)
      os << (i ? ", " : "") << h.bounds[i];
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      os << (i ? ", " : "") << h.counts[i];
    os << "], \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"p50\": ";
    appendJsonNumber(os, histogramQuantile(h, 0.50));
    os << ", \"p90\": ";
    appendJsonNumber(os, histogramQuantile(h, 0.90));
    os << ", \"p99\": ";
    appendJsonNumber(os, histogramQuantile(h, 0.99));
    os << "}";
  }
  os << "\n},\n\"spans\": {";
  first = true;
  for (const auto& [name, s] : snap.spans) {
    if (!first) os << ",";
    first = false;
    os << "\n  ";
    appendJsonString(os, name);
    os << ": {\"count\": " << s.count
       << ", \"total_seconds\": " << static_cast<double>(s.totalNs) * 1e-9
       << "}";
  }
  os << "\n}";
  return os.str();
}

}  // namespace viaduct::obs
