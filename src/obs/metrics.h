// viaduct::obs — dependency-free metrics registry.
//
// Three instrument kinds, all safe to hit from the Monte Carlo / FEA hot
// loops running on the thread pool:
//
//   Counter    monotonically increasing u64; lock-free per-thread shards
//              (one relaxed fetch_add on the calling thread's shard).
//   Gauge      last-written double (set) or accumulated double (add).
//   Histogram  fixed upper-bound buckets chosen at registration; per-thread
//              shards of relaxed bucket counters plus a sharded sum.
//
// Shards are merged only on read (value() / snapshot), so instrumented code
// pays ~one uncontended relaxed atomic per event regardless of thread
// count. Handles returned by the Registry are stable for the process
// lifetime; hot call sites cache them in function-local statics (see the
// VIADUCT_COUNTER_ADD / VIADUCT_HISTOGRAM_OBSERVE macros in obs.h).
//
// Instrumentation never touches RNG streams or changes any computed value,
// so enabling it cannot perturb bit-identity across thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace viaduct::obs {

/// True unless observability is disabled at runtime. Initialized once from
/// the VIADUCT_OBS environment variable (0/false/off disable; default on).
bool enabled();
void setEnabled(bool on);

/// Small dense id for the calling thread (assigned on first use). Also used
/// as the shard selector and as the tid of trace events and log lines.
int threadIndex();

namespace detail {
inline constexpr int kShards = 16;

inline int shardIndex() { return threadIndex() & (kShards - 1); }

/// Relaxed CAS add for doubles (no atomic<double>::fetch_add pre-C++20
/// guarantees on all toolchains).
inline void atomicAdd(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) SumShard {
  std::atomic<double> value{0.0};
};
}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t delta) {
    shards_[static_cast<std::size_t>(detail::shardIndex())].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  detail::CounterShard shards_[detail::kShards];
};

class Gauge {
 public:
  /// `set` is authoritative: it goes through the single base slot, never
  /// through the shards, so the value read after a set is exactly the last
  /// set that happened-before the read — not a merge whose result depends
  /// on which shard a writer thread hashed to. Deltas accumulated by `add`
  /// before the set are retired; an `add` racing the set keeps last-write-
  /// wins semantics (it either survives on a cleared shard or is retired
  /// with the rest).
  void set(double v) {
    base_.store(v, std::memory_order_relaxed);
    for (auto& s : shards_) s.value.store(0.0, std::memory_order_relaxed);
  }
  /// `add` stays sharded: one uncontended relaxed CAS on the calling
  /// thread's shard, like Counter.
  void add(double delta) {
    detail::atomicAdd(shards_[static_cast<std::size_t>(detail::shardIndex())].value,
                      delta);
  }
  double value() const {
    double total = base_.load(std::memory_order_relaxed);
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    base_.store(0.0, std::memory_order_relaxed);
    for (auto& s : shards_) s.value.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> base_{0.0};
  detail::SumShard shards_[detail::kShards];
};

class Histogram {
 public:
  /// `upperBounds` must be strictly increasing; an implicit +inf bucket is
  /// appended, so there are upperBounds.size() + 1 buckets.
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double v);

  const std::vector<double>& upperBounds() const { return bounds_; }
  /// Merged per-bucket counts (size upperBounds().size() + 1).
  std::vector<std::uint64_t> bucketCounts() const;
  std::uint64_t count() const;
  double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;
  // Per-shard bucket counters, laid out shard-major.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> shardCounts_;
  detail::SumShard sums_[detail::kShards];
};

/// Common bucket layouts.
struct Buckets {
  /// {start, start*factor, ...} with `count` bounds.
  static std::vector<double> exponential(double start, double factor,
                                         int count);
  /// {start, start+step, ...} with `count` bounds.
  static std::vector<double> linear(double start, double step, int count);
};

/// Per-span-name aggregate (count + total wall time), sharded like Counter.
class SpanStat {
 public:
  void record(std::uint64_t durationNs) {
    auto& s = shards_[static_cast<std::size_t>(detail::shardIndex())];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.totalNs.fetch_add(durationNs, std::memory_order_relaxed);
  }
  std::uint64_t count() const;
  std::uint64_t totalNs() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> totalNs{0};
  };
  Shard shards_[detail::kShards];
};

/// Point-in-time copy of one histogram: bucket upper bounds, per-bucket
/// (non-cumulative) counts with the +inf bucket last, total count, and sum.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of one span aggregate.
struct SpanSnapshot {
  std::uint64_t count = 0;
  std::uint64_t totalNs = 0;
};

/// Point-in-time copy of the whole registry, name-sorted. This is the one
/// structure every export surface (JSON snapshot, OpenMetrics text, the
/// JSONL sampler) renders, so the surfaces can never disagree about what a
/// metric is called or how its buckets are laid out. Each instrument is
/// read with its own merge-on-read pass: values taken while writers are
/// hammering are internally consistent per instrument (a histogram's
/// `count` always equals the sum of its `counts`) but not a global atomic
/// cut across instruments.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, SpanSnapshot>> spans;
};

/// Prometheus-style quantile estimate from bucketed counts: finds the
/// bucket containing rank q*count and interpolates linearly inside it
/// (from 0 for the first bucket). A rank landing in the +inf bucket
/// returns +infinity: the quantile is only known to exceed the last finite
/// bound. Returns 0 for an empty histogram.
double histogramQuantile(const HistogramSnapshot& h, double q);

/// Process-wide instrument registry. Registration (the first call for a
/// given name) takes a unique lock; subsequent lookups take a shared lock.
/// Returned references remain valid for the process lifetime.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First registration wins the bucket layout; later callers with a
  /// different layout get the existing instrument.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);
  SpanStat& spanStat(std::string_view name);

  /// Zeroes every instrument (values only; registrations persist). Used by
  /// tests and by overhead benchmarking between measurement phases.
  void reset();

  /// The metrics half of obs::snapshotJson() (no trailing newline).
  std::string snapshotJson() const;

  /// Point-in-time copy of every instrument (see RegistrySnapshot).
  RegistrySnapshot snapshot() const;

 private:
  Registry() = default;

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<SpanStat>, std::less<>> spanStats_;
};

}  // namespace viaduct::obs
