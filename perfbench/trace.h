// Benchmark-side spans around calls into viaduct's layers.
//
// A span has a name, a start, an end and the span that was open when it
// started (its parent). Spans live in memory and are written once, when
// the benchmark exits. The benchmark is a single closed-loop caller, so
// child spans never overlap and a span's self time is its duration minus
// the durations of its direct children.
//
// Tracing is off in end-to-end runs: ScopedSpan is then a single branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  std::string name;
  std::int64_t startNs = 0;  // relative to the tracer's origin
  std::int64_t endNs = 0;
  double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

class Tracer {
 public:
  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when tracing is off.
  int open(std::string_view name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_.at(static_cast<std::size_t>(id)); }

  /// Direct children of `id`, in start order.
  std::vector<int> children(int id) const;
  /// Duration minus the direct children's durations.
  double selfSeconds(int id) const;
  /// Sum of the durations of `id`'s direct children.
  double childSeconds(int id) const;
  /// Total duration of the spans named `name` that descend from `root`.
  double totalSeconds(int root, std::string_view name) const;

  /// Writes every span plus per-name self-time totals as JSON.
  bool writeJson(const std::string& path) const;

 private:
  bool descendsFrom(int id, int root) const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : id_(tracer().open(name)) {}
  ~ScopedSpan() { tracer().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace perfbench
