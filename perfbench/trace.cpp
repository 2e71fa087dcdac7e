#include "trace.h"

#include <fstream>
#include <iomanip>
#include <map>

namespace perfbench {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(std::string_view name) {
  if (!enabled_) return -1;
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.name = std::string(name);
  s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - origin_)
                  .count();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].endNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<int> Tracer::children(int id) const {
  std::vector<int> out;
  for (const Span& s : spans_)
    if (s.parent == id) out.push_back(s.id);
  return out;
}

double Tracer::childSeconds(int id) const {
  double sum = 0.0;
  for (const int c : children(id)) sum += span(c).seconds();
  return sum;
}

double Tracer::selfSeconds(int id) const {
  return span(id).seconds() - childSeconds(id);
}

bool Tracer::descendsFrom(int id, int root) const {
  for (int p = span(id).parent; p >= 0; p = span(p).parent)
    if (p == root) return true;
  return false;
}

double Tracer::totalSeconds(int root, std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name && descendsFrom(s.id, root)) sum += s.seconds();
  return sum;
}

bool Tracer::writeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(9);
  std::map<std::string, std::pair<double, int>> selfByName;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = selfSeconds(s.id);
    auto& agg = selfByName[s.name];
    agg.first += self;
    agg.second += 1;
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << static_cast<double>(s.startNs) * 1e-9
        << ", \"end_s\": " << static_cast<double>(s.endNs) * 1e-9
        << ", \"self_s\": " << self << "}";
  }
  out << "\n],\n\"self_seconds_by_name\": {";
  bool first = true;
  for (const auto& [name, agg] : selfByName) {
    out << (first ? "\n  " : ",\n  ") << "\"" << name << "\": {\"self_s\": "
        << agg.first << ", \"count\": " << agg.second << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
