#include "viaarray/cache.h"

#include <fstream>
#include <mutex>
#include <map>
#include <sstream>
#include <string_view>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

constexpr const char* kMagic = "viaduct-characterization-cache v1";

struct RawEntry {
  std::string sigmaLine;
  std::vector<std::string> traceLines;
};

/// Parses the whole file into key -> raw lines; returns empty map on any
/// structural problem (treated as cache miss).
std::map<std::string, RawEntry> readAll(const std::string& path) {
  std::map<std::string, RawEntry> entries;
  std::ifstream is(path);
  if (!is) return entries;
  std::string line;
  if (!std::getline(is, line) || line != kMagic) return entries;

  std::string key;
  RawEntry current;
  auto flush = [&]() {
    if (!key.empty()) entries[key] = std::move(current);
    key.clear();
    current = RawEntry{};
  };
  while (std::getline(is, line)) {
    if (line.rfind("entry ", 0) == 0) {
      flush();
      key = line.substr(6);
    } else if (line.rfind("sigma ", 0) == 0) {
      current.sigmaLine = line.substr(6);
    } else if (line.rfind("trace ", 0) == 0) {
      current.traceLines.push_back(line.substr(6));
    } else if (!line.empty()) {
      return {};  // unknown directive: treat whole file as invalid
    }
  }
  flush();
  return entries;
}

}  // namespace

CharacterizationStore::CharacterizationStore(std::string path)
    : path_(std::move(path)) {
  VIADUCT_REQUIRE(!path_.empty());
}

std::optional<CharacterizationData> CharacterizationStore::load(
    const std::string& key) const {
  VIADUCT_SPAN("char_cache.store_load");
  VIADUCT_COUNTER_ADD("char_cache.store_loads", 1);
  std::lock_guard lock(mutex_);
  const auto entries = readAll(path_);
  const auto it = entries.find(key);
  if (it == entries.end()) return std::nullopt;

  CharacterizationData data;
  // parseDoubles is non-throwing by contract: a corrupt token ("nan",
  // "1e999999", a truncated write) is a malformed entry → cache miss,
  // exactly like a structural problem in readAll.
  auto sigma = parseDoubles(it->second.sigmaLine);
  if (!sigma || sigma->empty()) return std::nullopt;
  data.rawSigmaT = std::move(*sigma);
  for (const auto& line : it->second.traceLines) {
    const auto bar = line.find('|');
    if (bar == std::string::npos) return std::nullopt;
    FailureTrace trace;
    auto times = parseDoubles(std::string_view(line).substr(0, bar));
    auto resistances = parseDoubles(std::string_view(line).substr(bar + 1));
    if (!times || !resistances) return std::nullopt;
    trace.failureTimes = std::move(*times);
    trace.resistanceAfter = std::move(*resistances);
    if (trace.failureTimes.size() != trace.resistanceAfter.size() ||
        trace.failureTimes.empty()) {
      return std::nullopt;
    }
    data.traces.push_back(std::move(trace));
  }
  if (data.traces.empty()) return std::nullopt;
  // Models silent on-disk corruption that survives parsing: the entry loads
  // but the rehydration-time shape validation in ViaArrayCharacterization
  // rejects it (truncated final trace).
  if (fault::shouldInject("char_cache.load")) {
    data.traces.back().failureTimes.pop_back();
    data.traces.back().resistanceAfter.pop_back();
  }
  return data;
}

void CharacterizationStore::save(const std::string& key,
                                 const CharacterizationData& data) {
  VIADUCT_SPAN("char_cache.store_save");
  VIADUCT_COUNTER_ADD("char_cache.store_saves", 1);
  VIADUCT_REQUIRE(!data.rawSigmaT.empty() && !data.traces.empty());
  // Serialize read-modify-rewrite cycles within the process; see cache.h.
  std::lock_guard lock(mutex_);
  auto entries = readAll(path_);

  RawEntry fresh;
  {
    std::ostringstream sig;
    writeDoubles(sig, data.rawSigmaT);
    fresh.sigmaLine = sig.str();
    for (const auto& trace : data.traces) {
      std::ostringstream tl;
      writeDoubles(tl, trace.failureTimes);
      tl << " | ";
      writeDoubles(tl, trace.resistanceAfter);
      fresh.traceLines.push_back(tl.str());
    }
  }

  // Published by temp file + rename, so a crash mid-save keeps the previous
  // file and a reader in another process never sees a truncated one.
  const bool published = writeFileAtomically(path_, [&](std::ostream& os) {
    os << kMagic << '\n';
    auto writeEntry = [&os](const std::string& k, const RawEntry& e) {
      os << "entry " << k << '\n';
      os << "sigma " << e.sigmaLine << '\n';
      for (const auto& t : e.traceLines) os << "trace " << t << '\n';
    };
    for (const auto& [k, e] : entries) {
      if (k == key) continue;  // replaced below
      writeEntry(k, e);
    }
    writeEntry(key, fresh);
  });
  if (!published)
    throw ParseError("cannot publish characterization cache: " + path_);
  VIADUCT_DEBUG << "characterization cache: stored entry (" << entries.size() + 1
                << " total)";
}

std::size_t CharacterizationStore::entryCount() const {
  std::lock_guard lock(mutex_);
  return readAll(path_).size();
}

}  // namespace viaduct
