#include "checkpoint/checkpoint.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct::checkpoint {

namespace {

constexpr const char* kMagic = "viaduct-checkpoint v1";

bool parseInt64(std::string_view s, std::int64_t* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

char outcomeChar(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kKept:
      return 'K';
    case TrialOutcome::kDiscarded:
      return 'D';
    case TrialOutcome::kSalvaged:
      return 'S';
  }
  return '?';
}

bool parseOutcome(char c, TrialOutcome* out) {
  switch (c) {
    case 'K':
      *out = TrialOutcome::kKept;
      return true;
    case 'D':
      *out = TrialOutcome::kDiscarded;
      return true;
    case 'S':
      *out = TrialOutcome::kSalvaged;
      return true;
  }
  return false;
}

}  // namespace

CheckpointFile::CheckpointFile(std::string path) : path_(std::move(path)) {
  VIADUCT_REQUIRE(!path_.empty());
}

std::optional<Snapshot> CheckpointFile::load(
    const std::string& expectedKey, std::int64_t expectedTotalTrials) const {
  VIADUCT_SPAN("checkpoint.load");
  std::ifstream is(path_);
  if (!is) return std::nullopt;  // nothing to resume; not a problem
  VIADUCT_COUNTER_ADD("checkpoint.loads", 1);

  const auto reject = [&](const std::string& why) -> std::optional<Snapshot> {
    VIADUCT_COUNTER_ADD("checkpoint.load_rejected", 1);
    VIADUCT_WARN << "checkpoint " << path_ << " rejected (" << why
                 << "); it will not be resumed";
    return std::nullopt;
  };

  std::string line;
  if (!std::getline(is, line) || line != kMagic)
    return reject("bad magic/version header");
  Snapshot snap;
  if (!std::getline(is, line) || line.rfind("key ", 0) != 0)
    return reject("missing key line");
  snap.configKey = line.substr(4);
  if (!std::getline(is, line) || line.rfind("total ", 0) != 0 ||
      !parseInt64(line.substr(6), &snap.totalTrials)) {
    return reject("missing/bad total line");
  }

  bool sawEnd = false;
  std::int64_t endCount = -1;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("end ", 0) == 0) {
      if (!parseInt64(line.substr(4), &endCount))
        return reject("bad end trailer");
      sawEnd = true;
      break;
    }
    if (line.rfind("trial ", 0) != 0)
      return reject("unknown directive '" + line.substr(0, 24) + "'");

    const std::string payload = line.substr(6);
    const auto bar = payload.find('|');
    if (bar == std::string::npos)
      return reject("trial line missing '|' separator");
    const std::string head = payload.substr(0, bar);

    TrialRecord record;
    std::string oc;
    std::string primaryStr;
    {
      std::istringstream hs(head);
      if (!(hs >> record.trial >> oc) || oc.size() != 1 ||
          !parseOutcome(oc[0], &record.outcome)) {
        return reject("bad trial header");
      }
      std::getline(hs, primaryStr);  // rest of `head`: the primary doubles
    }
    if (record.trial < 0 || record.trial >= snap.totalTrials)
      return reject("trial index out of range");
    auto primary = parseDoubles(primaryStr);
    auto secondary = parseDoubles(payload.substr(bar + 1));
    if (!primary || !secondary) return reject("corrupt trial payload");
    record.primary = std::move(*primary);
    record.secondary = std::move(*secondary);
    const std::int64_t trial = record.trial;
    if (!snap.trials.emplace(trial, std::move(record)).second)
      return reject("duplicate trial " + std::to_string(trial));
  }
  if (!sawEnd) return reject("truncated (no end trailer)");
  if (endCount != static_cast<std::int64_t>(snap.trials.size()))
    return reject("record count mismatch (trailer says " +
                  std::to_string(endCount) + ", found " +
                  std::to_string(snap.trials.size()) + ")");
  if (snap.configKey != expectedKey)
    return reject("stale: config key mismatch");
  if (snap.totalTrials != expectedTotalTrials)
    return reject("stale: snapshot is for " +
                  std::to_string(snap.totalTrials) + " trials, run wants " +
                  std::to_string(expectedTotalTrials));
  // Models a snapshot whose payload was corrupted in a way that survives
  // the structural checks above (bit rot past the parser).
  if (fault::shouldInject("checkpoint.load"))
    return reject("injected corruption (checkpoint.load)");
  return snap;
}

bool CheckpointFile::write(const Snapshot& snapshot) const {
  VIADUCT_SPAN("checkpoint.write");
  // Injected I/O failure: behave exactly like a full disk — no temp file
  // promoted, previous snapshot untouched.
  if (fault::shouldInject("checkpoint.write")) return false;

  const bool published = writeFileAtomically(path_, [&](std::ostream& os) {
    os << kMagic << '\n';
    os << "key " << snapshot.configKey << '\n';
    os << "total " << snapshot.totalTrials << '\n';
    for (const auto& [idx, record] : snapshot.trials) {
      VIADUCT_CHECK(idx == record.trial);
      VIADUCT_CHECK(idx >= 0 && idx < snapshot.totalTrials);
      os << "trial " << idx << ' ' << outcomeChar(record.outcome) << ' ';
      writeDoubles(os, record.primary);
      os << " | ";
      writeDoubles(os, record.secondary);
      os << '\n';
    }
    os << "end " << snapshot.trials.size() << '\n';
  });
  if (!published) return false;
  VIADUCT_COUNTER_ADD("checkpoint.writes", 1);
  return true;
}

TrialRecorder::TrialRecorder(const Options& options, std::string configKey,
                             std::int64_t totalTrials)
    : options_(options) {
  snapshot_.configKey = std::move(configKey);
  snapshot_.totalTrials = totalTrials;
  if (options_.enabled()) VIADUCT_REQUIRE(totalTrials >= 1);
}

std::map<std::int64_t, TrialRecord> TrialRecorder::restore() {
  if (!options_.enabled() || !options_.resume) return {};
  const CheckpointFile file(options_.path);
  auto snap = file.load(snapshot_.configKey, snapshot_.totalTrials);
  if (!snap) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_.trials = std::move(snap->trials);
  resumedTrials_ = static_cast<int>(snapshot_.trials.size());
  if (resumedTrials_ > 0) {
    VIADUCT_COUNTER_ADD("checkpoint.resumed_trials", resumedTrials_);
    VIADUCT_INFO << "checkpoint: resumed " << resumedTrials_ << "/"
                 << snapshot_.totalTrials << " trials from " << options_.path;
  }
  return snapshot_.trials;
}

void TrialRecorder::record(TrialRecord record) {
  if (!options_.enabled()) return;
  VIADUCT_CHECK(record.trial >= 0 && record.trial < snapshot_.totalTrials);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t trial = record.trial;
  snapshot_.trials[trial] = std::move(record);
  ++sinceWrite_;
  if (options_.everyTrials > 0 && sinceWrite_ >= options_.everyTrials)
    writeLocked();
}

void TrialRecorder::finalize() {
  if (!options_.enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (sinceWrite_ > 0) writeLocked();
}

double TrialRecorder::secondsSinceLastWrite() const {
  const std::uint64_t last = lastWriteNs_.load(std::memory_order_relaxed);
  if (last == 0) return -1.0;
  return static_cast<double>(obs::nowNs() - last) * 1e-9;
}

void TrialRecorder::writeLocked() {
  lastWriteNs_.store(obs::nowNs(), std::memory_order_relaxed);
  const CheckpointFile file(options_.path);
  if (!file.write(snapshot_)) {
    VIADUCT_COUNTER_ADD("checkpoint.write_failures", 1);
    VIADUCT_WARN << "checkpoint write to " << options_.path
                 << " failed; continuing (previous snapshot, if any, is "
                    "still good)";
  }
  // Reset on attempt, not on success: a persistently failing disk must not
  // retry on every subsequent trial.
  sinceWrite_ = 0;
}

}  // namespace viaduct::checkpoint
