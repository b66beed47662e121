#pragma once

// Durable trial journal: crash resilience for long campaigns.
//
// A FastFIT campaign is itself a long-running workload — thousands of
// (point, trial) executions — and must survive being killed at any
// instant. The journal is an append-only JSONL file: one header line
// pinning the campaign's identity (workload, seed, nranks, fault model,
// algorithms, golden digest) followed by one line per completed
// (point, trial) outcome, plus quarantine records and the ML loop's
// training-label checkpoints. Writes are fsync-batched; a SIGKILL can
// lose at most the unsynced tail (those trials simply re-run on resume)
// and a torn final line is detected and truncated away.
//
// Resume is bit-identical by construction: the per-trial RNG identity is
// a pure function of (campaign seed, point, trial index)
// (FaultSpec::stream_index), so replaying journaled outcomes and running
// only the missing trials yields exactly the uninterrupted campaign.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/points.hpp"
#include "inject/outcome.hpp"

namespace fastfit::core {

/// Stable identity of one injection point within a campaign
/// ("site:rank:invocation:param"); the key journal lines are indexed by.
std::string point_key(const InjectionPoint& point);

/// Campaign identity written as the journal's first line. Resume refuses
/// to continue a journal whose identity differs from the live campaign —
/// a changed seed or golden digest would silently break the bit-identical
/// resume guarantee.
struct JournalHeader {
  std::string workload;
  std::uint64_t seed = 0;
  int nranks = 0;
  std::uint32_t trials_per_point = 0;
  std::string fault_model;
  std::string algorithms;
  std::uint64_t golden_digest = 0;
  /// Deterministic shard this journal belongs to (1/1 = unsharded). A
  /// shard's journal only ever holds that shard's points; resuming it
  /// under a different --shard would replay the wrong partition.
  /// Pre-shard journals omit the fields and read back as 1/1.
  std::size_t shard_index = 1;
  std::size_t shard_count = 1;
};

/// Why a point was abandoned by the trial guard (audit trail; resumed
/// campaigns retry quarantined points from scratch).
struct QuarantineRecord {
  std::uint32_t retries = 0;
  std::string error;
};

class TrialJournal {
 public:
  /// Creates a fresh journal at `path` and writes the header. Throws
  /// ConfigError if the file already exists (an existing journal must be
  /// resumed explicitly or removed — never silently clobbered).
  static std::unique_ptr<TrialJournal> create(const std::string& path,
                                              const JournalHeader& header);

  /// Opens an existing journal: validates its header against `expected`
  /// field by field (ConfigError on any mismatch), loads every completed
  /// trial/label/quarantine record, truncates a torn final line, and
  /// reopens for appending. A missing file degrades to create() — a
  /// killed campaign may die before its journal's first write.
  static std::unique_ptr<TrialJournal> resume(const std::string& path,
                                              const JournalHeader& expected);

  ~TrialJournal();

  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

  /// Outcome of (point, trial) if journaled, either loaded at resume or
  /// recorded earlier in this process.
  std::optional<inject::Outcome> lookup(const std::string& key,
                                        std::uint64_t trial) const;

  /// Appends one completed trial. Idempotent: re-recording a journaled
  /// (key, trial) is a no-op (outcomes are deterministic). Non-SUCCESS
  /// trials may carry forensics: `deterministic` marks a quiescence-proven
  /// deadlock ("d":1) and `autopsy` the one-line world autopsy ("a");
  /// `model` (the canonical fault-model spec, "m") names what was
  /// injected. All are extra record fields older readers ignore; replay
  /// keys only on (point, trial, outcome), so reports stay bit-identical.
  void record_trial(const std::string& key, std::uint64_t trial,
                    inject::Outcome outcome, bool deterministic = false,
                    const std::string& autopsy = {},
                    const std::string& model = {});

  /// Appends a quarantine record for an abandoned point.
  void record_quarantine(const std::string& key, std::uint32_t retries,
                         const std::string& error);

  /// Quarantine record of a point, if any was journaled.
  std::optional<QuarantineRecord> quarantine(const std::string& key) const;

  /// ML-loop training checkpoint: records the label derived for a
  /// measured point, or — when the label was already journaled — verifies
  /// it, throwing ConfigError on divergence (a diverged label means the
  /// resumed campaign is not reproducing the original, e.g. changed
  /// thresholds or label mode).
  void check_or_record_label(const std::string& key, std::size_t label);

  /// Label checkpoint of a point, if journaled.
  std::optional<std::size_t> label(const std::string& key) const;

  /// Writes buffered lines to disk and fsyncs. Called automatically every
  /// kFlushBatch records and from the destructor.
  void flush();

  /// Trial records loaded from disk at resume() (0 for a fresh journal).
  std::uint64_t loaded_trials() const noexcept { return loaded_; }

  const std::string& path() const noexcept { return path_; }

  /// Records between fsyncs; at most this many trial results can be lost
  /// to a crash (they re-run on resume).
  static constexpr std::size_t kFlushBatch = 64;

 private:
  TrialJournal(std::string path, int fd);

  void append_line(const std::string& line);  // caller holds mutex_
  void flush_locked();

  std::string path_;
  int fd_ = -1;
  std::string buffer_;
  std::size_t buffered_lines_ = 0;
  std::uint64_t loaded_ = 0;
  // Trial outcomes per point key, indexed by trial ordinal; -1 = unset.
  std::unordered_map<std::string, std::vector<std::int16_t>> trials_;
  std::unordered_map<std::string, std::size_t> labels_;
  std::unordered_map<std::string, QuarantineRecord> quarantines_;
  mutable std::mutex mutex_;
};

}  // namespace fastfit::core
