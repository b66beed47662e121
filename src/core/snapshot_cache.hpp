#pragma once

// Campaign-side snapshot management (tentpole of the prefix-replay work):
//
//  * SnapshotCache — one per campaign while --snapshots is on (the
//    default): builds the fault-free recording lazily (once, in memory),
//    derives one WorldSnapshot per injected (site, invocation) — shared
//    by every trial of that point and by the whole semantic-equivalence
//    class behind it — and bounds memory with an LRU over the per-cut
//    snapshots plus the recording itself (--snapshot-cache-mb).
//
//  * GoldenCache — process-wide memo of (workload, params, nranks, seed,
//    algorithms) -> (golden digest, wall time), so a study that builds
//    many campaigns over the same configuration pays for the fault-free
//    run once.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "minimpi/snapshot.hpp"

namespace fastfit::core {

/// Per-campaign snapshot store. Thread-safe: measure_many worker threads
/// look up concurrently; one mutex serializes the cache (the recording
/// build runs under it, so exactly one trial pays for it).
class SnapshotCache {
 public:
  using RecordingBuilder =
      std::function<std::shared_ptr<const mpi::WorldRecording>()>;

  explicit SnapshotCache(std::size_t budget_bytes);

  /// The snapshot for the collective at (site_id, invocation), deriving
  /// it (and, first time through, the recording via `build`) on demand.
  /// Returns nullptr when the subsystem is disabled, the recording is
  /// not replayable, or the cut is invalid for this point — the caller
  /// runs the trial from scratch. A failed recording build is memoized:
  /// it is deterministic, so it is attempted exactly once.
  std::shared_ptr<const mpi::WorldSnapshot> lookup(
      std::uint32_t site_id, std::uint64_t invocation,
      const RecordingBuilder& build);

  /// Permanently turns the subsystem off (after a replay divergence) and
  /// releases the recording and all snapshots.
  void disable();
  bool disabled() const;

  /// Counts one replay divergence that fell back to a from-scratch run.
  void note_fallback();

  struct Stats {
    std::uint64_t recording_builds = 0;  ///< 0 or 1 per campaign
    std::uint64_t snapshot_builds = 0;   ///< distinct cuts derived
    std::uint64_t hits = 0;              ///< lookups served from cache
    std::uint64_t clones = 0;            ///< lookups that handed out a snapshot
    std::uint64_t evictions = 0;         ///< snapshots dropped by the LRU
    std::uint64_t fallbacks = 0;         ///< replay divergences (note_fallback)
    std::size_t recording_bytes = 0;     ///< recording payload (post-dedup)
    std::size_t cached_bytes = 0;        ///< recording + live snapshots
  };
  Stats stats() const;

 private:
  using Key = std::pair<std::uint32_t, std::uint64_t>;

  void evict_to_fit_locked();

  mutable std::mutex mutex_;
  std::size_t budget_bytes_;
  bool disabled_ = false;
  bool recording_attempted_ = false;
  std::shared_ptr<const mpi::WorldRecording> recording_;

  // LRU over derived snapshots: most recent key at the front.
  std::list<Key> order_;
  struct Entry {
    std::shared_ptr<const mpi::WorldSnapshot> snapshot;
    std::list<Key>::iterator where;
  };
  std::map<Key, Entry> entries_;
  /// Cuts that failed to derive (e.g. p2p sites): memoized so every
  /// trial of such a point does not redo the O(total ops) scan.
  std::set<Key> invalid_;
  std::size_t snapshot_bytes_ = 0;

  Stats stats_;
};

/// Process-wide golden-run memo. Keys are opaque strings composed by the
/// campaign (workload name, params, nranks, seed, algorithms); values are
/// the verified digest and wall time of one successful fault-free run.
class GoldenCache {
 public:
  struct Value {
    std::uint64_t digest = 0;
    std::chrono::milliseconds wall{0};
  };

  static GoldenCache& instance();

  std::optional<Value> find(const std::string& key) const;
  void put(const std::string& key, const Value& value);
  std::size_t size() const;
  void clear();  // tests

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Value> entries_;
};

}  // namespace fastfit::core
