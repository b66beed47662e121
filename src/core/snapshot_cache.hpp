#pragma once

// Campaign-side snapshot management (tentpole of the prefix-replay work):
// one SnapshotCache per campaign while --snapshots is on (the default).
// It builds the fault-free recording lazily (once, in memory) and derives
// one WorldSnapshot per injected (site, invocation) — shared by every
// trial of that point and by the whole semantic-equivalence class behind
// it. Cuts are kept for the campaign's lifetime: a study's cuts total
// kilobytes, and a recording beyond kMaxRecordingBytes is refused.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "minimpi/snapshot.hpp"

namespace fastfit::core {

/// Largest recording payload the cache holds; a larger one runs every
/// trial live.
inline constexpr std::size_t kMaxRecordingBytes = std::size_t{256} << 20;

/// Per-campaign snapshot store. Thread-safe: measure_many worker threads
/// look up concurrently; one mutex serializes the cache (the recording
/// build runs under it, so exactly one trial pays for it).
class SnapshotCache {
 public:
  using RecordingBuilder =
      std::function<std::shared_ptr<const mpi::WorldRecording>()>;

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
    std::uint64_t fallbacks = 0;         ///< replay divergences (note_fallback)
    std::size_t recording_bytes = 0;     ///< recording payload (post-dedup)
    std::size_t cached_bytes = 0;        ///< recording + live snapshots
  };
  Stats stats() const;

 private:
  using Key = std::pair<std::uint32_t, std::uint64_t>;

  mutable std::mutex mutex_;
  bool disabled_ = false;
  bool recording_attempted_ = false;
  std::shared_ptr<const mpi::WorldRecording> recording_;
  /// Derived cuts; nullptr marks a cut that failed to derive (e.g. a p2p
  /// site), so every trial of such a point does not redo the O(total
  /// ops) scan.
  std::map<Key, std::shared_ptr<const mpi::WorldSnapshot>> cuts_;
  std::size_t snapshot_bytes_ = 0;

  Stats stats_;
};

}  // namespace fastfit::core
