#pragma once

// Campaign-side snapshot management: one SnapshotCache per campaign whose
// fault-free run in Campaign::profile() recorded a replayable prefix
// (--snapshots on, the default, and some fault model replayable). It
// holds that recording and derives one WorldSnapshot per injected (site,
// invocation) — shared by every trial of that point and by the whole
// semantic-equivalence class behind it. Cuts are kept for the campaign's
// lifetime: a study's cuts total kilobytes, and a recording beyond
// kMaxRecordingBytes gets no cache at all.

#include <cstddef>
#include <cstdint>
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
/// look up concurrently; one mutex serializes the cache.
class SnapshotCache {
 public:
  /// Holds `recording`, which must be replayable.
  explicit SnapshotCache(std::shared_ptr<const mpi::WorldRecording> recording);

  /// The snapshot for the collective at (site_id, invocation), derived on
  /// first demand. Returns nullptr when the subsystem is disabled or the
  /// cut is invalid for this point — the caller runs the trial from
  /// scratch.
  std::shared_ptr<const mpi::WorldSnapshot> lookup(std::uint32_t site_id,
                                                   std::uint64_t invocation);

  /// Permanently turns the subsystem off (after a replay divergence) and
  /// releases the recording and all snapshots.
  void disable();
  bool disabled() const;

  /// Counts one replay divergence that fell back to a from-scratch run.
  void note_fallback();

  struct Stats {
    std::uint64_t recording_builds = 0;  ///< 1 while the cache exists
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
  std::shared_ptr<const mpi::WorldRecording> recording_;
  /// Derived cuts; nullptr marks a cut that failed to derive (e.g. a p2p
  /// site), so every trial of such a point does not redo the O(total
  /// ops) scan.
  std::map<Key, std::shared_ptr<const mpi::WorldSnapshot>> cuts_;
  std::size_t snapshot_bytes_ = 0;

  Stats stats_;
};

}  // namespace fastfit::core
