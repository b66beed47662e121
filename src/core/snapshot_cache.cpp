#include "core/snapshot_cache.hpp"

#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

SnapshotCache::SnapshotCache(
    std::shared_ptr<const mpi::WorldRecording> recording)
    : recording_(std::move(recording)) {
  stats_.recording_builds = 1;
  stats_.recording_bytes = recording_->payload_bytes;
}

std::shared_ptr<const mpi::WorldSnapshot> SnapshotCache::lookup(
    std::uint32_t site_id, std::uint64_t invocation) {
  std::lock_guard lock(mutex_);
  if (disabled_) return nullptr;

  const Key key{site_id, invocation};
  if (auto it = cuts_.find(key); it != cuts_.end()) {
    if (!it->second) return nullptr;  // invalid cut
    ++stats_.hits;
    ++stats_.clones;
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& hits = rec.counter("fastfit_snapshot_cache_hits_total",
                                      "Snapshot lookups served from cache");
      hits.add();
    }
    return it->second;
  }

  auto snapshot = mpi::WorldSnapshot::build(recording_, site_id, invocation);
  ++stats_.snapshot_builds;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& builds = rec.counter("fastfit_snapshot_builds_total",
                                      "Per-(site, invocation) cut derivations");
    builds.add();
  }
  cuts_.emplace(key, snapshot);
  if (!snapshot) return nullptr;

  snapshot_bytes_ += snapshot->approx_bytes;
  ++stats_.clones;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& gauge =
        rec.gauge("fastfit_snapshot_cache_bytes",
                  "Bytes held by the snapshot cache (recording + cuts)");
    gauge.set(static_cast<std::int64_t>(stats_.recording_bytes +
                                        snapshot_bytes_));
  }
  return snapshot;
}

void SnapshotCache::disable() {
  std::lock_guard lock(mutex_);
  if (disabled_) return;
  disabled_ = true;
  recording_.reset();
  cuts_.clear();
  snapshot_bytes_ = 0;
}

bool SnapshotCache::disabled() const {
  std::lock_guard lock(mutex_);
  return disabled_;
}

void SnapshotCache::note_fallback() {
  {
    std::lock_guard lock(mutex_);
    ++stats_.fallbacks;
  }
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& fallbacks =
        rec.counter("fastfit_snapshot_fallbacks_total",
                    "Replay divergences that fell back to from-scratch runs");
    fallbacks.add();
  }
}

SnapshotCache::Stats SnapshotCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats out = stats_;
  out.cached_bytes = (recording_ ? recording_->payload_bytes : 0) +
                     snapshot_bytes_;
  return out;
}

}  // namespace fastfit::core
