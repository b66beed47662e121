#include "core/snapshot_cache.hpp"

#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

SnapshotCache::SnapshotCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::shared_ptr<const mpi::WorldSnapshot> SnapshotCache::lookup(
    std::uint32_t site_id, std::uint64_t invocation,
    const RecordingBuilder& build) {
  std::unique_lock lock(mutex_);
  if (disabled_) return nullptr;

  if (!recording_attempted_) {
    // Build the recording under the lock: the build is expensive but
    // happens exactly once, and concurrent trials must not each run it.
    recording_attempted_ = true;
    std::shared_ptr<const mpi::WorldRecording> recording;
    try {
      recording = build();
    } catch (const std::exception&) {
      // A recording failure must never cost the trial (let alone the
      // point): disable the subsystem and let every trial run live.
      disabled_ = true;
      return nullptr;
    }
    // Unreplayable, or larger than the whole budget: every trial runs
    // live.
    if (!recording || !recording->replayable ||
        recording->payload_bytes > budget_bytes_) {
      disabled_ = true;
      return nullptr;
    }
    recording_ = std::move(recording);
    ++stats_.recording_builds;
    stats_.recording_bytes = recording_->payload_bytes;
  }
  if (!recording_) return nullptr;

  const Key key{site_id, invocation};
  if (invalid_.count(key) != 0) return nullptr;
  if (auto it = entries_.find(key); it != entries_.end()) {
    order_.splice(order_.begin(), order_, it->second.where);
    ++stats_.hits;
    ++stats_.clones;
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& hits = rec.counter("fastfit_snapshot_cache_hits_total",
                                      "Snapshot lookups served from cache");
      hits.add();
    }
    return it->second.snapshot;
  }

  auto snapshot = mpi::WorldSnapshot::build(recording_, site_id, invocation);
  ++stats_.snapshot_builds;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& builds = rec.counter("fastfit_snapshot_builds_total",
                                      "Per-(site, invocation) cut derivations");
    builds.add();
  }
  if (!snapshot) {
    invalid_.insert(key);
    return nullptr;
  }

  order_.push_front(key);
  entries_.emplace(key, Entry{snapshot, order_.begin()});
  snapshot_bytes_ += snapshot->approx_bytes;
  evict_to_fit_locked();
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

void SnapshotCache::evict_to_fit_locked() {
  const std::size_t base = recording_ ? recording_->payload_bytes : 0;
  while (entries_.size() > 1 && base + snapshot_bytes_ > budget_bytes_) {
    const Key victim = order_.back();
    order_.pop_back();
    auto it = entries_.find(victim);
    snapshot_bytes_ -= it->second.snapshot->approx_bytes;
    entries_.erase(it);
    ++stats_.evictions;
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& evictions =
          rec.counter("fastfit_snapshot_cache_evictions_total",
                      "Snapshots dropped by the LRU budget");
      evictions.add();
    }
  }
}

void SnapshotCache::disable() {
  std::lock_guard lock(mutex_);
  if (disabled_) return;
  disabled_ = true;
  recording_.reset();
  entries_.clear();
  order_.clear();
  invalid_.clear();
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

GoldenCache& GoldenCache::instance() {
  static GoldenCache cache;
  return cache;
}

std::optional<GoldenCache::Value> GoldenCache::find(
    const std::string& key) const {
  std::lock_guard lock(mutex_);
  if (auto it = entries_.find(key); it != entries_.end()) return it->second;
  return std::nullopt;
}

void GoldenCache::put(const std::string& key, const Value& value) {
  std::lock_guard lock(mutex_);
  entries_[key] = value;
}

std::size_t GoldenCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void GoldenCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
}

}  // namespace fastfit::core
