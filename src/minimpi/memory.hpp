#pragma once

// Bounds-checked memory registry: the simulated address space of one rank.
//
// Every buffer an application hands to MiniMPI must be registered here
// (apps use the RegisteredBuffer RAII wrapper). All MiniMPI data movement
// validates (pointer, byte count) against the registry before touching
// memory; an access that leaves every registered region raises SimSegFault
// — the in-process, restartable stand-in for the SIGSEGV a corrupted count
// or datatype provokes on real hardware. This is the substitution that
// lets a campaign run millions of "segfaulting" trials without dying.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace fastfit::mpi {

/// Per-rank registry of valid buffer regions. Only its own world's
/// thread touches it, so it takes no lock.
class MemoryRegistry {
 public:
  /// Registers [ptr, ptr+bytes). Overlapping registrations are rejected.
  void add(const void* ptr, std::size_t bytes);

  /// Removes a previously registered region (by exact base pointer).
  void remove(const void* ptr);

  /// Verifies that [ptr, ptr+bytes) lies wholly inside one registered
  /// region. Throws SimSegFault otherwise. A zero-byte access from a null
  /// pointer is permitted (MPI allows empty transfers).
  void check(const void* ptr, std::size_t bytes,
             const char* what = "access") const;

  /// True iff the range is fully covered (non-throwing form of check()).
  bool covers(const void* ptr, std::size_t bytes) const noexcept;

  std::size_t region_count() const noexcept { return regions_.size(); }

 private:
  struct Region {
    std::uintptr_t base;
    std::size_t bytes;
  };
  /// Disjoint regions sorted by base. A vector allocates nothing until
  /// the first registration, where a map allocates a node per region.
  std::vector<Region> regions_;
};

/// Content-addressed store of immutable, ref-counted byte chunks — the
/// memory substrate of world snapshots (minimpi/snapshot.hpp). Interning
/// the same bytes twice returns the same chunk, so a recording whose
/// collective outputs repeat across ranks or iterations is stored once;
/// `unique_bytes` is what the snapshot cache charges against its budget.
/// Chunks are shared_ptrs: a "clone" of a snapshot copies nothing, and
/// dirty data never exists — replay copies a chunk into the trial's own
/// application buffer and every later write lands there. A store is
/// filled by one thread (the recording world's) and takes no lock.
class ChunkStore {
 public:
  using Chunk = std::shared_ptr<const std::vector<std::byte>>;

  /// Returns a chunk holding exactly `bytes` (deduplicated by content).
  Chunk intern(const void* data, std::size_t bytes);

  std::size_t unique_bytes() const noexcept { return bytes_; }
  std::size_t unique_chunks() const noexcept { return chunks_; }

 private:
  // content hash -> chunks with that hash (collisions compared by value)
  std::map<std::uint64_t, std::vector<Chunk>> buckets_;
  std::size_t bytes_ = 0;
  std::size_t chunks_ = 0;
};

/// RAII typed buffer registered with a rank's MemoryRegistry for its whole
/// lifetime. This is how workloads allocate every buffer that can be named
/// in a collective call.
template <typename T>
class RegisteredBuffer {
 public:
  RegisteredBuffer(MemoryRegistry& registry, std::size_t count, T fill = T{})
      : registry_(&registry), data_(count, fill) {
    registry_->add(data_.data(), data_.size() * sizeof(T));
  }

  RegisteredBuffer(const RegisteredBuffer&) = delete;
  RegisteredBuffer& operator=(const RegisteredBuffer&) = delete;
  RegisteredBuffer(RegisteredBuffer&&) = delete;
  RegisteredBuffer& operator=(RegisteredBuffer&&) = delete;

  ~RegisteredBuffer() {
    if (!data_.empty()) registry_->remove(data_.data());
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  std::size_t size() const noexcept { return data_.size(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  auto begin() noexcept { return data_.begin(); }
  auto end() noexcept { return data_.end(); }
  auto begin() const noexcept { return data_.begin(); }
  auto end() const noexcept { return data_.end(); }

 private:
  MemoryRegistry* registry_;
  std::vector<T> data_;
};

}  // namespace fastfit::mpi
