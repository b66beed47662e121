#pragma once

// Rank arenas: the heap of a trial world's rank fibers.
//
// Each thread that runs trial worlds owns one RankArena: a slot of one
// contiguous virtual range, reserved PROT_NONE at first use and committed
// as it grows. While a rank fiber of a world that opted in
// (WorldOptions::trial_arena) runs, the global operator new serves every
// request from the thread's arena: FiberScheduler::resume routes it, and
// a HeapScope (support/heap_scope.hpp) suspends it. operator delete sends
// a pointer inside the reserved range back to its size class and any
// other pointer to free(), so blocks of both kinds may be freed from
// anywhere on the owning thread, inside a fiber or not.
//
// Blocks up to kMaxClassBytes come in size classes. A class carves runs
// from the slot's bump pointer and recycles freed blocks through a free
// list. A class keeps what it carved, so the classes stop at a few KiB:
// past that, a world that grows a buffer through many sizes would hold
// every size it passed through. Larger requests, over-aligned ones and
// ones that find the slot full go to malloc, which coalesces them, so an
// absurd size fails (or succeeds) exactly as it does without the arena.
// The arena keeps those blocks in a pointer set and frees them with
// itself.
//
// release() frees the whole arena at once. A poisoned arena world drops
// its parked fibers instead of unwinding them (minimpi/fiber.hpp), and
// whatever they held dies here. A world releases its thread's arena when
// it starts, not when it ends, so a trial's own objects (its injector,
// its world state, an error rethrown out of World::run) may still free
// arena blocks after their world has run. Nothing a rank allocates may be
// used after the next arena world starts on its thread.
//
// Sanitizer builds poison free blocks and the released range, so a block
// used after its release is a use-after-poison report.

#include <cstddef>
#include <cstdint>

namespace fastfit::mpi {

class RankArena {
 public:
  /// Size classes: 16-byte steps up to 128 bytes, then four per doubling
  /// up to kMaxClassBytes.
  static constexpr std::size_t kMaxClassBytes = 4096;
  static constexpr std::size_t kClasses = 28;
  /// A run of one class starts on a page of this size; the page map
  /// records each page's class.
  static constexpr std::size_t kPageBytes = 16 * 1024;
  static constexpr std::size_t kSlotBytes = std::size_t{256} << 20;

  /// The calling thread's arena, claimed on first use and given back at
  /// thread exit; nullptr when none can be had (every slot is taken, the
  /// reservation failed, or the binary replaced operator new itself).
  static RankArena* for_this_thread() noexcept;

  /// Frees every block at once: class lists cleared, malloc'd blocks
  /// freed, bump pointer back at the slot's start.
  void release() noexcept;

  /// Highest slot offset carved since the thread claimed the slot.
  std::size_t high_water() const noexcept { return peak_; }

  /// operator new's arena path: `bytes` aligned to `align`, or nullptr
  /// when malloc cannot serve a request the classes do not take.
  void* allocate(std::size_t bytes, std::size_t align) noexcept;

  /// operator delete's arena path: returns a block inside the reserved
  /// range to its class, and true. Any other pointer is left to free(),
  /// after the calling thread's arena forgets it if it was one of its
  /// malloc'd blocks.
  static bool deallocate(void* p) noexcept;

 private:
  struct Class {
    void* free = nullptr;      ///< singly linked through each block
    std::byte* cur = nullptr;  ///< next unused block of the current run
    std::byte* end = nullptr;
  };

  static bool routing_live() noexcept;
  void claim(std::byte* base) noexcept;
  void retire() noexcept;
  bool new_run(std::size_t cls) noexcept;
  void* allocate_big(std::size_t bytes, std::size_t align) noexcept;
  bool big_insert(void* p) noexcept;
  bool big_erase(void* p) noexcept;
  friend struct ArenaLease;

  std::byte* base_ = nullptr;       ///< slot start
  std::byte* top_ = nullptr;        ///< where the next run starts
  std::byte* committed_ = nullptr;  ///< [base_, committed_) is read-write
  std::size_t peak_ = 0;
  /// The malloc'd blocks: an open-addressed pointer set (linear probing)
  /// in malloc'd storage of big_mask_ + 1 slots.
  void** big_ = nullptr;
  std::size_t big_mask_ = 0;
  std::size_t big_count_ = 0;
  Class classes_[kClasses]{};
  std::uint8_t page_class_[kSlotBytes / kPageBytes]{};
};

}  // namespace fastfit::mpi
