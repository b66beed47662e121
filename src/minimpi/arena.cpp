#include "minimpi/arena.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <utility>

#include "support/heap_scope.hpp"

namespace fastfit::mpi {
namespace {

constexpr std::size_t kSlots = 64;
constexpr std::size_t kSpan = kSlots * RankArena::kSlotBytes;
/// Commit granularity: one mprotect per megabyte of runs.
constexpr std::size_t kCommitBytes = std::size_t{1} << 20;
constexpr std::size_t kAlign = 16;

constexpr std::size_t class_of(std::size_t n) noexcept {
  if (n <= 128) return n == 0 ? 0 : (n + 15) / 16 - 1;
  const unsigned lg = 63u - static_cast<unsigned>(__builtin_clzll(n - 1));
  return 8 + (lg - 7) * 4 + (((n - 1) >> (lg - 2)) & 3);
}

constexpr std::size_t class_bytes(std::size_t c) noexcept {
  if (c < 8) return (c + 1) * 16;
  const std::size_t lg = 7 + (c - 8) / 4;
  return (std::size_t{1} << lg) + ((c - 8) % 4 + 1) * (std::size_t{1} << (lg - 2));
}

static_assert(class_of(RankArena::kMaxClassBytes) + 1 == RankArena::kClasses);
static_assert(class_bytes(RankArena::kClasses - 1) == RankArena::kMaxClassBytes);
static_assert(class_bytes(class_of(129)) == 160 && class_of(160) == class_of(129));

std::size_t round_up(std::size_t n, std::size_t to) noexcept {
  return (n + to - 1) / to * to;
}

// The reserved range: kSlots slots of kSlotBytes, one per arena thread.
// Zero until the first arena is claimed; never unmapped.
std::atomic<std::uintptr_t> g_lo{0};
std::atomic<std::uint64_t> g_claimed{0};
RankArena g_arenas[kSlots];

/// The arena the calling thread owns (not just routes to).
thread_local constinit RankArena* t_owned = nullptr;

std::byte* reserve() noexcept {
  if (const auto lo = g_lo.load(std::memory_order_acquire); lo != 0) {
    return reinterpret_cast<std::byte*>(lo);
  }
  void* p = ::mmap(nullptr, kSpan, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  std::uintptr_t expected = 0;
  if (!g_lo.compare_exchange_strong(expected,
                                    reinterpret_cast<std::uintptr_t>(p),
                                    std::memory_order_acq_rel)) {
    ::munmap(p, kSpan);  // another thread reserved first
    return reinterpret_cast<std::byte*>(expected);
  }
  return static_cast<std::byte*>(p);
}

bool in_range(const void* p) noexcept {
  const auto lo = g_lo.load(std::memory_order_relaxed);
  return lo != 0 && reinterpret_cast<std::uintptr_t>(p) - lo < kSpan;
}

// What operator new does without an arena.
void* heap_allocate(std::size_t bytes, std::size_t align) noexcept {
  if (bytes == 0) bytes = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(bytes);
  void* p = nullptr;
  return ::posix_memalign(&p, std::max(align, sizeof(void*)), bytes) == 0
             ? p
             : nullptr;
}

std::size_t big_hash(const void* p) noexcept {
  const auto x = reinterpret_cast<std::uintptr_t>(p) >> 4;
  return static_cast<std::size_t>((x * 0x9e3779b97f4a7c15ULL) >> 20);
}

RankArena g_probe;

}  // namespace

// Whether the global operator new and delete below are the binary's: a
// binary (a test counting allocations) that replaces them itself gets no
// arena. A request routed to the slot-less probe is a malloc'd block it
// records, and a delete of a recorded block erases it. Runs once per
// process, before the first arena is handed out.
bool RankArena::routing_live() noexcept {
  static const bool live = [] {
    // The C++ runtime fills the global locale's numeric-facet cache with
    // operator new on first use and keeps it for the process: fill it
    // here, so no rank fiber is the first to format a number.
    {
      std::ostringstream warm;
      warm << 1 << 0.5;
    }
    static void* volatile sink;
    RankArena* const route = std::exchange(t_rank_arena, &g_probe);
    sink = ::operator new(1);
    t_rank_arena = route;
    if (g_probe.big_count_ != 1) {
      ::operator delete(sink);
      return false;
    }
    RankArena* const owner = std::exchange(t_owned, &g_probe);
    ::operator delete(sink);
    t_owned = owner;
    const bool delete_live = g_probe.big_count_ == 0;
    if (!delete_live) {  // a foreign delete already freed it
      g_probe.big_erase(sink);
    }
    return delete_live;
  }();
  return live;
}

// Ends a thread's claim on its slot when the thread exits.
struct ArenaLease {
  RankArena* arena = nullptr;
  ~ArenaLease() {
    if (arena != nullptr) arena->retire();
  }
};

namespace {
thread_local ArenaLease t_lease;
}  // namespace

RankArena* RankArena::for_this_thread() noexcept {
  if (t_owned != nullptr) return t_owned;
  if (!routing_live()) return nullptr;
  std::byte* const lo = reserve();
  if (lo == nullptr) return nullptr;
  std::uint64_t claimed = g_claimed.load(std::memory_order_relaxed);
  std::size_t slot;
  do {
    if (~claimed == 0) return nullptr;
    slot = static_cast<std::size_t>(__builtin_ctzll(~claimed));
  } while (!g_claimed.compare_exchange_weak(
      claimed, claimed | (std::uint64_t{1} << slot),
      std::memory_order_acq_rel));
  RankArena& arena = g_arenas[slot];
  arena.claim(lo + slot * kSlotBytes);
  t_lease.arena = &arena;
  t_owned = &arena;
  return t_owned;
}

void RankArena::claim(std::byte* base) noexcept {
  if (base_ == nullptr) {
    base_ = top_ = committed_ = base;
  }
  peak_ = 0;
}

void RankArena::retire() noexcept {
  release();
  // The pages stay read-write for the slot's next owner; only their
  // contents go.
  ::madvise(base_, static_cast<std::size_t>(committed_ - base_),
            MADV_DONTNEED);
  const auto slot = static_cast<std::size_t>(this - g_arenas);
  t_owned = nullptr;
  g_claimed.fetch_and(~(std::uint64_t{1} << slot), std::memory_order_acq_rel);
}

void RankArena::release() noexcept {
  for (std::size_t i = 0; big_count_ > 0; ++i) {
    if (big_[i] != nullptr) {
      std::free(std::exchange(big_[i], nullptr));
      --big_count_;
    }
  }
  for (Class& c : classes_) c = Class{};
  ASAN_POISON_MEMORY_REGION(base_, static_cast<std::size_t>(top_ - base_));
  top_ = base_;
}

bool RankArena::new_run(std::size_t cls) noexcept {
  if (base_ == nullptr) return false;
  const std::size_t size = class_bytes(cls);
  const std::size_t run = round_up(size, kPageBytes);
  std::byte* const slot_end = base_ + kSlotBytes;
  if (static_cast<std::size_t>(slot_end - top_) < run) return false;
  if (top_ + run > committed_) {
    std::byte* const want = std::min(
        slot_end, base_ + round_up(static_cast<std::size_t>(top_ + run - base_),
                                   kCommitBytes));
    const auto grow = static_cast<std::size_t>(want - committed_);
    if (::mprotect(committed_, grow, PROT_READ | PROT_WRITE) != 0) {
      return false;
    }
    ASAN_POISON_MEMORY_REGION(committed_, grow);
    committed_ = want;
  }
  const auto first = static_cast<std::size_t>(top_ - base_) / kPageBytes;
  std::fill_n(page_class_ + first, run / kPageBytes,
              static_cast<std::uint8_t>(cls));
  Class& c = classes_[cls];
  c.cur = top_;
  c.end = top_ + run / size * size;
  top_ += run;
  peak_ = std::max(peak_, static_cast<std::size_t>(top_ - base_));
  return true;
}

void* RankArena::allocate(std::size_t bytes, std::size_t align) noexcept {
  if (bytes <= kMaxClassBytes && align <= kAlign) {
    const std::size_t cls = class_of(bytes);
    Class& c = classes_[cls];
    void* p = c.free;
    if (p != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(p, sizeof(void*));
      c.free = *static_cast<void**>(p);
    } else if (static_cast<std::size_t>(c.end - c.cur) >= class_bytes(cls) ||
               new_run(cls)) {
      p = c.cur;
      c.cur += class_bytes(cls);
    }
    if (p != nullptr) {
      // The block's unrequested tail stays poisoned.
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
      return p;
    }
  }
  return allocate_big(bytes, align);
}

void* RankArena::allocate_big(std::size_t bytes, std::size_t align) noexcept {
  void* p = heap_allocate(bytes, align);
  if (p != nullptr && !big_insert(p)) {
    std::free(p);
    return nullptr;
  }
  return p;
}

bool RankArena::big_insert(void* p) noexcept {
  if ((big_count_ + 1) * 2 > big_mask_ + 1) {  // grow at half full
    const std::size_t slots = big_mask_ == 0 ? 64 : (big_mask_ + 1) * 2;
    auto* const grown = static_cast<void**>(std::calloc(slots, sizeof(void*)));
    if (grown == nullptr) return false;
    for (std::size_t i = 0; big_mask_ != 0 && i <= big_mask_; ++i) {
      if (big_[i] == nullptr) continue;
      std::size_t j = big_hash(big_[i]) & (slots - 1);
      while (grown[j] != nullptr) j = (j + 1) & (slots - 1);
      grown[j] = big_[i];
    }
    std::free(big_);
    big_ = grown;
    big_mask_ = slots - 1;
  }
  std::size_t i = big_hash(p) & big_mask_;
  while (big_[i] != nullptr) i = (i + 1) & big_mask_;
  big_[i] = p;
  ++big_count_;
  return true;
}

bool RankArena::big_erase(void* p) noexcept {
  std::size_t i = big_hash(p) & big_mask_;
  while (big_[i] != p) {
    if (big_[i] == nullptr) return false;
    i = (i + 1) & big_mask_;
  }
  // Backward-shift deletion: pull later entries of the probe chain into
  // the hole unless that would move them before their home slot.
  for (std::size_t j = (i + 1) & big_mask_; big_[j] != nullptr;
       j = (j + 1) & big_mask_) {
    const std::size_t home = big_hash(big_[j]) & big_mask_;
    if (((j - home) & big_mask_) >= ((j - i) & big_mask_)) {
      big_[i] = big_[j];
      i = j;
    }
  }
  big_[i] = nullptr;
  --big_count_;
  return true;
}

bool RankArena::deallocate(void* p) noexcept {
  if (in_range(p)) {
    const auto offset =
        reinterpret_cast<std::uintptr_t>(p) - g_lo.load(std::memory_order_relaxed);
    RankArena& arena = g_arenas[offset / kSlotBytes];
    const std::size_t cls =
        arena.page_class_[offset % kSlotBytes / kPageBytes];
    Class& c = arena.classes_[cls];
    ASAN_UNPOISON_MEMORY_REGION(p, sizeof(void*));
    *static_cast<void**>(p) = c.free;
    c.free = p;
    ASAN_POISON_MEMORY_REGION(p, class_bytes(cls));
    return true;
  }
  if (RankArena* const own = t_owned; own != nullptr && own->big_count_ > 0) {
    own->big_erase(p);
  }
  return false;
}

}  // namespace fastfit::mpi

// ---------------------------------------------------------------------------
// The global operator new and delete, every form. Weak, so a binary that
// replaces them itself keeps its own (and gets no arena: routing_live).

namespace {

using fastfit::mpi::RankArena;

void* try_allocate(std::size_t bytes, std::size_t align) noexcept {
  if (RankArena* arena = fastfit::t_rank_arena) {
    return arena->allocate(bytes, align);
  }
  return fastfit::mpi::heap_allocate(bytes, align);
}

// The standard's loop: retry through the new-handler until it gives up.
void* allocate_or_throw(std::size_t bytes, std::size_t align) {
  for (;;) {
    if (void* p = try_allocate(bytes, align)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_nothrow(std::size_t bytes, std::size_t align) noexcept {
  try {
    return allocate_or_throw(bytes, align);
  } catch (...) {
    return nullptr;
  }
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

// The common case inline: off a rank fiber, operator new is malloc, and
// on a thread that owns no arena, delete is free.
[[gnu::always_inline]] inline void* allocate_default(std::size_t bytes) {
  if (fastfit::t_rank_arena == nullptr) {
    if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  }
  return allocate_or_throw(bytes, kDefault);
}

[[gnu::always_inline]] inline void deallocate(void* p) noexcept {
  if (p == nullptr) return;
  if ((fastfit::mpi::in_range(p) || fastfit::mpi::t_owned != nullptr) &&
      RankArena::deallocate(p)) {
    return;
  }
  std::free(p);
}

}  // namespace

#define FASTFIT_WEAK __attribute__((weak))

FASTFIT_WEAK void* operator new(std::size_t n) { return allocate_default(n); }
FASTFIT_WEAK void* operator new[](std::size_t n) {
  return allocate_default(n);
}
FASTFIT_WEAK void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
FASTFIT_WEAK void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
FASTFIT_WEAK void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, kDefault);
}
FASTFIT_WEAK void* operator new[](std::size_t n,
                                  const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, kDefault);
}
FASTFIT_WEAK void* operator new(std::size_t n, std::align_val_t a,
                                const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, static_cast<std::size_t>(a));
}
FASTFIT_WEAK void* operator new[](std::size_t n, std::align_val_t a,
                                  const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, static_cast<std::size_t>(a));
}

FASTFIT_WEAK void operator delete(void* p) noexcept { deallocate(p); }
FASTFIT_WEAK void operator delete[](void* p) noexcept { deallocate(p); }
FASTFIT_WEAK void operator delete(void* p, std::size_t) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete[](void* p, std::size_t) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete(void* p, std::align_val_t) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete[](void* p, std::align_val_t) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete(void* p, std::size_t,
                                  std::align_val_t) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete[](void* p, std::size_t,
                                    std::align_val_t) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete(void* p, const std::nothrow_t&) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete[](void* p, const std::nothrow_t&) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete(void* p, std::align_val_t,
                                  const std::nothrow_t&) noexcept {
  deallocate(p);
}
FASTFIT_WEAK void operator delete[](void* p, std::align_val_t,
                                    const std::nothrow_t&) noexcept {
  deallocate(p);
}
