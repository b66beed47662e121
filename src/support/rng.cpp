#include "support/rng.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>

#include "support/error.hpp"
#include "support/heap_scope.hpp"

namespace fastfit {
namespace {

/// The seed sequence of an RngStream: std::seed_seq's generate()
/// ([rand.util.seedseq]) over four fixed words. The standard fixes that
/// algorithm, so an engine seeded from a SeedWords holds exactly the state
/// a std::seed_seq of the same words would give it. The library version
/// copies the words to the heap and takes four modulos per step; this one
/// walks its indices with compares, which makes seeding several times
/// faster. Has the two members an engine's seed() uses: result_type and
/// generate().
class SeedWords {
 public:
  using result_type = std::uint32_t;

  SeedWords(std::uint64_t a, std::uint64_t b) noexcept
      : v_{static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(a >> 32),
           static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(b >> 32)} {}

  template <typename RandomIt>
  void generate(RandomIt begin, RandomIt end) const {
    if (begin == end) return;
    const std::size_t n = static_cast<std::size_t>(end - begin);
    const std::size_t s = v_.size();
    std::fill(begin, end, 0x8b8b8b8bu);
    const std::size_t t = n >= 623 ? 11
                          : n >= 68 ? 7
                          : n >= 39 ? 5
                          : n >= 7  ? 3
                                    : (n - 1) / 2;
    const std::size_t p = (n - t) / 2;
    const std::size_t q = p + t;
    const std::size_t m = std::max(s + 1, n);
    const auto mix = [](std::uint32_t x) { return x ^ (x >> 27); };
    const auto at = [&](std::size_t i) -> std::uint32_t {
      return static_cast<std::uint32_t>(begin[static_cast<std::ptrdiff_t>(i)]);
    };
    const auto put = [&](std::size_t i, std::uint32_t x) {
      begin[static_cast<std::ptrdiff_t>(i)] = x;
    };
    // k, k+p and k+q, each mod n, stepped without dividing. `last` is the
    // element at k-1, the one each step wrote last, kept in a register.
    std::size_t i = 0, ip = p % n, iq = q % n;
    std::uint32_t last = at(n - 1);
    const auto advance = [&] {
      if (++i == n) i = 0;
      if (++ip == n) ip = 0;
      if (++iq == n) iq = 0;
    };
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint32_t r1 = 1664525u * mix(at(i) ^ at(ip) ^ last);
      std::uint32_t r2 = r1 + static_cast<std::uint32_t>(i);
      if (k == 0) {
        r2 = r1 + static_cast<std::uint32_t>(s);
      } else if (k <= s) {
        r2 += v_[k - 1];
      }
      put(ip, at(ip) + r1);
      put(iq, at(iq) + r2);
      put(i, r2);
      last = r2;
      advance();
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t r3 = 1566083941u * mix(at(i) + at(ip) + last);
      const std::uint32_t r4 = r3 - static_cast<std::uint32_t>(i);
      put(ip, at(ip) ^ r3);
      put(iq, at(iq) ^ r4);
      put(i, r4);
      last = r4;
      advance();
    }
  }

 private:
  std::array<std::uint32_t, 4> v_;
};

/// The per-thread cache of seeded states. A seeded engine is a pure
/// function of the two words (a, b) an RngStream derives, and workloads
/// seed the same streams in every trial (every rank of an LU world seeds
/// "lu-rhs"; other workloads seed one stream per rank). So each thread
/// keeps the states it seeded last in a direct-mapped cache, and streams
/// draw from them in place. The indices of one stream share a base slot
/// and take consecutive slots from it, so a world's per-rank streams do
/// not evict each other.
struct CachedState {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// Words of `state`'s first generation twisted so far: a freshly
  /// seeded state twists in order, only as far as a stream has drawn.
  std::size_t twisted = 0;
  Mt19937_64::State state;
};

// One 32-rank world's per-rank streams fill the cache (2.5 KB a slot).
constexpr std::size_t kSlots = 32;
thread_local std::array<std::unique_ptr<CachedState>, kSlots> t_cache;

/// The calling thread's cached state (a, b), if it is still in `slot`.
/// Only ever this thread's cache: a stream used on another thread than
/// its creator's finds its state there or seeds an engine of its own.
CachedState* cached(std::size_t slot, std::uint64_t a,
                    std::uint64_t b) noexcept {
  CachedState* entry = t_cache[slot].get();
  return entry != nullptr && entry->a == a && entry->b == b ? entry : nullptr;
}

}  // namespace

void Mt19937_64::twist_words(State& state, std::size_t from,
                             std::size_t to) noexcept {
  constexpr std::size_t n = kStateWords;
  constexpr std::size_t m = 156;
  const auto step = [&state](std::size_t k, std::size_t next,
                             std::size_t far) {
    const std::uint64_t y =
        (state[k] & kUpperMask) | (state[next] & ~kUpperMask);
    state[k] = state[far] ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
  };
  std::size_t k = from;
  for (const std::size_t end = std::min(to, n - m); k < end; ++k) {
    step(k, k + 1, k + m);
  }
  for (const std::size_t end = std::min(to, n - 1); k < end; ++k) {
    step(k, k + 1, k + m - n);
  }
  if (k < to) step(n - 1, 0, m - 1);
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Fnv1a& Fnv1a::add_decimal(std::uint64_t value) noexcept {
  char digits[20];
  std::size_t len = 0;
  do {
    digits[len++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (len > 0) add_byte(static_cast<unsigned char>(digits[--len]));
  return *this;
}

RngStream::RngStream(std::uint64_t master_seed, std::string_view name,
                     std::uint64_t index) {
  const std::uint64_t base = master_seed ^ fnv1a(name);
  std::uint64_t state = base ^ 0x6a09e667f3bcc909ULL * (index + 1);
  engine_.a_ = splitmix64(state);
  engine_.b_ = splitmix64(state);
  engine_.slot_ = (((base * 0x9e3779b97f4a7c15ULL) >> 32) + index) % kSlots;
  if (cached(engine_.slot_, engine_.a_, engine_.b_) != nullptr) return;
  auto& entry = t_cache[engine_.slot_];
  if (!entry) {
    // The cache outlives the trial world whose rank may fill it.
    HeapScope heap;
    entry = std::make_unique<CachedState>();
  }
  SeedWords words(engine_.a_, engine_.b_);
  entry->a = engine_.a_;
  entry->b = engine_.b_;
  entry->twisted = 0;
  Mt19937_64::seed_state(words, entry->state);
}

RngStream::Engine::result_type RngStream::Engine::draw_cached() {
  CachedState* entry = cached(slot_, a_, b_);
  if (entry == nullptr) {
    // Another stream reseeded the slot, or this thread never seeded this
    // stream: seed an engine of this stream's own.
    SeedWords words(a_, b_);
    own_.emplace();
    own_->seed(words);
    for (std::size_t drawn = 0; drawn < next_; ++drawn) (*own_)();
    return (*own_)();
  }
  if (next_ == Mt19937_64::kStateWords) {
    // Past the first generation: go on with a copy of the whole state.
    Mt19937_64::twist_words(entry->state, entry->twisted, next_);
    entry->twisted = next_;
    own_.emplace(entry->state, next_);
    return (*own_)();
  }
  if (entry->twisted <= next_) {
    Mt19937_64::twist_words(entry->state, entry->twisted, next_ + 1);
    entry->twisted = next_ + 1;
  }
  return Mt19937_64::temper(entry->state[next_++]);
}

std::uint64_t RngStream::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw InternalError("RngStream::uniform_u64: lo > hi");
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

std::size_t RngStream::index(std::size_t n) {
  if (n == 0) throw InternalError("RngStream::index: empty range");
  return static_cast<std::size_t>(uniform_u64(0, n - 1));
}

double RngStream::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

bool RngStream::bernoulli(double p) { return uniform() < p; }

double RngStream::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

std::vector<std::size_t> RngStream::sample_without_replacement(std::size_t n,
                                                               std::size_t k) {
  if (k > n) throw InternalError("sample_without_replacement: k > n");
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: only the first k positions need to be drawn.
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + index(n - i)]);
  }
  all.resize(k);
  return all;
}

}  // namespace fastfit
