#pragma once

// Deterministic, named random-number streams.
//
// Every stochastic choice in a fault-injection campaign (which bit to flip,
// which invocation to sample, how to split the training set) draws from an
// RngStream derived from (campaign seed, stream name, stream index). Two
// campaigns with the same seed therefore reproduce bit-for-bit, regardless
// of thread scheduling, because each logical actor owns its own stream.

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace fastfit {

/// 64-bit SplitMix step; used to derive stream seeds from a master seed.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stable FNV-1a hash of a string; used to fold stream names into seeds.
std::uint64_t fnv1a(std::string_view text) noexcept;

/// Incremental FNV-1a. Feeding pieces one after another gives the hash of
/// their concatenation, so a key can be hashed without building it:
///
///   Fnv1a().add(file).add(":").add_decimal(line).value()
///     == fnv1a(file + ":" + std::to_string(line))
class Fnv1a {
 public:
  Fnv1a& add(std::string_view text) noexcept {
    for (unsigned char c : text) add_byte(c);
    return *this;
  }

  /// Hashes `value` as its decimal digits, as std::to_string prints it.
  Fnv1a& add_decimal(std::uint64_t value) noexcept;

  std::uint64_t value() const noexcept { return hash_; }

 private:
  void add_byte(unsigned char c) noexcept {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// MT19937-64 with the parameters, seeding and tempering that the standard
/// fixes for std::mt19937_64 ([rand.predef]), so it yields the same bits.
/// Unlike the library engine it exposes the twist: an engine can be stored
/// already twisted, and a copy of it then draws its first 312 words
/// without regenerating the state.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Seeds from a seed sequence, as std::mt19937_64::seed(seq) does: 624
  /// 32-bit words, paired low word first, and a state whose significant
  /// bits are all zero replaced by the top bit set. The next draw twists.
  template <typename SeedSeq>
  void seed(SeedSeq& seq) {
    std::array<std::uint32_t, 2 * kStateWords> words;
    seq.generate(words.begin(), words.end());
    bool zero = true;
    for (std::size_t i = 0; i < kStateWords; ++i) {
      state_[i] = words[2 * i] |
                  static_cast<std::uint64_t>(words[2 * i + 1]) << 32;
      zero = zero && (state_[i] & (i == 0 ? kUpperMask : ~0ULL)) == 0;
    }
    if (zero) state_[0] = 1ULL << 63;
    next_ = kStateWords;
  }

  /// Regenerates all 312 state words now instead of at the next draw.
  void twist() noexcept;

  result_type operator()() noexcept {
    if (next_ >= kStateWords) twist();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint64_t kUpperMask = ~0ULL << 31;

  std::array<std::uint64_t, kStateWords> state_{};
  std::size_t next_ = kStateWords;
};

/// A self-contained deterministic random stream.
///
/// Streams are cheap to construct and intended to be created per logical
/// actor (per rank, per trial, per tree) rather than shared across threads;
/// an RngStream is not thread-safe. The engine gives the bits of an
/// std::mt19937_64 seeded through the std::seed_seq algorithm; each thread
/// caches the engines it seeded recently, already twisted, so re-creating
/// a stream costs a copy and its first draws cost no twist.
class RngStream {
 public:
  /// Derives a stream from a master seed, a human-readable name, and an
  /// index (e.g. trial number). Different (name, index) pairs yield
  /// statistically independent streams.
  RngStream(std::uint64_t master_seed, std::string_view name,
            std::uint64_t index = 0);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Standard-normal draw.
  double normal();

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Underlying engine, for interop with <random> distributions.
  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace fastfit
