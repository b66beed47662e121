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
#include <optional>
#include <random>
#include <string_view>
#include <vector>

namespace fastfit {

/// 64-bit SplitMix step; used to derive stream seeds from a master seed.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Incremental FNV-1a. Feeding pieces one after another gives the hash of
/// their concatenation, so a key can be hashed without building it:
///
///   Fnv1a().add(file).add(":").add_decimal(line).value()
///     == fnv1a(file + ":" + std::to_string(line))
class Fnv1a {
 public:
  constexpr Fnv1a& add(std::string_view text) noexcept {
    for (unsigned char c : text) add_byte(c);
    return *this;
  }

  /// Hashes `value` as its decimal digits, as std::to_string prints it.
  Fnv1a& add_decimal(std::uint64_t value) noexcept;

  constexpr std::uint64_t value() const noexcept { return hash_; }

 private:
  constexpr void add_byte(unsigned char c) noexcept {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Stable FNV-1a hash of a string; used to fold stream names into seeds.
/// constexpr, so a literal's hash can be taken at compile time.
constexpr std::uint64_t fnv1a(std::string_view text) noexcept {
  return Fnv1a().add(text).value();
}

/// MT19937-64 with the parameters, seeding and tempering that the standard
/// fixes for std::mt19937_64 ([rand.predef]), so it yields the same bits.
/// Unlike the library engine it exposes the twist: an engine can be built
/// from a state that is already twisted, and a state can be twisted a few
/// words at a time (twist_words), in order, as its words are drawn.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;
  using State = std::array<std::uint64_t, kStateWords>;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  Mt19937_64() = default;

  /// An engine on `twisted`, a state whose words are all twisted, that
  /// draws word `next` first.
  Mt19937_64(const State& twisted, std::size_t next) noexcept
      : state_(twisted), next_(next) {}

  /// Seeds from a seed sequence, as std::mt19937_64::seed(seq) does. The
  /// next draw twists.
  template <typename SeedSeq>
  void seed(SeedSeq& seq) {
    seed_state(seq, state_);
    next_ = kStateWords;
  }

  /// The state std::mt19937_64::seed(seq) sets: 624 32-bit words, paired
  /// low word first, and a state whose significant bits are all zero
  /// replaced by the top bit set. Not yet twisted.
  template <typename SeedSeq>
  static void seed_state(SeedSeq& seq, State& state) {
    std::array<std::uint32_t, 2 * kStateWords> words;
    seq.generate(words.begin(), words.end());
    bool zero = true;
    for (std::size_t i = 0; i < kStateWords; ++i) {
      state[i] = words[2 * i] |
                 static_cast<std::uint64_t>(words[2 * i + 1]) << 32;
      zero = zero && (state[i] & (i == 0 ? kUpperMask : ~0ULL)) == 0;
    }
    if (zero) state[0] = 1ULL << 63;
  }

  /// Twists words [from, to) of `state` in place. Word k of the next
  /// generation reads words k and k+1 of this one and word k+156 (mod
  /// 312), which is of the next generation once k >= 156; so a state
  /// whose words below `from` are twisted and the rest are not can be
  /// twisted further in order, a word at a time.
  static void twist_words(State& state, std::size_t from,
                          std::size_t to) noexcept;

  /// Regenerates all 312 state words now instead of at the next draw.
  void twist() noexcept {
    twist_words(state_, 0, kStateWords);
    next_ = 0;
  }

  /// The output of state word `z`.
  static result_type temper(std::uint64_t z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  result_type operator()() noexcept {
    if (next_ >= kStateWords) twist();
    return temper(state_[next_++]);
  }

 private:
  static constexpr std::uint64_t kUpperMask = ~0ULL << 31;

  State state_{};
  std::size_t next_ = kStateWords;
};

/// A self-contained deterministic random stream.
///
/// Streams are cheap to construct and intended to be created per logical
/// actor (per rank, per trial, per tree) rather than shared across threads;
/// an RngStream is not thread-safe. The engine gives the bits of an
/// std::mt19937_64 seeded through the std::seed_seq algorithm.
///
/// Each thread caches the states it seeded recently, and a stream draws
/// its first 312 words from a cached state in place: creating a stream
/// copies no engine, and a freshly seeded state twists only the words
/// drawn from it. A draw reads only the drawing thread's cache, never the
/// creator's. A stream takes an engine of its own when it draws past word
/// 311, or when the drawing thread's cache no longer holds its state
/// (another stream reseeded the slot, or the stream moved threads).
class RngStream {
 public:
  /// Derives a stream from a master seed, a human-readable name, and an
  /// index (e.g. trial number). Different (name, index) pairs yield
  /// statistically independent streams.
  RngStream(std::uint64_t master_seed, std::string_view name,
            std::uint64_t index = 0);

  /// The stream's bits as a uniform random bit generator, for interop
  /// with <random> distributions.
  class Engine {
   public:
    using result_type = std::uint64_t;
    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    result_type operator()() {
      return own_ ? (*own_)() : draw_cached();
    }

   private:
    friend class RngStream;
    result_type draw_cached();

    std::uint64_t a_ = 0;    ///< the two seed words: the engine is a pure
    std::uint64_t b_ = 0;    ///< function of them
    std::size_t slot_ = 0;   ///< the state's slot in a thread's cache
    std::size_t next_ = 0;   ///< words drawn from the cached state
    std::optional<Mt19937_64> own_;  ///< set once the stream stops drawing
                                     ///< from the cache
  };

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
  Engine& engine() noexcept { return engine_; }

 private:
  Engine engine_;
};

}  // namespace fastfit
