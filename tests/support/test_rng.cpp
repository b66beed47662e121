#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace fastfit {
namespace {

TEST(Rng, SameSeedNameIndexReproduces) {
  RngStream a(42, "trial", 7);
  RngStream b(42, "trial", 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_u64(0, 1'000'000), b.uniform_u64(0, 1'000'000));
  }
}

TEST(Rng, DifferentNamesDiverge) {
  RngStream a(42, "trial", 0);
  RngStream b(42, "verify", 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform_u64(0, 1ULL << 62) == b.uniform_u64(0, 1ULL << 62)) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, DifferentIndicesDiverge) {
  RngStream a(42, "trial", 0);
  RngStream b(42, "trial", 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform_u64(0, 1ULL << 62) == b.uniform_u64(0, 1ULL << 62)) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformBoundsInclusive) {
  RngStream rng(1, "bounds");
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_u64(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformLoGreaterThanHiThrows) {
  RngStream rng(1, "bad");
  EXPECT_THROW(rng.uniform_u64(5, 3), InternalError);
}

TEST(Rng, IndexCoversRange) {
  RngStream rng(9, "index");
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.index(0), InternalError);
}

TEST(Rng, UniformDoubleInHalfOpenUnit) {
  RngStream rng(3, "unit");
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliRespectsProbabilityRoughly) {
  RngStream rng(5, "coin");
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalHasUnitishMoments) {
  RngStream rng(7, "normal");
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(Rng, ShuffleIsPermutation) {
  RngStream rng(11, "shuffle");
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  RngStream rng(13, "sample");
  for (int rep = 0; rep < 50; ++rep) {
    auto s = rng.sample_without_replacement(20, 8);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 8u);
    for (auto i : s) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, SampleKEqualsNIsFullSet) {
  RngStream rng(13, "sample");
  auto s = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleKGreaterThanNThrows) {
  RngStream rng(13, "sample");
  EXPECT_THROW(rng.sample_without_replacement(3, 4), InternalError);
}

TEST(Rng, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Rng, Fnv1aKnownValues) {
  // The published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Rng, IncrementalFnv1aHashesTheConcatenation) {
  EXPECT_EQ(Fnv1a().add("foo").add("").add("bar").value(), fnv1a("foobar"));
  for (std::uint64_t v : {0ULL, 7ULL, 10ULL, 99ULL, 1234567ULL,
                          18446744073709551615ULL}) {
    const std::string key = "src/apps/lu.cpp:" + std::to_string(v) + ":3";
    EXPECT_EQ(Fnv1a().add("src/apps/lu.cpp:").add_decimal(v).add(":3").value(),
              fnv1a(key))
        << key;
  }
}

// The engine as RngStream derived it before seeding was sped up: a
// std::seed_seq of the four derived words.
std::mt19937_64 seed_seq_engine(std::uint64_t seed, std::string_view name,
                                std::uint64_t index) {
  std::uint64_t state = seed ^ fnv1a(name);
  state ^= 0x6a09e667f3bcc909ULL * (index + 1);
  const std::uint64_t a = splitmix64(state);
  const std::uint64_t b = splitmix64(state);
  std::seed_seq seq{static_cast<std::uint32_t>(a),
                    static_cast<std::uint32_t>(a >> 32),
                    static_cast<std::uint32_t>(b),
                    static_cast<std::uint32_t>(b >> 32)};
  return std::mt19937_64(seq);
}

// Draws past the first twist of the 312-word state.
void expect_same_engine(RngStream& stream, std::mt19937_64 reference) {
  for (int i = 0; i < 700; ++i) ASSERT_EQ(stream.engine()(), reference());
}

TEST(Rng, StreamsAreBitIdenticalToSeedSeqSeeding) {
  const char* names[] = {"lu-rhs", "bitflip", "md-atoms", ""};
  for (std::uint64_t seed : {0ULL, 42ULL, 258398418711ULL, ~0ULL}) {
    for (const char* name : names) {
      for (std::uint64_t index : {0ULL, 1ULL, 31ULL, 1ULL << 40}) {
        RngStream stream(seed, name, index);
        expect_same_engine(stream, seed_seq_engine(seed, name, index));
      }
    }
  }
}

TEST(Rng, CachedStreamFirstDrawMatchesSeedSeq) {
  // The first construction seeds the thread's cached state; the ones
  // after it draw from that state in place.
  (void)RngStream(31, "cached", 4);
  RngStream first(31, "cached", 4);
  EXPECT_EQ(first.engine()(), seed_seq_engine(31, "cached", 4)());

  // The library distributions over the cached state, drawn well past its
  // 312 words.
  RngStream stream(31, "cached", 4);
  std::mt19937_64 reference = seed_seq_engine(31, "cached", 4);
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(stream.uniform(),
              std::uniform_real_distribution<double>(0.0, 1.0)(reference));
    ASSERT_EQ(stream.normal(),
              std::normal_distribution<double>(0.0, 1.0)(reference));
    ASSERT_EQ(stream.index(97),
              std::uniform_int_distribution<std::uint64_t>(0, 96)(reference));
  }
}

TEST(Rng, ZeroStateIsReplacedAsTheLibraryDoes) {
  // Only the low 31 bits of the first word are set, and the twist never
  // reads them: the engine must count the state as all zero and set the
  // first word's top bit, as std::mt19937_64 does.
  struct LowBitsOnly {
    using result_type = std::uint32_t;
    void generate(std::uint32_t* begin, std::uint32_t* end) const {
      std::fill(begin, end, 0u);
      *begin = 0x7fffffffu;
    }
  } seq;
  Mt19937_64 engine;
  engine.seed(seq);
  std::mt19937_64 reference;
  reference.seed(seq);
  for (int i = 0; i < 700; ++i) ASSERT_EQ(engine(), reference());
}

TEST(Rng, RecreatedStreamsStayIdenticalAcrossCacheEvictions) {
  // Many more streams than the per-thread cache holds, created again in
  // another order: cached and freshly seeded engines must agree.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::uint64_t index = pass == 0 ? i : (i * 7) % 300;
      const char* name = index % 3 == 0 ? "bitflip" : "rank";
      RngStream stream(9, name, index);
      expect_same_engine(stream, seed_seq_engine(9, name, index));
    }
  }
}

// The indices of one stream take consecutive cache slots from a base slot,
// so index i and index i + 32 (the cache's size) share a slot.
constexpr std::uint64_t kSameSlot = 32;

TEST(Rng, StreamWhoseSlotIsReseededMidDrawStaysExact) {
  RngStream stream(5, "evicted", 3);
  std::mt19937_64 reference = seed_seq_engine(5, "evicted", 3);
  for (int i = 0; i < 700; ++i) {
    if (i == 40) {
      // Another stream takes the slot over and a third seeds the first
      // one's words into it again: the first goes on from that fresh,
      // untwisted state.
      RngStream(5, "evicted", 3 + kSameSlot).engine()();
      (void)RngStream(5, "evicted", 3);
    }
    if (i == 250) {
      // Another stream takes the slot for good: the first must go on from
      // its own seed words, not from the other stream's state.
      RngStream(5, "evicted", 3 + kSameSlot).engine()();
    }
    ASSERT_EQ(stream.engine()(), reference()) << "draw " << i;
  }
}

TEST(Rng, InterleavedStreamsOfOneSeedDrawTheSameBits) {
  RngStream a(6, "twin", 2);
  RngStream b(6, "twin", 2);
  std::mt19937_64 ref_a = seed_seq_engine(6, "twin", 2);
  std::mt19937_64 ref_b = ref_a;
  // Uneven strides, so each stream twists words the other reads later and
  // reads words the other twisted.
  for (int i = 0; i < 700; ++i) {
    ASSERT_EQ(a.engine()(), ref_a()) << "a, draw " << i;
    if (i % 3 != 0) {
      ASSERT_EQ(b.engine()(), ref_b()) << "b, draw " << i;
    }
  }
  for (int i = 0; i < 300; ++i) ASSERT_EQ(b.engine()(), ref_b());
}

TEST(Rng, StreamOnAPartlyTwistedCachedStateStaysExact) {
  // A fresh seeding twists only the words drawn; streams created on that
  // state, drawing further or past the first generation, must still see
  // the library's bits, and so must the stream that stopped early.
  (void)RngStream(7, "lazy", 1 + kSameSlot);  // make the next seeding fresh
  RngStream early(7, "lazy", 1);
  std::mt19937_64 ref_early = seed_seq_engine(7, "lazy", 1);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(early.engine()(), ref_early());

  RngStream later(7, "lazy", 1);
  expect_same_engine(later, seed_seq_engine(7, "lazy", 1));
  RngStream third(7, "lazy", 1);
  expect_same_engine(third, seed_seq_engine(7, "lazy", 1));
  for (int i = 5; i < 700; ++i) ASSERT_EQ(early.engine()(), ref_early());
}

TEST(Rng, StreamDrawnOnAnotherThreadNeverReadsItsCreatorsCache) {
  // The creating thread keeps reseeding the stream's slot while another
  // thread draws from the stream: those draws must come from the drawing
  // thread's cache or an engine of the stream's own (under TSan, a read of
  // the creator's cache is a race).
  RngStream stream(8, "moved", 4);
  std::mt19937_64 reference = seed_seq_engine(8, "moved", 4);
  for (int i = 0; i < 3; ++i) ASSERT_EQ(stream.engine()(), reference());
  std::vector<std::uint64_t> drawn;
  std::thread worker([&stream, &drawn] {
    for (int i = 3; i < 700; ++i) drawn.push_back(stream.engine()());
  });
  for (int i = 0; i < 50; ++i) {
    RngStream(8, "moved", 4 + (i % 2 == 0 ? kSameSlot : 0)).engine()();
  }
  worker.join();
  for (std::uint64_t word : drawn) ASSERT_EQ(word, reference());
}

TEST(Rng, StreamDoesNotDependOnTheCreatingThread) {
  RngStream here(77, "trial", 5);
  here.uniform();  // the creating thread's cached copy must stay pristine
  std::uint64_t there = 0;
  std::thread([&] { there = RngStream(77, "trial", 5).engine()(); }).join();
  EXPECT_EQ(there, RngStream(77, "trial", 5).engine()());
  EXPECT_EQ(there, seed_seq_engine(77, "trial", 5)());
}

}  // namespace
}  // namespace fastfit
