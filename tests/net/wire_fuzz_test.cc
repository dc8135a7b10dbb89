// Deterministic mutation fuzzer for every host <-> node payload decoder.
//
// Each decoder starts from its golden payload (golden_messages.h) and gets
// a fixed, seeded set of hostile variants: every truncation, random bit
// flips, and every 4- and 8-byte window rewritten as if it were a length
// or count field claiming 0, the remaining size -1/+0/+1, or the maximum.
// A decoder must answer each with a value or kProtocolError; it must never
// throw, crash, or (under the sanitizers) touch memory it does not own.
// Every mutant goes through both Decode overloads, which must agree.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>

#include "golden_messages.h"

namespace haocl::net {
namespace {

constexpr int kBitFlipMutants = 2000;

struct Outcomes {
  int decoded = 0;
  int rejected = 0;
};

template <typename T>
bool DecodeMutant(const char* name, const std::vector<std::uint8_t>& bytes,
                  Outcomes& outcomes) {
  try {
    Expected<T> decoded = T::Decode(bytes);
    // The consuming decode (the node's path) must reach the same outcome:
    // the same error, or a value that encodes to the same bytes (compared
    // as bytes, since a mutated double may be a NaN).
    Expected<T> consumed = T::Decode(std::vector<std::uint8_t>(bytes));
    EXPECT_EQ(consumed.status().ToString(), decoded.status().ToString())
        << name;
    if (decoded.ok() && consumed.ok()) {
      EXPECT_TRUE(consumed->Encode() == decoded->Encode()) << name;
    }
    if (decoded.ok()) {
      ++outcomes.decoded;
      return true;
    }
    ++outcomes.rejected;
    EXPECT_EQ(decoded.code(), ErrorCode::kProtocolError) << name;
  } catch (const std::exception& e) {
    ADD_FAILURE() << name << " decoder threw: " << e.what();
  }
  return false;
}

template <typename T, typename Claim>
void RewriteClaims(const char* name, const std::vector<std::uint8_t>& seed,
                   Outcomes& outcomes) {
  for (std::size_t at = 0; at + sizeof(Claim) <= seed.size(); ++at) {
    const std::uint64_t rest = seed.size() - at - sizeof(Claim);
    for (std::uint64_t claim : {std::uint64_t{0}, rest - 1, rest, rest + 1,
                                std::uint64_t{
                                    std::numeric_limits<Claim>::max()}}) {
      std::vector<std::uint8_t> mutant = seed;
      const auto value = static_cast<Claim>(claim);
      std::memcpy(mutant.data() + at, &value, sizeof(Claim));
      DecodeMutant<T>(name, mutant, outcomes);
    }
  }
}

template <typename T>
void Fuzz(const golden::Sample<T>& sample, std::uint64_t seed_index) {
  SCOPED_TRACE(sample.name);
  const std::vector<std::uint8_t> seed = golden::FromHex(sample.hex);
  ASSERT_FALSE(seed.empty());
  Outcomes outcomes;

  // Every golden payload is exactly its fields, so every strict prefix
  // lacks a field and must be rejected.
  for (std::size_t cut = 0; cut < seed.size(); ++cut) {
    std::vector<std::uint8_t> prefix(seed.begin(), seed.begin() + cut);
    EXPECT_FALSE(DecodeMutant<T>(sample.name, prefix, outcomes))
        << "prefix of " << cut << " bytes decoded";
  }

  std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^ seed_index);
  for (int i = 0; i < kBitFlipMutants; ++i) {
    std::vector<std::uint8_t> mutant = seed;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng() % (mutant.size() * 8);
      mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    DecodeMutant<T>(sample.name, mutant, outcomes);
  }

  RewriteClaims<T, std::uint32_t>(sample.name, seed, outcomes);
  RewriteClaims<T, std::uint64_t>(sample.name, seed, outcomes);

  // The mutations must reach both outcomes, or they exercise nothing.
  EXPECT_GT(outcomes.decoded, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

TEST(WireFuzzTest, EveryDecoderSurvivesMutatedPayloads) {
  std::apply(
      [](const auto&... sample) {
        std::uint64_t index = 0;
        (Fuzz(sample, index++), ...);
      },
      golden::Samples());
}

}  // namespace
}  // namespace haocl::net
