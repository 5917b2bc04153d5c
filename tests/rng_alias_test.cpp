// Exactness battery for the packed alias table: the batched fill() must
// equal repeated sample() — values AND engine position — for every
// length and rejection pattern, and the slots' edge cases (k = 1, p = 1
// residuals, p = 0) must decide the coin at its extremes.
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "rng/alias.hpp"
#include "rng/xoshiro256.hpp"
#include "scripted_engine.hpp"

namespace {

using iba::rng::AliasTable;
using iba::rng::Xoshiro256pp;
using iba::test::ScriptedEngine;

constexpr std::size_t kBatch = AliasTable::kFillBatch;

std::vector<double> zipf_weights(std::size_t k, double s) {
  std::vector<double> weights(k);
  for (std::size_t i = 0; i < k; ++i) {
    weights[i] = std::pow(static_cast<double>(i) + 1.0, -s);
  }
  return weights;
}

/// fill() and out.size() sample() calls from equal engines: equal draws,
/// equal words consumed, equal next word.
template <typename MakeEngine>
void expect_fill_matches_sample(const AliasTable& table, std::size_t length,
                                MakeEngine make_engine) {
  auto filled = make_engine();
  auto sampled = make_engine();
  std::vector<std::uint32_t> out(length, 0xA5A5A5A5u);
  table.fill(filled, std::span<std::uint32_t>(out));
  for (std::size_t i = 0; i < length; ++i) {
    ASSERT_EQ(out[i], table.sample(sampled)) << "length " << length
                                             << " ball " << i;
  }
  ASSERT_EQ(filled(), sampled()) << "length " << length;
}

// Lengths 0 .. 2·batch + 1 cross every boundary of fill(): all-tail,
// exactly one batch, a batch plus tail, and two batches plus one.
TEST(AliasTableFill, MatchesSampleAllLengths) {
  const std::vector<std::vector<double>> tables = {
      {5.0},
      {1.0, 2.0, 3.0, 4.0, 0.0, 10.0},
      std::vector<double>(8, 1.0),
      zipf_weights(1000, 0.5),
      zipf_weights(4099, 1.0),
  };
  for (const auto& weights : tables) {
    const AliasTable table(weights);
    for (std::size_t length = 0; length <= 2 * kBatch + 1; ++length) {
      expect_fill_matches_sample(table, length,
                                 [&] { return Xoshiro256pp(17 + length); });
    }
  }
}

// A zero slot word trips the Lemire pre-test and, for a non-power-of-two
// k, really rejects: the ball consumes a third word. The rejecting batch
// must replay through sample() and leave the stream where sample() does.
TEST(AliasTableFill, RejectionOnAnyBallReplaysExactly) {
  const AliasTable table(zipf_weights(1000, 0.5));  // 2^64 mod 1000 = 616
  Xoshiro256pp words(99);
  // Ball j's slot word is word 2j when no earlier ball rejected.
  for (const std::size_t ball : {std::size_t{0}, kBatch / 2, kBatch - 1,
                                 kBatch + 1, 2 * kBatch}) {
    std::vector<std::uint64_t> script(2 * ball + 1);
    for (auto& word : script) word = words();
    script[2 * ball] = 0;
    for (const std::size_t length : {kBatch, kBatch + 2, 2 * kBatch + 1}) {
      if (ball >= length) continue;
      expect_fill_matches_sample(
          table, length, [&] { return ScriptedEngine(script, 7); });
      ScriptedEngine probe(script, 7);
      for (std::size_t i = 0; i < length; ++i) (void)table.sample(probe);
      EXPECT_EQ(probe.words_drawn(), 2 * length + 1)
          << "ball " << ball << " length " << length;
    }
  }
  // Every slot word zero: a rejection on every ball of every batch.
  std::vector<std::uint64_t> zeros(8 * kBatch, 0);
  for (const std::size_t length : {kBatch, 2 * kBatch + 1}) {
    expect_fill_matches_sample(table, length,
                               [&] { return ScriptedEngine(zeros, 8); });
  }
}

// A slot word whose low half is k − 1 trips the pre-test but is accepted:
// the batch replays and must still consume exactly two words per ball.
TEST(AliasTableFill, PreTestTripWithoutRejection) {
  constexpr std::uint64_t k = 1001;  // odd: k has an inverse mod 2^64
  std::uint64_t inverse = k;
  for (int i = 0; i < 6; ++i) inverse *= 2 - k * inverse;
  ASSERT_EQ(k * inverse, 1u);
  const AliasTable table(zipf_weights(k, 1.0));
  std::vector<std::uint64_t> script(2 * kBatch, 12345);
  script[2 * 3] = (k - 1) * inverse;  // x · k ≡ k − 1 (mod 2^64)
  expect_fill_matches_sample(table, kBatch,
                             [&] { return ScriptedEngine(script, 9); });
  ScriptedEngine engine(script, 9);
  std::vector<std::uint32_t> out(kBatch);
  table.fill(engine, std::span<std::uint32_t>(out));
  EXPECT_EQ(engine.words_drawn(), 2 * kBatch);
}

TEST(AliasTableFill, LargeTableMatchesSample) {
  const AliasTable table(zipf_weights(1u << 16, 0.5));
  expect_fill_matches_sample(table, 100003,
                             [] { return Xoshiro256pp(2021); });
}

// 2^17 outcomes or more is 2 MiB of slots or more: a huge-page mapping
// of the table's arena, zeroed by the kernel. fill() must still equal
// repeated sample() at lengths that end inside a batch, and the slots
// must carry the weights' whole mass.
TEST(AliasTableFill, MappedTableMatchesSample) {
  const std::vector<double> weights = zipf_weights((1u << 17) + 3, 0.5);
  const AliasTable table(weights);
  for (const std::size_t length :
       {std::size_t{1}, kBatch + 1, 3 * kBatch - 5, std::size_t{100003}}) {
    expect_fill_matches_sample(table, length,
                               [&] { return Xoshiro256pp(31 + length); });
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  const std::vector<double> probabilities = table.outcome_probabilities();
  ASSERT_EQ(probabilities.size(), weights.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(probabilities[i], weights[i] / total, 1e-12)
        << "outcome " << i;
    sum += probabilities[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AliasTableSlots, SingleOutcomeKeepsEveryCoin) {
  const AliasTable table({5.0});
  // Coin words at both extremes; k = 1 never rejects.
  ScriptedEngine engine({0, ~std::uint64_t{0}, ~std::uint64_t{0}, 0}, 3);
  EXPECT_EQ(table.sample(engine), 0u);
  EXPECT_EQ(table.sample(engine), 0u);
  std::vector<std::uint32_t> out(2 * kBatch + 1, 7);
  table.fill(engine, std::span<std::uint32_t>(out));
  for (const std::uint32_t choice : out) EXPECT_EQ(choice, 0u);
  EXPECT_EQ(engine.words_drawn(), 2 * (2 * kBatch + 3));
  EXPECT_DOUBLE_EQ(table.outcome_probabilities()[0], 1.0);
}

// Equal weights scale to exactly 1: every slot is a p = 1 residual and
// keeps its own outcome even for the largest coin.
TEST(AliasTableSlots, ResidualSlotsKeepTheLargestCoin) {
  const AliasTable table(std::vector<double>(3, 1.0));
  const std::uint64_t slot_one = std::uint64_t{1} << 63;  // ⌊3 · 2^63/2^64⌋
  ScriptedEngine engine({slot_one, ~std::uint64_t{0}}, 4);
  EXPECT_EQ(table.sample(engine), 1u);
  std::vector<std::uint64_t> script;
  for (std::size_t b = 0; b < kBatch; ++b) {
    script.push_back(slot_one);
    script.push_back(~std::uint64_t{0});
  }
  ScriptedEngine batch(script, 4);
  std::vector<std::uint32_t> out(kBatch);
  table.fill(batch, std::span<std::uint32_t>(out));
  for (const std::uint32_t choice : out) EXPECT_EQ(choice, 1u);
  for (const double p : table.outcome_probabilities()) {
    EXPECT_DOUBLE_EQ(p, 1.0 / 3.0);
  }
}

// A zero weight pairs with p = 0: even coin m = 0 goes to the alias.
TEST(AliasTableSlots, ZeroWeightSlotNeverKeepsItsOutcome) {
  const AliasTable table({0.0, 1.0});
  ScriptedEngine engine({0, 0}, 5);  // slot 0, smallest coin
  EXPECT_EQ(table.sample(engine), 1u);
  ScriptedEngine batch(std::vector<std::uint64_t>(2 * kBatch, 0), 5);
  std::vector<std::uint32_t> out(kBatch);
  table.fill(batch, std::span<std::uint32_t>(out));
  for (const std::uint32_t choice : out) EXPECT_EQ(choice, 1u);
  EXPECT_DOUBLE_EQ(table.outcome_probabilities()[0], 0.0);
  EXPECT_DOUBLE_EQ(table.outcome_probabilities()[1], 1.0);
}

TEST(AliasTableSlots, OutcomeProbabilityMatchesWeights) {
  const std::vector<double> weights = zipf_weights(257, 0.8);
  double total = 0.0;
  for (const double w : weights) total += w;
  const AliasTable table(weights);
  const std::vector<double> probabilities = table.outcome_probabilities();
  ASSERT_EQ(probabilities.size(), weights.size());
  double sum = 0.0;
  for (std::uint32_t i = 0; i < weights.size(); ++i) {
    const double p = probabilities[i];
    EXPECT_NEAR(p, weights[i] / total, 1e-12) << "outcome " << i;
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

}  // namespace
