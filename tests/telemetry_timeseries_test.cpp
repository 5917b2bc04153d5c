// TimeSeries: downsampling exactness (tier sums == full-resolution
// sums), cadence folding, ring bounding, delta-coded rendering, and the
// state round-trip the checkpoint sidecar depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/timeseries.hpp"

namespace iba::telemetry {
namespace {

// Deterministic but non-trivial per-round sample so folds are visible.
TimeSeriesSample make_sample(std::uint64_t round) {
  TimeSeriesSample s;
  s.round = round;
  s.pool_size = 300 + (round * 7) % 97;
  s.total_load = 500 + (round * 13) % 211;
  s.max_load = 1 + (round % 5);
  s.generated = 800 + (round * 31) % 61;
  s.deleted = 790 + (round * 17) % 59;
  s.shed = round % 3;
  s.deferred = round % 4;
  s.requeued = round % 2;
  s.faulted_bins = (round % 50 == 0) ? 8 : 0;
  s.capacity = 2;
  s.lambda_hat_micro = 937500 + (round % 11);
  s.control_changes = round / 100;
  s.wait_p50 = 1;
  s.wait_p95 = 2;
  s.wait_p99 = 4;
  return s;
}

std::size_t column_index(const char* name) {
  const auto& names = TimeSeries::column_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (std::string(names[i]) == name) return i;
  }
  ADD_FAILURE() << "unknown column " << name;
  return 0;
}

TEST(TimeSeries, ColumnMetadataIsConsistent) {
  EXPECT_EQ(TimeSeries::column_names().size(), TimeSeries::kColumns);
  EXPECT_EQ(TimeSeries::column_aggs().size(), TimeSeries::kColumns);
  EXPECT_EQ(column_index("round"), 0u);
  EXPECT_EQ(TimeSeries::column_aggs()[column_index("generated")],
            TimeSeries::Agg::kSum);
  EXPECT_EQ(TimeSeries::column_aggs()[column_index("pool_size")],
            TimeSeries::Agg::kLast);
  EXPECT_EQ(TimeSeries::column_aggs()[column_index("max_load")],
            TimeSeries::Agg::kMax);
}

TEST(TimeSeries, TierStridesArePowersOfKFold) {
  TimeSeries series({.cadence = 4, .tier_capacity = 8});
  EXPECT_EQ(series.tier_stride(0), 4u);
  EXPECT_EQ(series.tier_stride(1), 64u);
  EXPECT_EQ(series.tier_stride(2), 1024u);
}

// The core exactness contract: for a kSum column, any coarser tier
// integrates the flow over its covered rounds exactly; for kLast the
// newest value wins; for kMax the window maximum survives.
TEST(TimeSeries, DownsamplingIsExact) {
  const std::uint64_t rounds = TimeSeries::kFold * TimeSeries::kFold * 3;
  TimeSeries series({.cadence = 1, .tier_capacity = 4096});
  std::vector<TimeSeriesSample> fed;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    fed.push_back(make_sample(r));
    series.observe(fed.back());
  }
  ASSERT_EQ(series.tier_retained(0), rounds);
  ASSERT_EQ(series.tier_retained(1), rounds / TimeSeries::kFold);
  ASSERT_EQ(series.tier_retained(2),
            rounds / (TimeSeries::kFold * TimeSeries::kFold));

  const std::size_t gen = column_index("generated");
  for (int tier = 0; tier < TimeSeries::kTiers; ++tier) {
    const std::vector<std::uint64_t> column = series.column(tier, gen);
    const std::uint64_t tier_sum =
        std::accumulate(column.begin(), column.end(), std::uint64_t{0});
    std::uint64_t full_sum = 0;
    // Tier t only covers the rounds already folded into it.
    const std::uint64_t covered = column.size() * series.tier_stride(tier);
    for (std::uint64_t i = 0; i < covered; ++i) full_sum += fed[i].generated;
    EXPECT_EQ(tier_sum, full_sum) << "tier " << tier;
  }

  const std::size_t pool = column_index("pool_size");
  const std::vector<std::uint64_t> pool1 = series.column(1, pool);
  ASSERT_FALSE(pool1.empty());
  // Sample i of tier 1 ends at round (i+1)·16; kLast keeps that round.
  EXPECT_EQ(pool1[0], fed[TimeSeries::kFold - 1].pool_size);
  EXPECT_EQ(pool1[1], fed[2 * TimeSeries::kFold - 1].pool_size);

  const std::size_t peak = column_index("max_load");
  const std::vector<std::uint64_t> peak1 = series.column(1, peak);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < TimeSeries::kFold; ++i) {
    expected = std::max(expected, fed[i].max_load);
  }
  EXPECT_EQ(peak1[0], expected);
}

TEST(TimeSeries, CadenceFoldsRoundsIntoOneTierZeroSample) {
  TimeSeries series({.cadence = 4, .tier_capacity = 64});
  std::uint64_t want_generated = 0;
  std::uint64_t want_peak = 0;
  for (std::uint64_t r = 1; r <= 8; ++r) {
    const TimeSeriesSample s = make_sample(r);
    series.observe(s);
    if (r <= 4) {
      want_generated += s.generated;
      want_peak = std::max(want_peak, s.max_load);
    }
  }
  EXPECT_EQ(series.rounds_observed(), 8u);
  ASSERT_EQ(series.tier_retained(0), 2u);
  EXPECT_EQ(series.column(0, column_index("generated"))[0], want_generated);
  EXPECT_EQ(series.column(0, column_index("max_load"))[0], want_peak);
  EXPECT_EQ(series.column(0, column_index("pool_size"))[0],
            make_sample(4).pool_size);
  EXPECT_EQ(series.column(0, column_index("round"))[0], 4u);
}

TEST(TimeSeries, RingsStayBoundedAndKeepTheNewest) {
  TimeSeries series({.cadence = 1, .tier_capacity = 8});
  for (std::uint64_t r = 1; r <= 100; ++r) series.observe(make_sample(r));
  EXPECT_EQ(series.tier_emitted(0), 100u);
  EXPECT_EQ(series.tier_retained(0), 8u);
  const std::vector<std::uint64_t> rounds =
      series.column(0, column_index("round"));
  ASSERT_EQ(rounds.size(), 8u);
  EXPECT_EQ(rounds.front(), 93u);  // oldest retained
  EXPECT_EQ(rounds.back(), 100u);  // newest
}

TEST(TimeSeries, StateRoundTripPreservesEveryRenderedByte) {
  TimeSeriesConfig config{.cadence = 2, .tier_capacity = 16};
  TimeSeries series(config);
  // 777 rounds: tier-0 mid-cadence, tier-1 mid-fold — the awkward case.
  for (std::uint64_t r = 1; r <= 777; ++r) series.observe(make_sample(r));

  TimeSeries restored(config);
  restored.restore_state(series.state_text());
  EXPECT_EQ(restored.render_text(), series.render_text());
  EXPECT_EQ(restored.render_window(8), series.render_window(8));

  // Continuing both must stay byte-identical: the fold accumulators
  // (not just the rings) round-tripped.
  for (std::uint64_t r = 778; r <= 900; ++r) {
    series.observe(make_sample(r));
    restored.observe(make_sample(r));
  }
  EXPECT_EQ(restored.render_text(), series.render_text());
}

TEST(TimeSeries, RestoreRejectsMismatchedConfigAndGarbage) {
  TimeSeries series({.cadence = 2, .tier_capacity = 16});
  for (std::uint64_t r = 1; r <= 50; ++r) series.observe(make_sample(r));
  const std::string state = series.state_text();

  TimeSeries wrong_cadence({.cadence = 4, .tier_capacity = 16});
  EXPECT_THROW(wrong_cadence.restore_state(state), std::runtime_error);
  TimeSeries ok({.cadence = 2, .tier_capacity = 16});
  EXPECT_THROW(ok.restore_state("not a state"), std::runtime_error);
}

TEST(TimeSeries, DeltaRenderingReconstructs) {
  TimeSeries series({.cadence = 1, .tier_capacity = 32});
  for (std::uint64_t r = 1; r <= 10; ++r) series.observe(make_sample(r));
  const std::string window = series.render_window(10);
  // The round column is 1..10 → rendered as "1" then nine "+1" deltas.
  std::istringstream lines(window);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.rfind("col round = ", 0) == 0) {
      EXPECT_EQ(line, "col round = 1 +1 +1 +1 +1 +1 +1 +1 +1 +1");
      found = true;
    }
  }
  EXPECT_TRUE(found) << window;
}

}  // namespace
}  // namespace iba::telemetry
