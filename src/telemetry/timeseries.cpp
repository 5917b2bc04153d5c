#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace iba::telemetry {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("timeseries: " + message);
}

// One column as `first +d -d ...`: the first retained value, then signed
// deltas (two's-complement wrap, so any u64 sequence round-trips).
void render_delta_row(std::ostringstream& out,
                      const std::vector<std::uint64_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == 0) {
      out << ' ' << values[0];
    } else {
      const auto delta = static_cast<std::int64_t>(values[i] - values[i - 1]);
      out << ' ' << (delta >= 0 ? "+" : "") << delta;
    }
  }
}

}  // namespace

const std::array<const char*, TimeSeries::kColumns>&
TimeSeries::column_names() noexcept {
  static const std::array<const char*, kColumns> kNames = {
      "round",        "pool_size",    "total_load",
      "max_load",     "generated",    "deleted",
      "shed",         "deferred",     "requeued",
      "faulted_bins", "capacity",     "lambda_hat_micro",
      "control_changes", "wait_p50",  "wait_p95",
      "wait_p99"};
  return kNames;
}

const std::array<TimeSeries::Agg, TimeSeries::kColumns>&
TimeSeries::column_aggs() noexcept {
  using enum Agg;
  static const std::array<Agg, kColumns> kAggs = {
      kLast,  // round — a folded sample is stamped with its newest round
      kLast,  // pool_size
      kLast,  // total_load
      kMax,   // max_load
      kSum,   // generated
      kSum,   // deleted
      kSum,   // shed
      kLast,  // deferred (queue depth, a gauge)
      kSum,   // requeued
      kMax,   // faulted_bins
      kLast,  // capacity
      kLast,  // lambda_hat_micro
      kLast,  // control_changes (cumulative)
      kLast,  // wait_p50
      kLast,  // wait_p95
      kLast,  // wait_p99
  };
  return kAggs;
}

TimeSeries::TimeSeries(TimeSeriesConfig config) : config_(config) {
  if (config_.cadence == 0) fail("cadence must be at least 1");
  if (config_.tier_capacity == 0) fail("tier_capacity must be at least 1");
  for (auto& tier : data_) {
    tier.assign(config_.tier_capacity * kColumns, 0);
  }
}

void TimeSeries::fold_into(
    int tier, const std::array<std::uint64_t, kColumns>& row) noexcept {
  auto& pend = pending_[tier];
  if (pending_count_[tier] == 0) {
    pend = row;
  } else {
    const auto& aggs = column_aggs();
    for (std::size_t col = 0; col < kColumns; ++col) {
      switch (aggs[col]) {
        case Agg::kLast:
          pend[col] = row[col];
          break;
        case Agg::kSum:
          pend[col] += row[col];
          break;
        case Agg::kMax:
          pend[col] = std::max(pend[col], row[col]);
          break;
      }
    }
  }
  ++pending_count_[tier];
}

void TimeSeries::emit(int tier) noexcept {
  const std::uint64_t cap = config_.tier_capacity;
  const std::size_t slot =
      static_cast<std::size_t>(emitted_[tier] % cap) * kColumns;
  for (std::size_t col = 0; col < kColumns; ++col) {
    data_[tier][slot + col] = pending_[tier][col];
  }
  ++emitted_[tier];
  const std::array<std::uint64_t, kColumns> row = pending_[tier];
  pending_count_[tier] = 0;
  // Cascade: the finished sample is one constituent of the next tier's
  // fold; recursion depth is bounded by kTiers.
  if (tier + 1 < kTiers) {
    fold_into(tier + 1, row);
    if (pending_count_[tier + 1] == kFold) emit(tier + 1);
  }
}

void TimeSeries::observe(const TimeSeriesSample& sample) noexcept {
  ++rounds_;
  const std::array<std::uint64_t, kColumns> row = {
      sample.round,         sample.pool_size,    sample.total_load,
      sample.max_load,      sample.generated,    sample.deleted,
      sample.shed,          sample.deferred,     sample.requeued,
      sample.faulted_bins,  sample.capacity,     sample.lambda_hat_micro,
      sample.control_changes, sample.wait_p50,   sample.wait_p95,
      sample.wait_p99};
  fold_into(0, row);
  if (pending_count_[0] == config_.cadence) emit(0);
}

std::uint64_t TimeSeries::tier_emitted(int tier) const noexcept {
  return emitted_[tier];
}

std::uint64_t TimeSeries::tier_retained(int tier) const noexcept {
  return std::min(emitted_[tier], config_.tier_capacity);
}

std::uint64_t TimeSeries::tier_stride(int tier) const noexcept {
  std::uint64_t stride = config_.cadence;
  for (int t = 0; t < tier; ++t) stride *= kFold;
  return stride;
}

std::vector<std::uint64_t> TimeSeries::column(int tier,
                                              std::size_t col) const {
  const std::uint64_t cap = config_.tier_capacity;
  const std::uint64_t retained = tier_retained(tier);
  const std::uint64_t first = emitted_[tier] - retained;
  std::vector<std::uint64_t> out;
  out.reserve(retained);
  for (std::uint64_t i = first; i < emitted_[tier]; ++i) {
    out.push_back(
        data_[tier][static_cast<std::size_t>(i % cap) * kColumns + col]);
  }
  return out;
}

std::string TimeSeries::render_text() const {
  std::ostringstream out;
  out << "iba-timeseries 1\n";
  out << "cadence = " << config_.cadence << '\n';
  out << "tier-capacity = " << config_.tier_capacity << '\n';
  out << "rounds = " << rounds_ << '\n';
  out << "columns =";
  for (const char* name : column_names()) out << ' ' << name;
  out << '\n';
  for (int tier = 0; tier < kTiers; ++tier) {
    out << "[tier " << tier << "]\n";
    out << "stride = " << tier_stride(tier) << '\n';
    out << "emitted = " << tier_emitted(tier) << '\n';
    out << "retained = " << tier_retained(tier) << '\n';
    for (std::size_t col = 0; col < kColumns; ++col) {
      out << "col " << column_names()[col] << " =";
      render_delta_row(out, column(tier, col));
      out << '\n';
    }
  }
  out << "end\n";
  return out.str();
}

std::string TimeSeries::render_window(std::uint64_t last_k) const {
  const std::uint64_t retained = tier_retained(0);
  const std::uint64_t take = std::min(last_k, retained);
  std::ostringstream out;
  out << "cadence = " << config_.cadence << '\n';
  out << "samples = " << take << '\n';
  for (std::size_t col = 0; col < kColumns; ++col) {
    std::vector<std::uint64_t> values = column(0, col);
    values.erase(values.begin(),
                 values.begin() + static_cast<std::ptrdiff_t>(
                                      values.size() - take));
    out << "col " << column_names()[col] << " =";
    render_delta_row(out, values);
    out << '\n';
  }
  return out.str();
}

std::string TimeSeries::state_text() const {
  std::ostringstream out;
  out << "cadence = " << config_.cadence << '\n';
  out << "tier-capacity = " << config_.tier_capacity << '\n';
  out << "rounds = " << rounds_ << '\n';
  for (int tier = 0; tier < kTiers; ++tier) {
    out << "emitted " << tier << " = " << emitted_[tier] << '\n';
    out << "pending " << tier << " = " << pending_count_[tier];
    for (std::size_t col = 0; col < kColumns; ++col) {
      out << ' ' << pending_[tier][col];
    }
    out << '\n';
    const std::uint64_t retained = tier_retained(tier);
    const std::uint64_t first = emitted_[tier] - retained;
    const std::uint64_t cap = config_.tier_capacity;
    for (std::uint64_t i = first; i < emitted_[tier]; ++i) {
      out << "row " << tier << ' ' << i << " =";
      const std::size_t slot = static_cast<std::size_t>(i % cap) * kColumns;
      for (std::size_t col = 0; col < kColumns; ++col) {
        out << ' ' << data_[tier][slot + col];
      }
      out << '\n';
    }
  }
  return out.str();
}

void TimeSeries::restore_state(const std::string& text) {
  reset();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream parse(line);
    std::string key;
    parse >> key;
    std::string eq;
    if (key == "cadence" || key == "tier-capacity" || key == "rounds") {
      std::uint64_t value = 0;
      if (!(parse >> eq >> value) || eq != "=") fail("malformed: " + line);
      if (key == "cadence" && value != config_.cadence) {
        fail("cadence mismatch: state has " + std::to_string(value));
      }
      if (key == "tier-capacity" && value != config_.tier_capacity) {
        fail("tier-capacity mismatch: state has " + std::to_string(value));
      }
      if (key == "rounds") rounds_ = value;
    } else if (key == "emitted") {
      int tier = -1;
      std::uint64_t value = 0;
      if (!(parse >> tier >> eq >> value) || eq != "=" || tier < 0 ||
          tier >= kTiers) {
        fail("malformed: " + line);
      }
      emitted_[tier] = value;
    } else if (key == "pending") {
      int tier = -1;
      std::uint64_t count = 0;
      if (!(parse >> tier >> eq >> count) || eq != "=" || tier < 0 ||
          tier >= kTiers) {
        fail("malformed: " + line);
      }
      pending_count_[tier] = count;
      for (std::size_t col = 0; col < kColumns; ++col) {
        if (!(parse >> pending_[tier][col])) fail("malformed: " + line);
      }
    } else if (key == "row") {
      int tier = -1;
      std::uint64_t index = 0;
      if (!(parse >> tier >> index >> eq) || eq != "=" || tier < 0 ||
          tier >= kTiers) {
        fail("malformed: " + line);
      }
      const std::size_t slot =
          static_cast<std::size_t>(index % config_.tier_capacity) * kColumns;
      for (std::size_t col = 0; col < kColumns; ++col) {
        if (!(parse >> data_[tier][slot + col])) fail("malformed: " + line);
      }
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  for (int tier = 0; tier < kTiers; ++tier) {
    if (pending_count_[tier] > (tier == 0 ? config_.cadence : kFold)) {
      fail("pending count exceeds fold width");
    }
  }
}

void TimeSeries::reset() noexcept {
  rounds_ = 0;
  emitted_.fill(0);
  pending_count_.fill(0);
  for (auto& pend : pending_) pend.fill(0);
  for (auto& tier : data_) {
    std::fill(tier.begin(), tier.end(), 0);
  }
}

}  // namespace iba::telemetry
