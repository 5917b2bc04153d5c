// Tests for TraceRecorder, the Checked<P> invariant wrapper, and the
// snapshot/checkpoint machinery (bit-identical continuation, file
// round-trips, format error paths).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/assert.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "sim/checkpoint.hpp"
#include "sim/trace.hpp"

namespace {

using namespace iba;
using core::Capped;
using core::CappedConfig;
using core::Engine;

CappedConfig small_config() {
  CappedConfig config;
  config.n = 128;
  config.capacity = 3;
  config.lambda_n = 96;
  return config;
}

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Runs `action` and expects an exception whose message carries `name`.
template <typename Action>
void expect_error_names(Action action, const std::string& name) {
  try {
    action();
    ADD_FAILURE() << name << ": not rejected";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << name << " -> " << e.what();
  }
}

TEST(TraceRecorder, CapturesSeries) {
  Capped process(small_config(), Engine(1));
  sim::TraceRecorder trace;
  for (int i = 0; i < 50; ++i) trace.observe(process.step());
  EXPECT_EQ(trace.size(), 50u);
  EXPECT_EQ(trace.pool().size(), 50u);
  EXPECT_EQ(trace.max_load().size(), 50u);
  // Loads are bounded by capacity throughout.
  for (double ml : trace.max_load()) EXPECT_LE(ml, 3.0);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorder, WritesCsv) {
  Capped process(small_config(), Engine(2));
  sim::TraceRecorder trace;
  for (int i = 0; i < 5; ++i) trace.observe(process.step());
  const auto path = temp_file("iba_trace_test.csv");
  trace.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "round,pool,total_load,max_load,deleted,wait_max");
  int lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 5);
  std::filesystem::remove(path);
}

TEST(Checked, RealProcessesProduceNoViolations) {
  Capped capped(small_config(), Engine(3));
  sim::Checked checked(capped);
  for (int i = 0; i < 300; ++i) (void)checked.step();
  EXPECT_EQ(checked.violations(), 0u);
  EXPECT_TRUE(checked.violation_log().empty());

  core::BatchGreedyConfig greedy_config{.n = 64, .d = 2, .lambda_n = 48};
  core::BatchGreedy greedy(greedy_config, Engine(4));
  sim::Checked checked_greedy(greedy);
  for (int i = 0; i < 300; ++i) (void)checked_greedy.step();
  EXPECT_EQ(checked_greedy.violations(), 0u);
}

TEST(Checked, WrappingMidRunStartsClean) {
  Capped process(small_config(), Engine(5));
  for (int i = 0; i < 100; ++i) (void)process.step();
  sim::Checked checked(process);  // wrap after 100 rounds
  for (int i = 0; i < 100; ++i) (void)checked.step();
  EXPECT_EQ(checked.violations(), 0u);
}

namespace fake {

// A deliberately broken process to prove the checker catches defects.
struct BrokenProcess {
  std::uint64_t round_ = 0;
  core::RoundMetrics step() {
    core::RoundMetrics m;
    round_ += 2;  // skips rounds
    m.round = round_;
    m.thrown = 10;
    m.accepted = 4;
    m.pool_size = 3;  // 4 + 3 != 10: pool-flow violation
    m.deleted = 1;
    m.wait_count = 0;  // != deleted: wait-count violation
    m.total_load = 99;  // breaks load flow
    return m;
  }
  [[nodiscard]] std::uint32_t n() const { return 1; }
  [[nodiscard]] std::uint64_t round() const { return round_; }
};

}  // namespace fake

TEST(Checked, FlagsBrokenMetrics) {
  fake::BrokenProcess broken;
  sim::Checked checked(broken);
  (void)checked.step();
  EXPECT_EQ(checked.violations(), 4u);  // sequence, pool, load, waits
  EXPECT_FALSE(checked.violation_log().empty());
}

TEST(Checked, OptionsDisableIndividualChecks) {
  fake::BrokenProcess broken;
  sim::CheckOptions options;
  options.check_round_sequence = false;
  options.check_wait_counts = false;
  sim::Checked checked(broken, options);
  (void)checked.step();
  EXPECT_EQ(checked.violations(), 2u);  // only pool + load flow
}

TEST(Snapshot, RestoredProcessContinuesIdentically) {
  Capped original(small_config(), Engine(6));
  for (int i = 0; i < 200; ++i) (void)original.step();

  const auto snap = original.snapshot();
  Capped restored(snap);
  EXPECT_EQ(restored.round(), original.round());
  EXPECT_EQ(restored.pool_size(), original.pool_size());
  EXPECT_EQ(restored.total_load(), original.total_load());

  for (int i = 0; i < 200; ++i) {
    const auto mo = original.step();
    const auto mr = restored.step();
    ASSERT_EQ(mo.pool_size, mr.pool_size) << "round " << mo.round;
    ASSERT_EQ(mo.deleted, mr.deleted);
    ASSERT_EQ(mo.wait_max, mr.wait_max);
    ASSERT_EQ(mo.max_load, mr.max_load);
  }
}

TEST(Checkpoint, FileRoundTripPreservesTrajectory) {
  CappedConfig config = small_config();
  config.deletion = core::DeletionDiscipline::kLifo;
  config.failure_probability = 0.05;
  Capped original(config, Engine(8));
  for (int i = 0; i < 120; ++i) (void)original.step();

  const auto path = temp_file("iba_checkpoint_test.ckpt");
  sim::save_checkpoint(original.snapshot(), path);
  Capped restored(sim::load_checkpoint(path));
  std::filesystem::remove(path);

  EXPECT_EQ(restored.capacity(), original.capacity());
  for (int i = 0; i < 150; ++i) {
    const auto mo = original.step();
    const auto mr = restored.step();
    ASSERT_EQ(mo.pool_size, mr.pool_size);
    ASSERT_EQ(mo.deleted, mr.deleted);
  }
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW((void)sim::load_checkpoint("/nonexistent/iba.ckpt"),
               std::runtime_error);
}

TEST(Checkpoint, RejectsBadMagicAndTruncation) {
  const auto path = temp_file("iba_checkpoint_bad.ckpt");
  {
    std::ofstream out(path);
    out << "not-a-checkpoint 1\n";
  }
  EXPECT_THROW((void)sim::load_checkpoint(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "iba-checkpoint 1\nconfig 4 2\n";  // truncated
  }
  EXPECT_THROW((void)sim::load_checkpoint(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "iba-checkpoint 99\n";  // wrong version
  }
  EXPECT_THROW((void)sim::load_checkpoint(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsOverfullQueue) {
  Capped process(small_config(), Engine(9));
  for (int i = 0; i < 50; ++i) (void)process.step();
  auto snap = process.snapshot();
  // Bin 0's queue becomes 1..5; capacity is 3.
  auto& bins = snap.bins;
  bins.labels.erase(bins.labels.begin(),
                    bins.labels.begin() + bins.loads[0]);
  bins.labels.insert(bins.labels.begin(), {1, 2, 3, 4, 5});
  bins.loads[0] = 5;
  EXPECT_THROW(Capped{snap}, ContractViolation);
  const auto path = temp_file("iba_checkpoint_overfull.ckpt");
  sim::save_checkpoint(snap, path);
  expect_error_names([&] { (void)sim::load_checkpoint(path); },
                     "queue longer than capacity");
  std::filesystem::remove(path);
}

TEST(Snapshot, RejectsLoadsThatAreNotOnePerBin) {
  Capped process(small_config(), Engine(10));
  for (int i = 0; i < 20; ++i) (void)process.step();
  auto snap = process.snapshot();
  snap.bins.labels.resize(snap.bins.labels.size() - snap.bins.loads.back());
  snap.bins.loads.pop_back();
  expect_error_names([&] { Capped restored(snap); }, "one load per bin");
  // Saved, the short table is a bin count that disagrees with n.
  const auto path = temp_file("iba_checkpoint_short_bins.ckpt");
  sim::save_checkpoint(snap, path);
  expect_error_names([&] { (void)sim::load_checkpoint(path); },
                     "bin count mismatch");
  std::filesystem::remove(path);
}

TEST(Snapshot, RejectsLabelsThatDoNotSumToTheLoads) {
  Capped process(small_config(), Engine(11));
  for (int i = 0; i < 20; ++i) (void)process.step();
  const auto snap = process.snapshot();
  ASSERT_FALSE(snap.bins.labels.empty());
  auto extra = snap;
  extra.bins.labels.push_back(1);
  expect_error_names([&] { Capped restored(extra); }, "sum of the loads");
  auto missing = snap;
  missing.bins.labels.pop_back();
  expect_error_names([&] { Capped restored(missing); }, "sum of the loads");
  // Nor can such a snapshot be saved: the file would misplace labels.
  const auto path = temp_file("iba_checkpoint_bad_sum.ckpt");
  expect_error_names([&] { sim::save_checkpoint(missing, path); },
                     "sum of the loads");
}

}  // namespace
