// Crash-safe checkpoint/resume (format v3): kill-and-resume byte
// identity with and without an attached fault plan, atomicity of the
// writer, and rejection of downlevel files and valid-CRC field damage
// with messages naming the problem. Bit flips and truncation of every
// sealed format are covered by corruption_battery_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "core/capped.hpp"
#include "fault/fault_plan.hpp"
#include "fault/schedule.hpp"
#include "sim/checkpoint.hpp"

namespace {

using namespace iba;
using core::Capped;
using core::CappedConfig;
using core::Engine;
using core::RoundKernel;

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("iba_ckpt_resume_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

CappedConfig rich_config() {
  // Exercise every persisted knob: bin-major kernel, sharding, and
  // defer-retry backpressure.
  CappedConfig config;
  config.n = 256;
  config.capacity = 3;
  config.lambda_n = 240;
  config.kernel = RoundKernel::kBinMajor;
  config.shards = 2;
  config.pool_limit = 200;
  config.backpressure = core::BackpressureMode::kDeferRetry;
  config.backoff_rounds = 3;
  return config;
}

void expect_same_round(const core::RoundMetrics& a,
                       const core::RoundMetrics& b, std::uint64_t round) {
  ASSERT_EQ(a.round, b.round) << "round " << round;
  ASSERT_EQ(a.generated, b.generated) << "round " << round;
  ASSERT_EQ(a.thrown, b.thrown) << "round " << round;
  ASSERT_EQ(a.accepted, b.accepted) << "round " << round;
  ASSERT_EQ(a.deleted, b.deleted) << "round " << round;
  ASSERT_EQ(a.pool_size, b.pool_size) << "round " << round;
  ASSERT_EQ(a.total_load, b.total_load) << "round " << round;
  ASSERT_EQ(a.max_load, b.max_load) << "round " << round;
  ASSERT_EQ(a.shed, b.shed) << "round " << round;
  ASSERT_EQ(a.deferred, b.deferred) << "round " << round;
  ASSERT_EQ(a.requeued, b.requeued) << "round " << round;
  ASSERT_EQ(a.faulted_bins, b.faulted_bins) << "round " << round;
  ASSERT_EQ(a.wait_count, b.wait_count) << "round " << round;
  ASSERT_DOUBLE_EQ(a.wait_sum, b.wait_sum) << "round " << round;
  ASSERT_EQ(a.wait_max, b.wait_max) << "round " << round;
}

void expect_same_final_state(const Capped& a, const Capped& b) {
  EXPECT_EQ(a.round(), b.round());
  EXPECT_EQ(a.generated_total(), b.generated_total());
  EXPECT_EQ(a.deleted_total(), b.deleted_total());
  EXPECT_EQ(a.shed_total(), b.shed_total());
  EXPECT_EQ(a.deferred_total(), b.deferred_total());
  EXPECT_EQ(a.pool_size(), b.pool_size());
  EXPECT_EQ(a.total_load(), b.total_load());
  EXPECT_EQ(a.waits().count(), b.waits().count());
  EXPECT_EQ(a.waits().moments().sum(), b.waits().moments().sum());
  EXPECT_EQ(a.waits().moments().sumsq_hi(), b.waits().moments().sumsq_hi());
  EXPECT_EQ(a.waits().moments().sumsq_lo(), b.waits().moments().sumsq_lo());
  EXPECT_EQ(a.waits().histogram().counts(), b.waits().histogram().counts());
  for (std::uint32_t bin = 0; bin < a.n(); ++bin) {
    ASSERT_EQ(a.load(bin), b.load(bin)) << "bin " << bin;
  }
}

TEST_F(CheckpointResumeTest, KillAndResumeIsByteIdentical) {
  // Reference: 200 uninterrupted rounds.
  Capped reference(rich_config(), Engine(42));
  std::vector<core::RoundMetrics> expected;
  for (int r = 0; r < 200; ++r) expected.push_back(reference.step());

  // Killed run: stop at round 120, persist, reload, continue.
  Capped first_life(rich_config(), Engine(42));
  for (int r = 0; r < 120; ++r) (void)first_life.step();
  const std::string file = path("ckpt");
  sim::save_checkpoint(first_life.snapshot(), file);

  Capped second_life(sim::load_checkpoint(file));
  for (int r = 120; r < 200; ++r) {
    const auto m = second_life.step();
    expect_same_round(expected[static_cast<std::size_t>(r)], m,
                      static_cast<std::uint64_t>(r + 1));
  }
  expect_same_final_state(reference, second_life);
}

TEST_F(CheckpointResumeTest, KillAndResumeWithFaultPlanIsByteIdentical) {
  const char* schedule =
      "crash@100:bins=0-63,down=30,retain;"
      "random-crash:p=0.004,down=5-25;"
      "degrade@110:bins=200-255,cap=1,for=60;"
      "straggle:bins=100-119,period=4,phase=2";
  const std::uint64_t fault_seed = 9;
  const auto make_plan = [&] {
    return fault::FaultPlan(fault::parse_schedule(schedule), 256, 3,
                            fault_seed);
  };

  Capped reference(rich_config(), Engine(42));
  fault::FaultPlan reference_plan = make_plan();
  reference.set_fault_plan(&reference_plan);
  std::vector<core::RoundMetrics> expected;
  for (int r = 0; r < 250; ++r) expected.push_back(reference.step());

  // Kill at round 130 — mid-outage, mid-degradation — and persist both
  // the process snapshot and the plan's dynamic state.
  Capped first_life(rich_config(), Engine(42));
  fault::FaultPlan first_plan = make_plan();
  first_life.set_fault_plan(&first_plan);
  for (int r = 0; r < 130; ++r) (void)first_life.step();

  sim::Checkpoint out;
  out.snapshot = first_life.snapshot();
  out.has_fault_state = true;
  out.fault_schedule = fault::to_string(first_plan.schedule());
  out.fault_seed = first_plan.seed();
  out.fault_state = first_plan.state();
  const std::string file = path("ckpt_fault");
  sim::save_checkpoint(out, file);

  const sim::Checkpoint in = sim::load_checkpoint_full(file);
  ASSERT_TRUE(in.has_fault_state);
  EXPECT_EQ(in.fault_seed, fault_seed);
  Capped second_life(in.snapshot);
  fault::FaultPlan second_plan(fault::parse_schedule(in.fault_schedule), 256,
                               3, in.fault_seed);
  second_plan.restore(in.fault_state);
  second_life.set_fault_plan(&second_plan);

  for (int r = 130; r < 250; ++r) {
    const auto m = second_life.step();
    expect_same_round(expected[static_cast<std::size_t>(r)], m,
                      static_cast<std::uint64_t>(r + 1));
  }
  expect_same_final_state(reference, second_life);
  EXPECT_EQ(second_plan.crashes_total(), reference_plan.crashes_total());
  EXPECT_EQ(second_plan.repairs_total(), reference_plan.repairs_total());
  EXPECT_EQ(second_plan.straggler_skips_total(),
            reference_plan.straggler_skips_total());
}

TEST_F(CheckpointResumeTest, PlainLoaderRejectsFaultBearingFiles) {
  Capped p(rich_config(), Engine(1));
  fault::FaultPlan plan(fault::parse_schedule("crash@5:bins=0,down=2"), 256,
                        3, 1);
  p.set_fault_plan(&plan);
  for (int r = 0; r < 10; ++r) (void)p.step();
  sim::Checkpoint out;
  out.snapshot = p.snapshot();
  out.has_fault_state = true;
  out.fault_schedule = fault::to_string(plan.schedule());
  out.fault_seed = plan.seed();
  out.fault_state = plan.state();
  const std::string file = path("with_fault");
  sim::save_checkpoint(out, file);
  EXPECT_NO_THROW((void)sim::load_checkpoint_full(file));
  try {
    (void)sim::load_checkpoint(file);
    FAIL() << "fault-bearing checkpoint accepted by the plain loader";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointResumeTest, SaveIsAtomicOverExistingFile) {
  // A save over an existing checkpoint must never leave a torn file:
  // the tmp staging file is gone and the content equals a fresh save.
  Capped p(rich_config(), Engine(2));
  for (int r = 0; r < 50; ++r) (void)p.step();
  const std::string file = path("ckpt");
  sim::save_checkpoint(p.snapshot(), file);
  const auto size_before = std::filesystem::file_size(file);

  for (int r = 0; r < 50; ++r) (void)p.step();
  sim::save_checkpoint(p.snapshot(), file);
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"))
      << "staging file must not survive a successful save";
  EXPECT_NO_THROW((void)sim::load_checkpoint(file));
  EXPECT_NE(std::filesystem::file_size(file), 0u);
  (void)size_before;

  // A failed save (unwritable staging path) leaves the old file intact.
  const std::string blocked = path("sub") + "/ckpt";
  EXPECT_THROW(sim::save_checkpoint(p.snapshot(), blocked),
               std::runtime_error);
}

std::string slurp(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& file, const std::string& content) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST_F(CheckpointResumeTest, DownlevelAndForeignFilesAreNamed) {
  // v1 predates the CRC header; v2 predates the control plane. Neither
  // loads: checkpoints are transient run state, not an archive format.
  const std::string v1 = path("v1");
  spit(v1, "iba-checkpoint 1\nconfig 8 1 4\n");
  const std::string v2 = path("v2");
  spit(v2, "iba-checkpoint 2 0 12\nconfig 8 1 4\n");
  for (const std::string& file : {v1, v2}) {
    try {
      (void)sim::load_checkpoint(file);
      FAIL() << file << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }
  }

  const std::string foreign = path("foreign");
  spit(foreign, "not-a-checkpoint at all\n");
  EXPECT_THROW((void)sim::load_checkpoint(foreign), std::runtime_error);
  EXPECT_THROW((void)sim::load_checkpoint(path("missing")),
               std::runtime_error);
}

/// `body` under a valid v3 header (CRC and length recomputed).
std::string reheader(const std::string& body) {
  return "iba-checkpoint 3 " + std::to_string(common::crc32(body)) + " " +
         std::to_string(body.size()) + "\n" + body;
}

/// `body` with token `index` of its positional config line (0 =
/// "config") replaced by `value`.
std::string with_config_token(const std::string& body, std::size_t index,
                              const std::string& value) {
  const std::size_t line_end = body.find('\n');
  std::istringstream line(body.substr(0, line_end));
  std::vector<std::string> tokens;
  std::string token;
  while (line >> token) tokens.push_back(token);
  EXPECT_GT(tokens.size(), index);
  if (tokens.size() <= index) return body;
  tokens[index] = value;
  std::string rebuilt;
  for (const auto& t : tokens) {
    if (!rebuilt.empty()) rebuilt += ' ';
    rebuilt += t;
  }
  return rebuilt + body.substr(line_end);
}

/// `body` with its first line (after the config line) starting with
/// `prefix` replaced by `line`.
std::string with_line(const std::string& body, const std::string& prefix,
                      const std::string& line) {
  const std::size_t at = body.find("\n" + prefix);
  EXPECT_NE(at, std::string::npos) << prefix;
  if (at == std::string::npos) return body;
  const std::size_t end = body.find('\n', at + 1);
  return body.substr(0, at + 1) + line + body.substr(end);
}

/// Loads `mutated_body` under a valid header and expects a
/// std::runtime_error carrying `expect` — not acceptance, and not a
/// std::bad_alloc or std::length_error from sizing a container.
void expect_named_rejection(const std::string& file,
                            const std::string& mutated_body,
                            const std::string& expect) {
  spit(file, reheader(mutated_body));
  try {
    (void)sim::load_checkpoint_full(file);
    ADD_FAILURE() << expect << ": corrupt file accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << expect << " -> " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << expect << ": unnamed failure " << e.what();
  }
}

std::string body_of(const std::string& file) {
  const std::string good = slurp(file);
  return good.substr(good.find('\n') + 1);
}

TEST_F(CheckpointResumeTest, MalformedFieldsAreNamed) {
  // Rebuild a structurally valid file (header CRC/length recomputed)
  // with one field driven out of domain: the loader's message must name
  // the field rather than crash or accept it.
  Capped p(rich_config(), Engine(5));
  for (int r = 0; r < 30; ++r) (void)p.step();
  const std::string file = path("ckpt");
  sim::save_checkpoint(p.snapshot(), file);
  const std::string body = body_of(file);

  // The config line is positional:
  // config n capacity lambda_n arrival deletion acceptance prob
  //        failure_mode kernel shards pool_limit backpressure backoff
  struct Case {
    std::size_t token;        // index into the config line (0 = "config")
    const char* replacement;  // out-of-domain value
    const char* expect;       // substring the error must carry
  } const cases[] = {
      {4, "7", "arrival"},
      {9, "9", "kernel"},
      {12, "5", "backpressure"},
      {1, "0", "n"},
      // c must fit the bin table's packed 16-bit queue length, [1, 65535],
      // including 2^32 - 1, the sentinel older builds wrote for c = ∞.
      {2, "0", "out-of-range field: capacity"},
      {2, "70000", "out-of-range field: capacity"},
      {2, "4294967295", "out-of-range field: capacity"},
  };
  for (const Case& c : cases) {
    expect_named_rejection(path("mutant"),
                           with_config_token(body, c.token, c.replacement),
                           c.expect);
  }
}

TEST_F(CheckpointResumeTest, OversizedCountsAreRejectedBeforeAllocating) {
  // A count of 2^40 under a valid CRC is bounded by the body bytes left
  // to read before it sizes any container.
  Capped p(rich_config(), Engine(11));
  fault::FaultPlan plan(fault::parse_schedule("crash@5:bins=0-7,down=50"),
                        256, 3, 1);
  p.set_fault_plan(&plan);
  for (int r = 0; r < 10; ++r) (void)p.step();
  sim::Checkpoint out;
  out.snapshot = p.snapshot();
  out.has_fault_state = true;
  out.fault_schedule = fault::to_string(plan.schedule());
  out.fault_seed = plan.seed();
  out.fault_state = plan.state();
  const std::string file = path("ckpt");
  sim::save_checkpoint(out, file);
  const std::string body = body_of(file);
  const std::string huge = "1099511627776";
  const std::string max_u32 = "4294967295";

  expect_named_rejection(path("pool"), with_line(body, "pool ", "pool " + huge),
                         "pool size");
  expect_named_rejection(path("deferred"),
                         with_line(body, "deferred ", "deferred " + huge),
                         "deferred size");
  // n = 2^32 - 1 agrees with the bin count, so only the byte bound
  // stops the queue table from being sized by it.
  expect_named_rejection(
      path("bins"),
      with_line(with_config_token(body, 1, max_u32), "bins ",
                "bins " + max_u32),
      "bin count");
  // The byte bound is checked before the capacity bound.
  std::string queue = body;
  const std::size_t row = queue.find('\n', queue.find("\nbins ") + 1) + 1;
  queue.replace(row, queue.find('\n', row) - row, huge);
  expect_named_rejection(path("queue"), queue, "queue length");
  expect_named_rejection(path("down"),
                         with_line(body, "fault-down ", "fault-down " + huge),
                         "fault down count");
}

TEST_F(CheckpointResumeTest, QueueLinesThatDisagreeWithTheirLengthAreNamed) {
  // A queue line's labels must number its length: one label short, the
  // next line's length would be read as a label; one label long, it
  // would be read as the next line's length.
  Capped p(rich_config(), Engine(12));
  for (int r = 0; r < 10; ++r) (void)p.step();
  const std::string file = path("ckpt");
  sim::save_checkpoint(p.snapshot(), file);
  const std::string body = body_of(file);
  // The first queue line holding two or more labels.
  std::size_t row = body.find('\n', body.find("\nbins ") + 1) + 1;
  while (body[row] == '0' || body[row] == '1') {
    row = body.find('\n', row) + 1;
  }
  const std::size_t row_end = body.find('\n', row);
  const std::size_t last_label = body.rfind(' ', row_end);
  ASSERT_LT(row, last_label);

  expect_named_rejection(path("short"), body.substr(0, last_label) +
                                            body.substr(row_end),
                         "queue label");
  expect_named_rejection(path("long"), body.substr(0, row_end) + " 7" +
                                           body.substr(row_end),
                         "queue line runs past its length");
}

// -- format v3: adaptive-control state -------------------------------

CappedConfig control_config() {
  // rich_config plus the full control plane: sweet-spot capacity tuning
  // AND wait-targeted admission control riding on the defer-retry
  // backpressure — every serialized control field is live.
  CappedConfig config = rich_config();
  config.control.policy = iba::control::Policy::kSweetSpot;
  config.control.c_max = 8;
  config.control.window = 8;
  config.control.cooldown = 16;
  config.control.admission_target = 1;
  return config;
}

TEST_F(CheckpointResumeTest, KillAndResumeMidAdaptationIsByteIdentical) {
  // λ collapses at round 100 so the kill at 120 lands mid-adaptation:
  // the estimator window straddles the change, the capacity may still
  // be draining, and the admission loop has moved the pool limit off
  // its configured baseline.
  const auto drive = [](Capped& p, int from, int to,
                        std::vector<core::RoundMetrics>* out) {
    for (int r = from; r < to; ++r) {
      if (p.round() + 1 == 100) p.set_lambda_n(100);
      const auto m = p.step();
      if (out != nullptr) out->push_back(m);
    }
  };

  Capped reference(control_config(), Engine(42));
  std::vector<core::RoundMetrics> expected;
  drive(reference, 0, 220, &expected);

  Capped first_life(control_config(), Engine(42));
  drive(first_life, 0, 120, nullptr);
  const std::string file = path("ckpt_control");
  sim::save_checkpoint(first_life.snapshot(), file);

  Capped second_life(sim::load_checkpoint(file));
  ASSERT_NE(second_life.controller(), nullptr);
  std::vector<core::RoundMetrics> resumed;
  drive(second_life, 120, 220, &resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    expect_same_round(expected[120 + i], resumed[i],
                      static_cast<std::uint64_t>(121 + i));
  }
  expect_same_final_state(reference, second_life);
  EXPECT_TRUE(reference.snapshot().controller ==
              second_life.snapshot().controller)
      << "controller state diverged after resume";
  EXPECT_EQ(reference.capacity(), second_life.capacity());
  EXPECT_EQ(reference.config().pool_limit, second_life.config().pool_limit);
}

TEST_F(CheckpointResumeTest, V3CorruptControlFieldsAreNamed) {
  Capped p(control_config(), Engine(8));
  for (int r = 0; r < 60; ++r) (void)p.step();
  const std::string file = path("ckpt");
  sim::save_checkpoint(p.snapshot(), file);
  const std::string body = body_of(file);
  const auto expect_rejection = [&](const std::string& mutated_body,
                                    const char* expect) {
    expect_named_rejection(path("mutant"), mutated_body, expect);
  };

  // Policy id out of range (config token 14, first control field).
  expect_rejection(with_config_token(body, 14, "9"), "control policy");

  // Cooldown bit-flip: cooldown_until beyond round + cooldown can never
  // be produced by the controller (it always arms round + cooldown).
  {
    const std::size_t line_at = body.find("control-controller ");
    ASSERT_NE(line_at, std::string::npos);
    const std::size_t value_at = line_at + std::string("control-controller ").size();
    const std::size_t value_end = body.find(' ', value_at);
    std::string mutated = body.substr(0, value_at) + "9999999" +
                          body.substr(value_end);
    expect_rejection(mutated, "cooldown_until");
  }

  // Truncated estimator block: the file ends mid-ring.
  {
    const std::size_t est_at = body.find("control-estimator");
    ASSERT_NE(est_at, std::string::npos);
    const std::size_t cut = body.find('\n', est_at) + 20;
    ASSERT_LT(cut, body.size());
    expect_rejection(body.substr(0, cut), "estimator");
  }

  // Control flag contradicting the config's policy.
  {
    const std::size_t flag_at = body.find("\ncontrol 1\n");
    ASSERT_NE(flag_at, std::string::npos);
    std::string mutated = body;
    mutated[flag_at + std::string("\ncontrol ").size()] = '0';
    expect_rejection(mutated, "disagrees");
  }
}

}  // namespace
