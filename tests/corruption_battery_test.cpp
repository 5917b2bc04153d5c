// One corruption battery over every sealed file format (io/sealed.hpp)
// and the net/frame wire decoder: a small valid instance of each is
// truncated at every offset, flipped at every bit, and extended by one
// trailing byte. Every mutant must be rejected cleanly — a
// std::runtime_error from the format's own decoder, never acceptance,
// a crash, or std::bad_alloc / std::length_error from sizing a
// container by a corrupt count. Payloads that pass every envelope check
// but order unbounded or undefined work (a shard's bin count, a round
// frame's buckets, engine state and sampler) are rejected by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/capped.hpp"
#include "dist/checkpoint.hpp"
#include "dist/protocol.hpp"
#include "io/sealed.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "scenario/progress.hpp"
#include "sim/checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace iba {
namespace {

/// One format: `make` writes a small valid instance to the path it is
/// given; `decode` reads a file back through the format's decoder.
struct Format {
  std::string name;
  std::function<void(const std::string& path)> make;
  std::function<void(const std::string& path)> decode;
  bool needs_telemetry = false;
};

void PrintTo(const Format& format, std::ostream* out) { *out << format.name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

telemetry::TimeSeriesConfig series_config() {
  return {.cadence = 1, .tier_capacity = 4};
}

std::vector<Format> formats() {
  std::vector<Format> all;
  all.push_back(
      {"checkpoint",
       [](const std::string& path) {
         core::CappedConfig config;
         config.n = 8;
         config.capacity = 2;
         config.lambda_n = 6;
         core::Capped process(config, core::Engine(1));
         for (int r = 0; r < 5; ++r) (void)process.step();
         sim::save_checkpoint(process.snapshot(), path);
       },
       [](const std::string& path) { (void)sim::load_checkpoint_full(path); }});
  all.push_back({"progress",
                 [](const std::string& path) {
                   scenario::Progress p;
                   p.digest = "0123abcd";
                   p.seed = 7;
                   p.rounds_done = 9;
                   p.pool_sum = 120;
                   p.pool_min = 3;
                   p.pool_max = 40;
                   scenario::save_progress(p, path);
                 },
                 [](const std::string& path) {
                   (void)scenario::load_progress(path);
                 }});
  all.push_back({"record",
                 [](const std::string& path) {
                   telemetry::TimeSeries series(series_config());
                   for (std::uint64_t r = 1; r <= 3; ++r) {
                     series.observe({.round = r, .pool_size = 5 + r});
                   }
                   telemetry::FlightRecorder recorder({.window = 2});
                   recorder.attach_time_series(&series);
                   recorder.set_context("unit", "0123abcd", 7, 8);
                   recorder.note_event(2, "fault", "crashes +1");
                   scenario::save_record(series, recorder, path);
                 },
                 [](const std::string& path) {
                   telemetry::TimeSeries series(series_config());
                   telemetry::FlightRecorder recorder({.window = 2});
                   scenario::load_record(series, recorder, path);
                 }});
  all.push_back({"shard",
                 [](const std::string& path) {
                   dist::ShardState shard;
                   shard.round = 12;
                   shard.bin_lo = 4;
                   shard.bin_count = 3;
                   shard.capacity = 2;
                   shard.queues = {{10, 11}, {}, {12}};
                   (void)dist::save_shard(shard, path);
                 },
                 [](const std::string& path) {
                   (void)dist::load_shard(path);
                 }});
  all.push_back({"manifest",
                 [](const std::string& path) {
                   dist::Manifest manifest;
                   manifest.round = 12;
                   manifest.n = 8;
                   manifest.workers = 2;
                   manifest.digest = "0123abcd";
                   manifest.seed = 7;
                   manifest.shard_crcs = {1, 2};
                   dist::save_manifest(manifest, path);
                 },
                 [](const std::string& path) {
                   (void)dist::load_manifest(path);
                 }});
  all.push_back({"artifact",
                 [](const std::string& path) {
                   artifact::ResultArtifact a;
                   a.scenario_name = "unit";
                   a.scenario_digest = "0123abcd";
                   a.seed = 7;
                   a.n = 8;
                   a.wait_histogram = {3, 2};
                   artifact::write_artifact(a, path);
                 },
                 [](const std::string& path) {
                   (void)artifact::read_artifact_text(path);
                 }});
  all.push_back({"bundle",
                 [](const std::string& path) {
                   telemetry::FlightRecorder recorder({.window = 2});
                   recorder.set_context("unit", "0123abcd", 7, 8);
                   recorder.trigger(telemetry::TriggerKind::kManual, 3, "x");
                   recorder.write_bundle(path);
                 },
                 [](const std::string& path) {
                   (void)telemetry::read_bundle_file(path);
                 },
                 /*needs_telemetry=*/true});
  all.push_back(
      {"frame",
       [](const std::string& path) {
         auto [a, b] = net::socket_pair();
         const std::string payload = "payload";
         net::write_frame(a.fd(), 3,
                          {reinterpret_cast<const std::uint8_t*>(payload.data()),
                           payload.size()});
         std::vector<std::uint8_t> wire(net::kFrameHeaderBytes +
                                        payload.size());
         net::read_full(b.fd(), wire.data(), wire.size());
         spit(path, std::string(wire.begin(), wire.end()));
       },
       // The wire holds exactly one frame: decode it, then a clean EOF.
       [](const std::string& path) {
         const std::string wire = slurp(path);
         auto [a, b] = net::socket_pair();
         net::write_full(a.fd(), wire.data(), wire.size());
         a.close();
         std::uint32_t type = 0;
         std::vector<std::uint8_t> payload;
         if (!net::read_frame(b.fd(), type, payload, /*max_payload=*/1024)) {
           throw std::runtime_error("frame: empty stream");
         }
         if (net::read_frame(b.fd(), type, payload, 1024)) {
           throw std::runtime_error("frame: a second frame");
         }
       }});
  return all;
}

class CorruptionBattery : public ::testing::TestWithParam<Format> {
 protected:
  void SetUp() override {
    if (GetParam().needs_telemetry && !telemetry::TimeSeries::kEnabled) {
      GTEST_SKIP() << "telemetry compiled out";
    }
    // ctest runs each case as its own process, concurrently: one
    // directory per case.
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() /
           ("iba_corruption_battery_" + name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::string pristine = path("pristine");
    GetParam().make(pristine);
    good_ = slurp(pristine);
    ASSERT_FALSE(good_.empty());
    ASSERT_NO_THROW(GetParam().decode(pristine));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Decodes `bytes`; records `label` unless the decoder throws a
  /// std::runtime_error.
  void expect_rejected(const std::string& bytes, const std::string& label) {
    const std::string mutant = path("mutant");
    spit(mutant, bytes);
    try {
      GetParam().decode(mutant);
      failures_.push_back(label + ": accepted");
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      failures_.push_back(label + ": " + e.what());
    }
  }

  void expect_no_failures() const {
    std::string shown;
    for (std::size_t i = 0; i < failures_.size() && i < 8; ++i) {
      shown += "\n  " + failures_[i];
    }
    EXPECT_TRUE(failures_.empty())
        << failures_.size() << " mutant(s) not rejected cleanly:" << shown;
  }

  std::filesystem::path dir_;
  std::string good_;
  std::vector<std::string> failures_;
};

TEST_P(CorruptionBattery, TruncationAtEveryOffsetIsRejected) {
  for (std::size_t keep = 0; keep < good_.size(); ++keep) {
    expect_rejected(good_.substr(0, keep), "truncated to " +
                                               std::to_string(keep));
  }
  expect_no_failures();
}

TEST_P(CorruptionBattery, EveryBitFlipIsRejected) {
  for (std::size_t offset = 0; offset < good_.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = good_;
      mutant[offset] = static_cast<char>(mutant[offset] ^ (1 << bit));
      expect_rejected(mutant, "bit " + std::to_string(bit) + " of byte " +
                                  std::to_string(offset));
    }
  }
  expect_no_failures();
}

TEST_P(CorruptionBattery, TrailingByteIsRejected) {
  expect_rejected(good_ + '\n', "trailing newline");
  expect_rejected(good_ + 'x', "trailing 'x'");
  expect_no_failures();
}

// ctest names each case by its format through PrintTo, e.g.
// SealedFormats/CorruptionBattery.EveryBitFlipIsRejected/checkpoint.
INSTANTIATE_TEST_SUITE_P(SealedFormats, CorruptionBattery,
                         ::testing::ValuesIn(formats()));

TEST(ValidCrcMutants, ShardBinCountIsBoundedBeforeAllocating) {
  // A shard whose CRC is valid but whose bin count is 2^40 must fail by
  // name before that count sizes the queue table.
  const auto dir = std::filesystem::temp_directory_path() /
                   "iba_corruption_battery_shard_count";
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "huge.shard").string();
  io::sealed::commit_header(file, "iba-dist-shard", 1,
                            "round = 1\nbin-lo = 0\nbin-count = "
                            "1099511627776\ncapacity = 2\nend\n",
                            "test");
  try {
    (void)dist::load_shard(file);
    ADD_FAILURE() << "shard with 2^40 bins accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bin-count"), std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unnamed failure: " << e.what();
  }
  std::filesystem::remove_all(dir);
}

/// A valid round frame: three buckets, oldest first, the newest
/// labelled with the round.
dist::RoundMsg valid_round() {
  dist::RoundMsg msg;
  msg.round = 9;
  msg.capacity = 2;
  msg.engine = core::Engine(7).state();
  msg.buckets = {{3, 5}, {8, 1}, {9, 6}};
  return msg;
}

dist::RoundMsg round_trip(const dist::RoundMsg& msg) {
  net::WireWriter out;
  dist::encode_round(msg, out);
  net::WireReader in(out.span());
  return dist::decode_round(in);
}

TEST(RoundFrameMutants, ValidFramesRoundTrip) {
  const dist::RoundMsg uniform = round_trip(valid_round());
  EXPECT_EQ(uniform.engine, valid_round().engine);
  ASSERT_EQ(uniform.buckets.size(), 3u);
  EXPECT_EQ(uniform.buckets[2].label, 9u);
  EXPECT_EQ(uniform.buckets[2].count, 6u);

  dist::RoundMsg zipf = valid_round();
  zipf.sampler = dist::kSamplerZipf;
  zipf.zipf_s = 0.5;
  EXPECT_EQ(round_trip(zipf).zipf_s, 0.5);

  // Σ counts exactly at the ceiling is legal.
  dist::RoundMsg full = valid_round();
  full.buckets = {{3, dist::kMaxRoundThrows - 1}, {9, 1}};
  EXPECT_NO_THROW((void)round_trip(full));
}

TEST(RoundFrameMutants, UnboundedOrUndefinedWorkIsAFrameError) {
  struct Mutant {
    std::string name;
    std::function<void(dist::RoundMsg&)> mutate;
  };
  const std::uint64_t kHalfCeiling = dist::kMaxRoundThrows / 2;
  const std::vector<Mutant> mutants = {
      {"labels descending",
       [](dist::RoundMsg& m) { m.buckets = {{8, 1}, {3, 5}, {9, 6}}; }},
      {"labels repeated",
       [](dist::RoundMsg& m) { m.buckets = {{3, 5}, {3, 1}, {9, 6}}; }},
      {"label above the round",
       [](dist::RoundMsg& m) { m.buckets.back().label = m.round + 1; }},
      {"zero count", [](dist::RoundMsg& m) { m.buckets[1].count = 0; }},
      {"capacity 0", [](dist::RoundMsg& m) { m.capacity = 0; }},
      {"capacity 65536", [](dist::RoundMsg& m) { m.capacity = 65536; }},
      {"counts overflow u64",
       [](dist::RoundMsg& m) {
         m.buckets = {{3, ~std::uint64_t{0}}, {9, 2}};
       }},
      {"counts above the ceiling",
       [kHalfCeiling](dist::RoundMsg& m) {
         m.buckets = {{3, kHalfCeiling}, {8, kHalfCeiling}, {9, 1}};
       }},
      {"all-zero engine state", [](dist::RoundMsg& m) { m.engine = {}; }},
      {"unknown sampler tag", [](dist::RoundMsg& m) { m.sampler = 2; }},
      {"Zipf s above 8",
       [](dist::RoundMsg& m) {
         m.sampler = dist::kSamplerZipf;
         m.zipf_s = 8.5;
       }},
      {"Zipf s negative",
       [](dist::RoundMsg& m) {
         m.sampler = dist::kSamplerZipf;
         m.zipf_s = -0.25;
       }},
      {"Zipf s NaN",
       [](dist::RoundMsg& m) {
         m.sampler = dist::kSamplerZipf;
         m.zipf_s = std::nan("");
       }},
  };
  for (const Mutant& mutant : mutants) {
    dist::RoundMsg msg = valid_round();
    mutant.mutate(msg);
    EXPECT_THROW((void)round_trip(msg), net::FrameError) << mutant.name;
  }
}

TEST(RoundFrameMutants, ResultWithAllZeroEngineStateIsAFrameError) {
  auto [a, b] = net::socket_pair();
  dist::RoundResultMsg result;
  result.round = 9;
  dist::send_round_result(a.fd(), result);
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(net::read_frame(b.fd(), type, payload));
  net::WireReader in(payload);
  EXPECT_THROW((void)dist::decode_round_result(in), net::FrameError);
}

}  // namespace
}  // namespace iba
