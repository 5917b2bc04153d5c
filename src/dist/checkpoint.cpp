#include "dist/checkpoint.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "io/sealed.hpp"
#include "sim/checkpoint.hpp"

namespace iba::dist {

namespace {

constexpr std::string_view kShardMagic = "iba-dist-shard";
constexpr std::string_view kManifestMagic = "iba-dist-manifest";
constexpr std::string_view kQueue = "queue = ";  // queue-line prefix
constexpr std::uint32_t kShardVersion = 1;
constexpr std::uint32_t kManifestVersion = 2;

[[noreturn]] void fail(const std::string& context,
                       const std::string& message) {
  throw std::runtime_error(context + ": " + message);
}

std::uint64_t parse_u64(std::istringstream& in, const char* what,
                        const std::string& context) {
  std::uint64_t value = 0;
  if (!(in >> value)) {
    fail(context, std::string("truncated/invalid field: ") + what);
  }
  return value;
}

void expect_key(std::istringstream& in, std::string_view key,
                const std::string& context) {
  std::string word, eq;
  if (!(in >> word >> eq) || word != key || eq != "=") {
    fail(context, "expected '" + std::string(key) + " =', got '" + word +
                      " " + eq + "'");
  }
}

}  // namespace

std::string shard_path(const std::string& base, std::uint64_t round,
                       std::uint32_t worker) {
  return base + ".r" + std::to_string(round) + ".shard" +
         std::to_string(worker);
}

std::string coord_path(const std::string& base, std::uint64_t round) {
  return base + ".r" + std::to_string(round) + ".coord";
}

std::string progress_path(const std::string& base, std::uint64_t round) {
  return coord_path(base, round) + ".progress";
}

std::string manifest_path(const std::string& base) {
  return base + ".manifest";
}

std::uint32_t save_shard(const ShardState& shard, const std::string& path) {
  IBA_EXPECT(shard.queues.loads.size() == shard.bin_count,
             "save_shard: queues must hold one load per bin of the range");
  std::ostringstream head;
  head << "round = " << shard.round << '\n';
  head << "bin-lo = " << shard.bin_lo << '\n';
  head << "bin-count = " << shard.bin_count << '\n';
  head << "capacity = " << shard.capacity << '\n';
  const std::string head_text = head.str();
  const sim::QueueLines lines =
      sim::render_queue_lines(shard.queues, kQueue, shard.round);
  const std::string_view body[] = {head_text, lines.view(), "end\n"};
  return io::sealed::commit_header(path, kShardMagic, kShardVersion, body,
                                   "dist shard");
}

ShardState load_shard(const std::string& path) {
  const std::string context = "dist shard";
  const std::string body =
      io::sealed::load_header(path, kShardMagic, kShardVersion, context);
  std::istringstream in(body);
  ShardState shard;
  expect_key(in, "round", context);
  shard.round = parse_u64(in, "round", context);
  expect_key(in, "bin-lo", context);
  shard.bin_lo = parse_u64(in, "bin-lo", context);
  expect_key(in, "bin-count", context);
  shard.bin_count = parse_u64(in, "bin-count", context);
  // Every bin is a `queue = ...` line, so the count cannot exceed the
  // body's size; checked before it sizes the queue table.
  if (shard.bin_count > body.size()) fail(context, "bin-count out of range");
  expect_key(in, "capacity", context);
  const std::uint64_t capacity = parse_u64(in, "capacity", context);
  if (capacity < 1 || capacity > 0xFFFFu) {
    fail(context, "capacity out of range");
  }
  shard.capacity = static_cast<std::uint32_t>(capacity);
  const auto pos = in.tellg();
  if (pos < 0 || static_cast<std::size_t>(pos) >= body.size() ||
      body[static_cast<std::size_t>(pos)] != '\n') {
    fail(context, "truncated/invalid field: capacity");
  }
  auto at = static_cast<std::size_t>(pos) + 1;
  shard.queues = sim::parse_queue_lines(body, at, shard.bin_count, capacity,
                                        kQueue, context);
  if (std::string_view(body).substr(at) != "end\n") {
    fail(context, "missing end marker");
  }
  shard.crc = common::crc32(body);  // the CRC load_header verified
  return shard;
}

void save_manifest(const Manifest& manifest, const std::string& path) {
  std::ostringstream body;
  body << "round = " << manifest.round << '\n';
  body << "n = " << manifest.n << '\n';
  body << "workers = " << manifest.workers << '\n';
  body << "digest = " << manifest.digest << '\n';
  body << "seed = " << manifest.seed << '\n';
  body << "shard-crcs =";
  for (const std::uint32_t crc : manifest.shard_crcs) body << ' ' << crc;
  body << '\n';
  body << "coord-crc = " << manifest.coord_crc << '\n';
  body << "progress-crc = " << manifest.progress_crc << '\n';
  body << "end\n";
  io::sealed::commit_header(path, kManifestMagic, kManifestVersion, body.str(),
                            "dist manifest");
}

Manifest load_manifest(const std::string& path) {
  const std::string context = "dist manifest";
  const std::string body =
      io::sealed::load_header(path, kManifestMagic, kManifestVersion, context);
  std::istringstream in(body);
  const auto parse_crc = [&](std::istringstream& line, const char* what) {
    const std::uint64_t value = parse_u64(line, what, context);
    if (value > 0xFFFFFFFFu) fail(context, std::string(what) + " out of range");
    return static_cast<std::uint32_t>(value);
  };
  Manifest manifest;
  expect_key(in, "round", context);
  manifest.round = parse_u64(in, "round", context);
  expect_key(in, "n", context);
  manifest.n = parse_u64(in, "n", context);
  expect_key(in, "workers", context);
  const std::uint64_t workers = parse_u64(in, "workers", context);
  if (workers < 1 || workers > 0xFFFFu) {
    fail(context, "workers out of range");
  }
  manifest.workers = static_cast<std::uint32_t>(workers);
  expect_key(in, "digest", context);
  if (!(in >> manifest.digest)) {
    fail(context, "truncated/invalid field: digest");
  }
  expect_key(in, "seed", context);
  manifest.seed = parse_u64(in, "seed", context);
  expect_key(in, "shard-crcs", context);
  manifest.shard_crcs.resize(manifest.workers);
  for (auto& crc : manifest.shard_crcs) crc = parse_crc(in, "shard-crc");
  expect_key(in, "coord-crc", context);
  manifest.coord_crc = parse_crc(in, "coord-crc");
  expect_key(in, "progress-crc", context);
  manifest.progress_crc = parse_crc(in, "progress-crc");
  std::string tail;
  if (!(in >> tail) || tail != "end") fail(context, "missing end marker");
  return manifest;
}

std::uint32_t body_crc(const std::string& path) {
  const std::string file = io::sealed::read_file(path, "dist checkpoint");
  return common::crc32(std::string_view(file).substr(file.find('\n') + 1));
}

void check_committed(const std::string& path, std::uint32_t committed) {
  const std::uint32_t crc = body_crc(path);
  if (crc == committed) return;
  throw std::runtime_error("dist checkpoint: " + path + " has body CRC " +
                           std::to_string(crc) + ", the manifest committed " +
                           std::to_string(committed));
}

}  // namespace iba::dist
