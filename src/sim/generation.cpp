#include "sim/generation.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "io/sealed.hpp"

namespace iba::sim {

namespace {

constexpr std::string_view kMagic = "iba-dist-manifest";
constexpr std::uint32_t kVersion = 3;
constexpr const char* kContext = "checkpoint manifest";

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(std::string(kContext) + ": " + message);
}

/// Throws naming `path`, its body CRC (everything after the first line)
/// and `committed` unless the two are equal.
void check_committed(const std::string& path, std::uint32_t committed) {
  const std::string file = io::sealed::read_file(path, "checkpoint");
  const std::uint32_t crc =
      common::crc32(std::string_view(file).substr(file.find('\n') + 1));
  if (crc == committed) return;
  throw std::runtime_error("checkpoint: " + path + " has body CRC " +
                           std::to_string(crc) + ", the manifest committed " +
                           std::to_string(committed));
}

/// Removes round `round`'s coord, progress and record files under `base`.
void remove_generation(const std::string& base, std::uint64_t round) {
  for (const std::string& path : {coord_path(base, round),
                                  progress_path(base, round),
                                  record_path(base, round)}) {
    std::remove(path.c_str());
  }
}

/// The rounds the manifest at `path` commits and keeps; none when there is
/// no manifest, or none that loads (its files cannot be trusted to be its).
std::vector<std::uint64_t> named_rounds(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return {};
  try {
    const Manifest named = load_manifest(path);
    return {named.round, named.kept_round};
  } catch (const std::exception&) {
    return {};
  }
}

}  // namespace

bool same_base(const std::string& a, const std::string& b) {
  std::error_code ec;  // a base without a manifest is no resume point
  return std::filesystem::equivalent(manifest_path(a), manifest_path(b), ec);
}

void save_manifest(const Manifest& manifest, const std::string& path) {
  std::ostringstream body;
  body << "round = " << manifest.round << "\nn = " << manifest.n
       << "\nworkers = " << manifest.workers
       << "\ndigest = " << manifest.digest << "\nseed = " << manifest.seed
       << "\nshard-crcs =";
  for (const std::uint32_t crc : manifest.shard_crcs) body << ' ' << crc;
  body << "\ncoord-crc = " << manifest.coord_crc
       << "\nprogress-crc = " << manifest.progress_crc
       << "\nrecord-crc = " << manifest.record_crc
       << "\nkept-round = " << manifest.kept_round << "\nend\n";
  io::sealed::commit_header(path, kMagic, kVersion, body.str(), kContext);
}

Manifest load_manifest(const std::string& path) {
  std::istringstream in(
      io::sealed::load_header(path, kMagic, kVersion, kContext));
  const auto field = [&in](const char* key, std::uint64_t max) {
    return io::sealed::read_field(in, key, kContext, max);
  };
  constexpr std::uint64_t kAny = ~std::uint64_t{0};
  constexpr std::uint32_t kCrc = 0xFFFFFFFFu;
  Manifest manifest;
  manifest.round = field("round", kAny);
  manifest.n = field("n", kAny);
  manifest.workers = static_cast<std::uint32_t>(field("workers", 0xFFFFu));
  io::sealed::read_key(in, "digest", kContext);
  if (!(in >> manifest.digest)) fail("truncated/invalid field: digest");
  manifest.seed = field("seed", kAny);
  io::sealed::read_key(in, "shard-crcs", kContext);
  manifest.shard_crcs.resize(manifest.workers);
  for (auto& crc : manifest.shard_crcs) {
    crc = static_cast<std::uint32_t>(
        io::sealed::read_u64(in, "shard-crc", kContext, kCrc));
  }
  manifest.coord_crc = static_cast<std::uint32_t>(field("coord-crc", kCrc));
  manifest.progress_crc =
      static_cast<std::uint32_t>(field("progress-crc", kCrc));
  manifest.record_crc = static_cast<std::uint32_t>(field("record-crc", kCrc));
  // Saves follow a round, so a generation's round is at least 1: 0 means
  // none, and a kept generation is older than the committed one.
  manifest.kept_round =
      field("kept-round", manifest.round == 0 ? 0 : manifest.round - 1);
  std::string tail;
  if (!(in >> tail) || tail != "end") fail("missing end marker");
  return manifest;
}

Generation load_generation(const std::string& base, std::uint32_t workers) {
  const std::string manifest_file = manifest_path(base);
  Generation generation{.manifest = load_manifest(manifest_file)};
  const Manifest& manifest = generation.manifest;
  IBA_EXPECT(manifest.workers == workers,
             "resume: " + manifest_file + " was saved by " +
                 std::to_string(manifest.workers) + " workers, this run has " +
                 std::to_string(workers) + " (0: single-process)");
  const std::string coord = coord_path(base, manifest.round);
  check_committed(coord, manifest.coord_crc);
  check_committed(progress_path(base, manifest.round), manifest.progress_crc);
  if (manifest.record_crc != 0) {
    check_committed(record_path(base, manifest.round), manifest.record_crc);
  }
  generation.checkpoint = load_checkpoint_full(coord);
  if (generation.checkpoint.snapshot.round != manifest.round) {
    throw std::runtime_error(
        "checkpoint: " + coord + " stands at round " +
        std::to_string(generation.checkpoint.snapshot.round) + ", " +
        manifest_file + " committed round " + std::to_string(manifest.round));
  }
  return generation;
}

void Generations::resume(const std::string& resume_base,
                         const Manifest& resumed) {
  if (!same_base(resume_base, base_)) return;
  last_ = resumed.round;
  kept_ = resumed.kept_round;
}

void Generations::commit(Manifest manifest) {
  if (kept_ != 0) remove_generation(base_, kept_);
  // A run's first commit over another run's manifest (a forced fresh
  // run, or a resume saved under a new base) replaces that run: once
  // this manifest commits, nothing names the generations it committed.
  const std::vector<std::uint64_t> replaced =
      last_ == 0 ? named_rounds(manifest_path(base_))
                 : std::vector<std::uint64_t>{};
  manifest.kept_round = last_;
  // Commit point: only now does any reader see this generation.
  save_manifest(manifest, manifest_path(base_));
  for (const std::uint64_t round : replaced) {
    if (round != 0 && round != manifest.round) remove_generation(base_, round);
  }
  kept_ = last_;
  last_ = manifest.round;
}

}  // namespace iba::sim
