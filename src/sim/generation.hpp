// Checkpoint generations: the one save format of a CAPPED run, whoever
// holds its bins (docs/ROBUSTNESS.md). One save at round R under a base
// path B writes
//
//   B.r<R>.coord           checkpoint v3 (sim/checkpoint.hpp): the whole
//                          process, or a dist coordinator with n empty bins
//   B.r<R>.coord.progress  the scenario Progress sidecar
//   B.r<R>.coord.record    the recording sidecar, when the run records
//   B.r<R>.shard<w>        dist worker w's bin range (dist/checkpoint.hpp)
//
// and then commits B.manifest, which binds every file's body CRC. The
// manifest is committed last and names are round-stamped, so at every
// crash point B.manifest references a complete generation and a resume
// accepts no file it did not commit. Each commit collects the generation
// its predecessor kept: the committed generation and the one before it
// stay on disk.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"

namespace iba::sim {

/// The commit record of one generation (version 3).
struct Manifest {
  std::uint64_t round = 0;
  std::uint64_t n = 0;
  std::uint32_t workers = 0;  ///< 0: a single process; the bins are in coord
  std::string digest;         ///< Scenario::digest() of the run
  std::uint64_t seed = 0;
  std::vector<std::uint32_t> shard_crcs{};  ///< body CRC per worker
  std::uint32_t coord_crc = 0;
  std::uint32_t progress_crc = 0;
  std::uint32_t record_crc = 0;  ///< 0: no record
  std::uint64_t kept_round = 0;  ///< the older generation kept; 0: none
};

inline std::string coord_path(const std::string& base, std::uint64_t round) {
  return base + ".r" + std::to_string(round) + ".coord";
}
inline std::string progress_path(const std::string& base, std::uint64_t round) {
  return coord_path(base, round) + ".progress";
}
inline std::string record_path(const std::string& base, std::uint64_t round) {
  return coord_path(base, round) + ".record";
}
inline std::string shard_path(const std::string& base, std::uint64_t round,
                              std::uint32_t worker) {
  return base + ".r" + std::to_string(round) + ".shard" +
         std::to_string(worker);
}
inline std::string manifest_path(const std::string& base) {
  return base + ".manifest";
}

/// True when the bases `a` and `b` name one existing B.manifest file.
[[nodiscard]] bool same_base(const std::string& a, const std::string& b);

/// Atomically writes the manifest. load_manifest rejects other versions
/// by number and out-of-range fields by name.
void save_manifest(const Manifest& manifest, const std::string& path);
[[nodiscard]] Manifest load_manifest(const std::string& path);

/// A committed generation, checked and ready to resume.
struct Generation {
  Manifest manifest;
  Checkpoint checkpoint{};  ///< B.r<R>.coord
};

/// The one loader of both run modes: reads B.manifest (a missing one is
/// named, as for a bare checkpoint path), requires `workers` workers
/// (ContractViolation), checks the committed CRCs of coord, progress and
/// record, and loads coord, which must stand at the manifest's round.
/// The shards are the workers' to check.
[[nodiscard]] Generation load_generation(const std::string& base,
                                         std::uint32_t workers);

/// The save side: one run's commits under one base.
class Generations {
 public:
  explicit Generations(std::string base) : base_(std::move(base)) {}

  /// After resuming `resumed` from `resume_base`: under this base
  /// (same_base), the next commit collects the generation the resumed
  /// manifest kept.
  void resume(const std::string& resume_base, const Manifest& resumed);

  /// The generation the next commit collects; 0: none. Dist workers
  /// remove their own shards of it.
  [[nodiscard]] std::uint64_t collect_round() const noexcept { return kept_; }

  /// Removes collect_round()'s coord, progress and record files, then
  /// commits `manifest` as B.manifest, keeping the last committed round.
  /// The first commit of a run that did not resume under this base then
  /// removes those files of the rounds the replaced B.manifest named
  /// (other than the one just committed). The replaced run's dist shards
  /// stay: only their workers can reach them.
  void commit(Manifest manifest);

 private:
  std::string base_;
  std::uint64_t last_ = 0;  // the committed generation; 0: none
  std::uint64_t kept_ = 0;  // the one its manifest keeps; 0: none
};

}  // namespace iba::sim
