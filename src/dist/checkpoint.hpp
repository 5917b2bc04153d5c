// Distributed checkpoint artifacts (docs/DISTRIBUTED.md):
//
//  * shard file  — one worker's bin range: a `queue = <load> <label>...`
//    line per bin, front-first (sim::render_queue_lines, the codec of
//    checkpoint bins), written by the worker on kMsgCheckpoint;
//  * coordinator file — the coordinator's own state, stored as a
//    standard checkpoint-v3 CappedSnapshot whose bins are n zero loads
//    (bins live in the shard files), via sim::save_checkpoint;
//  * manifest — the commit record binding one generation: round,
//    geometry, and the body CRC of every other file of the generation.
//    Written (atomically) LAST, so at every crash point the manifest on
//    disk references only complete, durable files, and a resume accepts
//    no file the generation did not commit.
//
// Generation layout under a base path B at round R with W workers:
//
//   B.r<R>.coord           coordinator snapshot (engine, pool, deferred,
//                          waits, controller, totals)
//   B.r<R>.coord.progress  the scenario Progress sidecar, written by the
//                          runner before the manifest commit
//   B.r<R>.shard<w>        worker w's queues, w in [0, W)
//   B.manifest             points at R; replaced atomically per generation
//
// Round-stamped filenames mean a new generation never overwrites the
// committed one; obsolete generations are garbage-collected one
// checkpoint later (coordinator-side for its own files, via the next
// kMsgCheckpoint's gc_path for shards), so a crash mid-save always
// leaves the previous generation fully intact.
//
// All files use the header envelope of io/sealed.hpp (`<magic>
// <version> <crc32> <bytes>` header + body + `end`) and are committed
// durably by io::sealed::commit: tmp + fsync + rename + directory fsync,
// so a committed manifest never points at a lost directory entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "queueing/bin_table.hpp"

namespace iba::dist {

/// One worker's persisted bin range.
struct ShardState {
  std::uint64_t round = 0;     ///< last completed round
  std::uint64_t bin_lo = 0;    ///< first global bin of the range
  std::uint64_t bin_count = 0;
  std::uint32_t capacity = 1;  ///< storage capacity at save time
  /// bin_count loads, one per local bin; queues front-first.
  queueing::BinQueues queues;
  /// The body's CRC-32 as the file's header records it: filled by
  /// load_shard (save_shard returns it instead).
  std::uint32_t crc = 0;
};

/// The commit record of one checkpoint generation.
struct Manifest {
  std::uint64_t round = 0;
  std::uint64_t n = 0;
  std::uint32_t workers = 0;
  std::string digest;      ///< Scenario::digest() of the run
  std::uint64_t seed = 0;
  std::vector<std::uint32_t> shard_crcs;  ///< body CRC per worker
  std::uint32_t coord_crc = 0;     ///< body CRC of B.r<R>.coord
  std::uint32_t progress_crc = 0;  ///< body CRC of B.r<R>.coord.progress
};

/// Derived generation filenames (see the header comment).
[[nodiscard]] std::string shard_path(const std::string& base,
                                     std::uint64_t round,
                                     std::uint32_t worker);
[[nodiscard]] std::string coord_path(const std::string& base,
                                     std::uint64_t round);
[[nodiscard]] std::string progress_path(const std::string& base,
                                        std::uint64_t round);
[[nodiscard]] std::string manifest_path(const std::string& base);

/// Atomically writes the shard file; returns the body's CRC-32 (which
/// the worker reports in its kMsgCheckpointAck, and the manifest
/// records). Throws std::runtime_error on IO failure, and
/// ContractViolation unless `queues` holds bin_count loads.
std::uint32_t save_shard(const ShardState& shard, const std::string& path);

/// Reads and validates a shard file, with its body CRC. Throws
/// std::runtime_error on IO errors, bad header, CRC mismatch, or
/// malformed fields.
[[nodiscard]] ShardState load_shard(const std::string& path);

/// Atomically writes the manifest — the generation's commit point.
void save_manifest(const Manifest& manifest, const std::string& path);

/// Reads and validates a manifest (version 2; version 1 is rejected).
[[nodiscard]] Manifest load_manifest(const std::string& path);

/// The CRC-32 of everything after the header line of the file at `path`
/// (the whole file when it has none): a sealed file's body CRC.
[[nodiscard]] std::uint32_t body_crc(const std::string& path);

/// Throws std::runtime_error naming `path`, its body CRC and `committed`
/// unless the two are equal.
void check_committed(const std::string& path, std::uint32_t committed);

}  // namespace iba::dist
