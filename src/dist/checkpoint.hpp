// The dist shard file: one worker's bin range as a `queue = <load>
// <label>...` line per bin, front-first (sim::render_queue_lines, the
// codec of checkpoint bins), written by the worker on kMsgCheckpoint as
// `B.r<R>.shard<w>` of the checkpoint generation whose names, manifest
// and commit order sim/generation.hpp defines for both run modes.
#pragma once

#include <cstdint>
#include <string>

#include "queueing/bin_table.hpp"
#include "sim/generation.hpp"

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

/// bench/e2e/trace.cpp names the generation's coordinator file as dist::.
using sim::coord_path;

/// Atomically writes the shard file; returns the body's CRC-32 (which
/// the worker reports in its kMsgCheckpointAck, and the manifest
/// records). Throws std::runtime_error on IO failure, and
/// ContractViolation unless `queues` holds bin_count loads.
std::uint32_t save_shard(const ShardState& shard, const std::string& path);

/// Reads and validates a shard file, with its body CRC. Throws
/// std::runtime_error on IO errors, bad header, CRC mismatch, or
/// malformed fields.
[[nodiscard]] ShardState load_shard(const std::string& path);

}  // namespace iba::dist
