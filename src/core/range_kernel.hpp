// The CAPPED accept/serve rule over one range of bins, written once.
//
// A round's throws arrive as 16-bit offset streams. The range's bins are
// cut into 8192-bin chunks; each chunk holds one stream per throw slice,
// in slice order, listing the slice's throws into the chunk in visit
// order and closing every pool bucket the slice spans with a sentinel
// (an entry's bucket is implied by its segment). Per chunk,
// sweep_chunks() replays acceptance — a throw is accepted iff its bin
// has room under the round's bound at its turn, which realizes "each bin
// accepts the oldest min{c − ℓ, ν} of its requests" — then serves the
// chunk's bins while they are cache-hot, tallying the served balls'
// waits per value. Every delta is an exact integer (see WaitRecorder),
// and a tally folded in as weighted records equals the per-ball records,
// so merging SweepShards in any order equals one serial sweep bit for
// bit.
//
// core::Capped partitions a round into these streams and sweeps them per
// shard; dist::Worker writes one slice while redrawing the round and
// sweeps its whole range. The bin table is range-local.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "core/process.hpp"
#include "queueing/aged_pool.hpp"
#include "queueing/bin_table.hpp"

namespace iba::core {

/// A chunk's cursor and label slices stay L2-resident, and a chunk-local
/// offset fits in 16 bits with 0xFFFF left over as the bucket sentinel.
inline constexpr std::uint32_t kChunkBits = 13;
inline constexpr std::uint32_t kChunkWidth = 1u << kChunkBits;
inline constexpr std::uint16_t kSentinel = 0xFFFF;
/// Look-ahead of the acceptance replay's software prefetch, in entries:
/// a stream buffer must hold this many readable (unused) entries past
/// its last stream.
inline constexpr std::size_t kPrefetchDist = 24;

constexpr std::uint32_t chunk_count(std::uint32_t bins) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(bins) + kChunkWidth - 1) >> kChunkBits);
}

/// One caller's deltas from a sweep. Aligned so parallel shards never
/// share a cache line.
struct alignas(64) SweepShard {
  std::uint64_t accepted = 0;
  std::uint64_t max_load = 0;    ///< end of round, over the swept bins
  std::uint64_t empty_bins = 0;  ///< end of round, over the swept bins
  std::uint64_t busy_ns = 0;     ///< phase timing only
  std::uint64_t delete_ns = 0;   ///< phase timing only
  std::vector<std::uint64_t> rejected;  ///< per pool bucket
  std::vector<std::uint64_t> requeued;  ///< labels of drained balls
  /// This round's served balls: their count, wait sum and maximum wait
  /// are the round's deleted, wait_sum and wait_max.
  WaitRecorder waits;

  /// Zeroes every delta for a round over `buckets` pool buckets.
  void reset(std::size_t buckets);
};

/// One round's input to the kernel; pointers are borrowed.
struct RangeRound {
  queueing::BinTable* bins = nullptr;  ///< the range's bins
  std::uint64_t round = 0;             ///< a served ball waits round − label

  // Chunk c's first stream starts at part[chunk_begin[c]]; slice s's
  // stream in chunk c ends at part[stream_end[s * row + c]], where the
  // next slice's begins. Slice s spans pool buckets
  // [slice_buckets[2s], slice_buckets[2s + 1]).
  const std::uint16_t* part = nullptr;
  const std::uint64_t* chunk_begin = nullptr;
  const std::uint64_t* stream_end = nullptr;
  std::size_t row = 0;
  std::size_t slices = 1;
  const std::size_t* slice_buckets = nullptr;
  std::span<const queueing::AgedPool::Bucket> buckets;  ///< visit order

  /// Acceptance bound: caps[bin] if non-null, else `capacity`; either may
  /// lie below the table's storage width (a controller shrink).
  std::uint32_t capacity = 1;
  const std::uint32_t* caps = nullptr;

  const std::uint8_t* fault_flags = nullptr;  ///< null: no faults
  double failure_probability = 0.0;
  FailureMode failure_mode = FailureMode::kSkipService;
  DeletionDiscipline deletion = DeletionDiscipline::kFifo;
  /// Failure coins and uniform-deletion positions, drawn in bin order;
  /// may be null when neither applies.
  Engine* engine = nullptr;
  bool timing = false;  ///< fill SweepShard::busy_ns / delete_ns
};

/// Chunks [chunk_lo, chunk_hi): per chunk the acceptance replay, then
/// (with_delete) its delete walk.
void sweep_chunks(const RangeRound& r, SweepShard& acc, std::uint32_t chunk_lo,
                  std::uint32_t chunk_hi, bool with_delete);

/// The delete walk over bins [bin_lo, bin_hi): every non-empty bin that
/// is neither faulted nor failing serves one ball under r.deletion. Waits
/// below 64 are counted per value and folded into acc.waits once per
/// call, so the walk's per-ball cost is one increment; by Theorems 1–2
/// nearly every wait at the paper's λ is that short.
void delete_bins(const RangeRound& r, SweepShard& acc, std::uint32_t bin_lo,
                 std::uint32_t bin_hi);

}  // namespace iba::core
