// The CAPPED accept/serve rule over one range of bins, written once, and
// the chunk streams that feed it.
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
// Each (slice, chunk) stream lives in its own region of one buffer
// (StreamRegions), so a draw can append its choices straight into the
// streams: draw_slice() draws a slice's throws in L1-sized batches and
// appends each in-range choice to its chunk's stream. A range narrower
// than n keeps a random share of each batch, so there the batch is first
// compacted branch-free (eight lanes at a time on the AVX2 backend) to
// its in-range choices, in order, and only those are appended; the full
// range appends every choice. Regions sized for a uniform draw with 1/8
// to spare almost always fit; a stream that overflows its region is
// counted, not written, and the draw — a pure function of the engine
// state — is redrawn into regions widened to the measured counts. Every
// stream write, the draw's and the partition's, is one StreamAppender
// append, which fetches the stream's next line ahead of its store.
//
// core::Capped draws a uniform round's slices in parallel over the full
// range, each from the engine jumped to the slice's first throw
// (Xoshiro256Base::discard), or partitions a given choice list into
// exact regions; dist::Worker redraws the whole round as one slice,
// keeping its range's throws. Both then sweep. The bin table is
// range-local.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.hpp"
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
/// Look-ahead of a stream append's write prefetch, in entries: two cache
/// lines of 16-bit entries, so a stream's next line is in flight well
/// before its first store. A stream buffer holds this many entries past
/// its last region, so an in-region append prefetches inside it.
inline constexpr std::size_t kAppendAhead = 64;

// Read+write prefetch hint; a no-op where the builtin is unavailable.
inline void prefetch_rw(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 1);
#else
  (void)address;
#endif
}

constexpr std::uint32_t chunk_count(std::uint32_t bins) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(bins) + kChunkWidth - 1) >> kChunkBits);
}

/// One slice of a round's throws in visit order: throws [lo, hi), which
/// meet pool buckets [bucket_lo, bucket_hi).
struct ThrowSlice {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t bucket_lo = 0;
  std::size_t bucket_hi = 0;
};

/// The chunk streams of one round: stream (s, c) is slice s's stream in
/// chunk c, written into its own region of one buffer. Regions lie
/// chunk-major (chunk c's slice regions back to back), so a sweep of a
/// chunk reads one span with gaps. Per-stream arrays are indexed
/// s * row() + c, with rows padded to a cache line so slices writing
/// in parallel never share one.
class StreamRegions {
 public:
  void set_arena(Arena* arena) noexcept { data_.set_arena(arena); }

  /// Sets the slice count and the range's bin count; a change of either
  /// empties every region.
  void shape(std::size_t slices, std::uint32_t bins);

  /// Lays the regions out back to back, region (s, c) exactly
  /// need(s, c) entries long. need(s, c) may read stream (s, c)'s
  /// cursor.
  template <typename Need>
  void lay_out(const Need& need);
  /// Widens each region (s, c) to a uniform draw's expected entries plus
  /// 1/8: slices[s]'s throws spread over n bins (of which chunk c holds
  /// its width), plus one sentinel per bucket the slice meets.
  void widen_uniform(std::span<const ThrowSlice> slices, std::uint32_t n);

  /// Moves every cursor to its region's start.
  void rewind();
  /// True when every stream fit its region. Otherwise widens each region
  /// to its stream's count plus 1/8 and returns false: the streams are
  /// incomplete, and the round must be written again after rewind().
  bool fit();

  [[nodiscard]] std::size_t slices() const noexcept { return slices_; }
  [[nodiscard]] std::uint32_t bins() const noexcept { return bins_; }
  [[nodiscard]] std::uint32_t chunks() const noexcept { return chunks_; }
  [[nodiscard]] std::size_t row() const noexcept { return row_; }
  [[nodiscard]] std::uint16_t* data() noexcept { return data_.data(); }
  /// Stream starts, and the cursors: one past each stream's last entry.
  [[nodiscard]] const std::uint64_t* begins() const noexcept {
    return begin_.data();
  }
  [[nodiscard]] std::uint64_t* cursors() noexcept { return end_.data(); }
  [[nodiscard]] const std::uint64_t* limits() const noexcept {
    return limit_.data();
  }

 private:
  /// As lay_out, but a region never shrinks.
  template <typename Need>
  void widen(const Need& need) {
    lay_out([&](std::size_t s, std::uint32_t c) {
      const std::size_t i = s * row_ + c;
      return std::max<std::uint64_t>(limit_[i] - begin_[i], need(s, c));
    });
  }

  ArenaBuffer<std::uint16_t> data_;
  std::vector<std::uint64_t> begin_;
  std::vector<std::uint64_t> limit_;
  std::vector<std::uint64_t> end_;
  std::size_t slices_ = 0;
  std::uint32_t bins_ = 0;
  std::uint32_t chunks_ = 0;
  std::size_t row_ = 0;
};

template <typename Need>
void StreamRegions::lay_out(const Need& need) {
  std::uint64_t at = 0;
  for (std::uint32_t c = 0; c < chunks_; ++c) {
    for (std::size_t s = 0; s < slices_; ++s) {
      const std::size_t i = s * row_ + c;
      const std::uint64_t entries = need(s, c);
      begin_[i] = at;
      at += entries;
      limit_[i] = at;
    }
  }
  // The slack keeps both prefetch look-aheads inside the buffer.
  data_.resize(at + std::max(kPrefetchDist, kAppendAhead));
}

/// The one writer of a round's streams: slice `slice`'s appends into its
/// chunk streams. An append inside its stream's region prefetches the
/// entry kAppendAhead further on, then stores, so a stream's next cache
/// line is fetched before its first store misses on it (a round writes
/// megabytes of streams, one new line every 32 entries per stream). An
/// append past its region's end is counted, not written, and prefetches
/// nothing: its cursor may run past the buffer (see StreamRegions::fit).
class StreamAppender {
 public:
  StreamAppender(StreamRegions& regions, std::size_t slice) noexcept
      : out_(regions.data()),
        cursor_(regions.cursors() + slice * regions.row()),
        limit_(regions.limits() + slice * regions.row()),
        chunks_(regions.chunks()) {}

  /// Appends chunk offset `offset` to chunk `chunk`'s stream.
  void operator()(std::uint32_t chunk, std::uint16_t offset) const noexcept {
    const std::uint64_t at = cursor_[chunk]++;
    if (at < limit_[chunk]) [[likely]] {
      prefetch_rw(out_ + at + kAppendAhead);
      out_[at] = offset;
    }
  }

  /// Closes the slice's current pool bucket: a sentinel in every chunk.
  void close_bucket() const noexcept {
    for (std::uint32_t c = 0; c < chunks_; ++c) (*this)(c, kSentinel);
  }

 private:
  std::uint16_t* out_;
  std::uint64_t* cursor_;
  const std::uint64_t* limit_;
  std::uint32_t chunks_;
};

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

  // Slice s's stream in chunk c is part[stream_begin[i], stream_end[i])
  // with i = s * row + c (a StreamRegions' arrays); slices[s] names the
  // pool buckets the stream's sentinels close.
  const std::uint16_t* part = nullptr;
  const std::uint64_t* stream_begin = nullptr;
  const std::uint64_t* stream_end = nullptr;
  std::size_t row = 0;
  std::span<const ThrowSlice> slices;
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

/// Draws slice `slice` of a round from `engine`, which stands at throw
/// slice.lo: through `sampler`, or uniformly over [0, n) with
/// fill_bounded when it is null, in 4096-choice batches (both consume the
/// stream identically at any batch split). Each choice inside
/// [bin_lo, bin_lo + regions.bins()) is appended to its chunk's stream;
/// each bucket the slice meets (bucket_ends[b] is one past its last
/// throw) is closed with a sentinel in every chunk. Appends past a
/// region's end are counted, not written (see StreamRegions::fit).
/// Returns the number of choices kept (inside the range). The range must
/// lie inside [0, n).
std::uint64_t draw_slice(StreamRegions& regions, std::size_t slice,
                         const ThrowSlice& throws,
                         std::span<const std::uint64_t> bucket_ends,
                         Engine& engine, BinChoiceSampler* sampler,
                         std::uint32_t n, std::uint32_t bin_lo);

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
