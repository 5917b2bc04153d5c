#include "core/range_kernel.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/assert.hpp"
#include "core/fault_hooks.hpp"
#include "rng/bounded.hpp"
#include "rng/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define IBA_KEEP_AVX2 1
#include <immintrin.h>
#endif

namespace iba::core {

namespace {

/// The delete walk tallies waits below this per value.
constexpr std::uint64_t kTallyWidth = 64;

/// Choices one draw batch holds: 16 KiB stays L1-resident between the
/// draw and the stream appends.
constexpr std::size_t kDrawBatch = 4096;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Compacts choices[from, size) in place to their offsets from bin_lo
/// that fall inside [0, bins), in order, written from choices[kept] on:
/// the write index never passes the read index. Returns the new kept
/// count. The keep is an add, not a branch, since a partial range keeps
/// a uniformly random share that no predictor can follow.
std::size_t keep_in_range(std::uint32_t* choices, std::size_t from,
                          std::size_t size, std::size_t kept,
                          std::uint32_t bin_lo, std::uint32_t bins) noexcept {
  for (std::size_t i = from; i < size; ++i) {
    const std::uint32_t bin = choices[i] - bin_lo;
    choices[kept] = bin;
    kept += static_cast<std::size_t>(bin < bins);
  }
  return kept;
}

#if defined(IBA_KEEP_AVX2)
/// Each 8-bit keep mask's set lanes, low first, one byte per lane: the
/// left-pack permutation of keep_in_range_avx2.
constexpr auto kPackLanes = [] {
  std::array<std::uint64_t, 256> lanes{};
  for (std::uint64_t mask = 0; mask < 256; ++mask) {
    std::uint64_t k = 0;
    for (std::uint64_t lane = 0; lane < 8; ++lane) {
      if ((mask >> lane & 1) != 0) lanes[mask] |= lane << (8 * k++);
    }
  }
  return lanes;
}();

/// keep_in_range over all of choices[0, size), eight lanes at a time:
/// each block is rebased, tested (bin ≤ bins − 1, unsigned), left-packed
/// by a permutation and stored whole at the write index, which then
/// advances by the block's kept count. A block is loaded before any
/// store can reach it, so the in-place pack is safe.
__attribute__((target("avx2,popcnt"))) std::size_t keep_in_range_avx2(
    std::uint32_t* choices, std::size_t size, std::uint32_t bin_lo,
    std::uint32_t bins) noexcept {
  const __m256i lo = _mm256_set1_epi32(static_cast<int>(bin_lo));
  const __m256i last = _mm256_set1_epi32(static_cast<int>(bins - 1));
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const __m256i bin = _mm256_sub_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(choices + i)),
        lo);
    const __m256i in = _mm256_cmpeq_epi32(_mm256_min_epu32(bin, last), bin);
    const auto mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(in)));
    const __m256i lanes = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(kPackLanes[mask])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(choices + kept),
                        _mm256_permutevar8x32_epi32(bin, lanes));
    kept += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  return keep_in_range(choices, i, size, kept, bin_lo, bins);
}
#endif

/// keep_in_range over choices[0, size), on the AVX2 path when `avx2`
/// (the rng SIMD backend, so IBA_SIMD=scalar pins the scalar keep too).
/// Both paths keep the same choices in the same order.
std::size_t keep_batch(std::uint32_t* choices, std::size_t size,
                       std::uint32_t bin_lo, std::uint32_t bins,
                       bool avx2) noexcept {
#if defined(IBA_KEEP_AVX2)
  if (avx2) return keep_in_range_avx2(choices, size, bin_lo, bins);
#else
  (void)avx2;
#endif
  return keep_in_range(choices, 0, size, 0, bin_lo, bins);
}

}  // namespace

void StreamRegions::shape(std::size_t slices, std::uint32_t bins) {
  if (slices == slices_ && bins == bins_) return;
  slices_ = slices;
  bins_ = bins;
  chunks_ = chunk_count(bins);
  // Rows padded to a whole cache line of cursors.
  constexpr std::size_t kLine = 64 / sizeof(std::uint64_t);
  row_ = (static_cast<std::size_t>(chunks_) + kLine - 1) / kLine * kLine;
  begin_.assign(slices * row_, 0);
  limit_.assign(slices * row_, 0);
  end_.assign(slices * row_, 0);
}

void StreamRegions::widen_uniform(std::span<const ThrowSlice> slices,
                                  std::uint32_t n) {
  IBA_ASSERT(slices.size() == slices_);
  widen([&](std::size_t s, std::uint32_t c) {
    const std::uint64_t width =
        std::min<std::uint64_t>(kChunkWidth, bins_ - (c << kChunkBits));
    const ThrowSlice& slice = slices[s];
    const std::uint64_t expected = (slice.hi - slice.lo) * width / n +
                                   (slice.bucket_hi - slice.bucket_lo);
    return expected + expected / 8;
  });
}

void StreamRegions::rewind() { end_ = begin_; }

bool StreamRegions::fit() {
  bool fits = true;
  for (std::size_t i = 0; i < end_.size(); ++i) fits &= end_[i] <= limit_[i];
  if (!fits) {
    widen([&](std::size_t s, std::uint32_t c) {
      const std::size_t i = s * row_ + c;
      const std::uint64_t entries = end_[i] - begin_[i];
      return entries + entries / 8;
    });
  }
  return fits;
}

std::uint64_t draw_slice(StreamRegions& regions, std::size_t slice,
                         const ThrowSlice& throws,
                         std::span<const std::uint64_t> bucket_ends,
                         Engine& engine, BinChoiceSampler* sampler,
                         std::uint32_t n, std::uint32_t bin_lo) {
  const std::uint32_t bins = regions.bins();
  IBA_ASSERT(bins <= n && bin_lo <= n - bins);
  const StreamAppender append(regions, slice);
  const bool avx2 = rng::active_simd_backend() == rng::SimdBackend::kAvx2;
  std::uint32_t choices[kDrawBatch] = {};
  std::uint64_t idx = throws.lo;
  std::uint64_t kept = 0;
  for (std::size_t b = throws.bucket_lo; b < throws.bucket_hi; ++b) {
    const std::uint64_t b_end = std::min(bucket_ends[b], throws.hi);
    while (idx < b_end) {
      const std::span<std::uint32_t> batch(
          choices, static_cast<std::size_t>(
                       std::min<std::uint64_t>(b_end - idx, kDrawBatch)));
      if (sampler != nullptr) {
        sampler->fill(engine, batch);
      } else {
        rng::fill_bounded(engine, batch, n);
      }
      idx += batch.size();
      if (bins == n) {
        // The full range (bin_lo is 0): the test never fires, so its
        // branch always predicts, and every choice is kept.
        for (const std::uint32_t choice : batch) {
          const std::uint32_t bin = choice - bin_lo;
          if (bin >= bins) continue;  // outside the range
          append(bin >> kChunkBits,
                 static_cast<std::uint16_t>(bin & (kChunkWidth - 1)));
        }
        kept += batch.size();
        continue;
      }
      // A narrower range: compact the batch to its rebased in-range
      // choices first, then append them in the same order with no test.
      const std::size_t in_range =
          keep_batch(choices, batch.size(), bin_lo, bins, avx2);
      for (std::size_t i = 0; i < in_range; ++i) {
        append(choices[i] >> kChunkBits,
               static_cast<std::uint16_t>(choices[i] & (kChunkWidth - 1)));
      }
      kept += in_range;
    }
    append.close_bucket();
  }
  IBA_ASSERT(idx == throws.hi);
  return kept;
}

void SweepShard::reset(std::size_t buckets) {
  accepted = max_load = empty_bins = busy_ns = delete_ns = 0;
  rejected.assign(buckets, 0);
  requeued.clear();
  waits.reset();
}

void sweep_chunks(const RangeRound& r, SweepShard& acc, std::uint32_t chunk_lo,
                  std::uint32_t chunk_hi, bool with_delete) {
  const bool timing = r.timing;
  std::chrono::steady_clock::time_point t_busy;
  if (timing) t_busy = std::chrono::steady_clock::now();

  queueing::BinTable& table = *r.bins;
  const std::uint32_t n = table.bins();
  const std::size_t slices = r.slices.size();
  const ThrowSlice* const slice_of = r.slices.data();
  const std::size_t row = r.row;
  const std::size_t n_buckets = r.buckets.size();
  const queueing::AgedPool::Bucket* const buckets = r.buckets.data();
  const std::uint64_t* const stream_begin = r.stream_begin;
  const std::uint64_t* const stream_end = r.stream_end;
  // Slot arithmetic uses the storage width, which a controller shrink
  // leaves wider than the acceptance bound.
  const std::uint32_t cap = r.capacity;
  const std::uint32_t storage = table.capacity();
  const std::uint32_t* const caps = r.caps;  // per-bin bounds, if any
  std::uint32_t* const hs_arr = table.packed_mut();
  std::uint64_t* const lb = table.labels_mut();
  const std::uint16_t* const part = r.part;
  std::uint64_t* const rejected = acc.rejected.data();
  constexpr std::uint32_t kSizeMask = queueing::BinTable::kSizeMask;
  constexpr std::uint32_t kHeadShift = queueing::BinTable::kHeadShift;
  std::uint64_t accepted = 0;
  for (std::uint32_t c = chunk_lo; c < chunk_hi; ++c) {
    const std::uint32_t bin_lo = c << kChunkBits;
    const std::uint32_t bin_hi = std::min(n, bin_lo + kChunkWidth);

    // Acceptance replay in visit order, one slice stream after another,
    // within this chunk's cache-resident slice of the bin state.
    for (std::size_t s = 0; s < slices; ++s) {
      std::size_t p = stream_begin[s * row + c];
      const std::size_t end = stream_end[s * row + c];
      std::size_t b = slice_of[s].bucket_lo;
      std::uint64_t label = b < n_buckets ? buckets[b].label : 0;
      std::uint64_t rej = 0;
      for (; p < end; ++p) {
        const std::uint32_t v = part[p];
        // Prefetch the cursor word and label line kPrefetchDist entries
        // ahead. Sentinels and slack read garbage; the mask and clamp keep
        // the hint inside the chunk.
        {
          const std::uint32_t ahead =
              part[p + kPrefetchDist] & (kChunkWidth - 1);
          const std::uint32_t pf_bin = std::min(bin_hi - 1, bin_lo + ahead);
          prefetch_rw(hs_arr + pf_bin);
          prefetch_rw(lb + static_cast<std::size_t>(pf_bin) * storage);
        }
        if (v == kSentinel) [[unlikely]] {
          // Bucket b has no further throws in this (chunk, slice).
          rejected[b] += rej;
          rej = 0;
          ++b;
          if (b < n_buckets) label = buckets[b].label;
          continue;
        }
        const std::uint32_t bin = bin_lo + v;
        const std::uint32_t hs = hs_arr[bin];
        const std::uint32_t load = hs & kSizeMask;
        const std::uint32_t cap_b = caps != nullptr ? caps[bin] : cap;
        if (load < cap_b) {
          std::uint32_t slot = (hs >> kHeadShift) + load;
          if (slot >= storage) slot -= storage;
          lb[static_cast<std::size_t>(bin) * storage + slot] = label;
          hs_arr[bin] = hs + 1;
          ++accepted;
        } else {
          ++rej;
        }
      }
      IBA_ASSERT(b == slice_of[s].bucket_hi && rej == 0);
    }

    if (with_delete) {
      std::chrono::steady_clock::time_point t_del;
      if (timing) t_del = std::chrono::steady_clock::now();
      delete_bins(r, acc, bin_lo, bin_hi);
      if (timing) acc.delete_ns += elapsed_ns(t_del);
    }
  }
  acc.accepted += accepted;
  if (timing) acc.busy_ns += elapsed_ns(t_busy);
}

// Waits are tallied per value and folded into the caller's recorder at
// the end of the call: the integer wait accumulator is order-independent
// and a weighted record equals that many single ones, so this matches
// the scalar path's per-ball stream bit for bit.
void delete_bins(const RangeRound& r, SweepShard& acc, std::uint32_t bin_lo,
                 std::uint32_t bin_hi) {
  queueing::BinTable& table = *r.bins;
  const std::uint32_t storage = table.capacity();
  const std::uint8_t* const fault_flags = r.fault_flags;
  const bool failures = r.failure_probability > 0.0;
  const double p_fail = r.failure_probability;
  const bool crash = r.failure_mode == FailureMode::kCrashRequeue;
  const DeletionDiscipline discipline = r.deletion;
  const std::uint64_t round = r.round;
  std::uint32_t* const hs_arr = table.packed_mut();
  std::uint64_t* const lb = table.labels_mut();
  constexpr std::uint32_t kSizeMask = queueing::BinTable::kSizeMask;
  constexpr std::uint32_t kHeadShift = queueing::BinTable::kHeadShift;
  WaitRecorder& waits = acc.waits;
  std::uint64_t max_load = acc.max_load;
  std::uint64_t empty_bins = acc.empty_bins;
  // Served balls per wait below kTallyWidth; longer waits are recorded
  // one by one. A call serves at most one ball per bin, so 32 bits hold
  // any count.
  std::uint32_t tally[kTallyWidth] = {};
  const auto serve = [&](std::uint64_t wait) {
    if (wait < kTallyWidth) [[likely]] {
      ++tally[wait];
    } else {
      waits.record(wait);
    }
  };
  const auto drain = [&](std::uint32_t bin) {
    table.drain_bulk(
        bin, [&](std::uint64_t label) { acc.requeued.push_back(label); });
    ++empty_bins;
  };
  if (!failures && fault_flags == nullptr &&
      discipline != DeletionDiscipline::kUniform) {
    // Failure-free FIFO/LIFO: no engine draws, lean raw-array loop.
    const bool lifo = discipline == DeletionDiscipline::kLifo;
    for (std::uint32_t bin = bin_lo; bin < bin_hi; ++bin) {
      const std::uint32_t hs = hs_arr[bin];
      const std::uint32_t load = hs & kSizeMask;
      if (load == 0) {
        ++empty_bins;
        continue;
      }
      const std::size_t base = static_cast<std::size_t>(bin) * storage;
      const std::uint32_t head = hs >> kHeadShift;
      std::uint64_t served;
      if (lifo) {
        std::uint32_t slot = head + load - 1;
        if (slot >= storage) slot -= storage;
        served = lb[base + slot];
        hs_arr[bin] = hs - 1;  // head unchanged, size - 1
      } else {
        served = lb[base + head];
        const std::uint32_t next = head + 1 == storage ? 0 : head + 1;
        hs_arr[bin] = (next << kHeadShift) | (load - 1);
      }
      serve(round - served);
      empty_bins += static_cast<std::uint64_t>(load == 1);
      if (load - 1 > max_load) max_load = load - 1;
    }
  } else {
    // Faults, failures and/or uniform service: per-bin coin/position
    // draws in bin order, exactly the scalar path's engine consumption.
    IBA_ASSERT(r.engine != nullptr ||
               (!failures && discipline != DeletionDiscipline::kUniform));
    for (std::uint32_t bin = bin_lo; bin < bin_hi; ++bin) {
      const std::uint32_t load = hs_arr[bin] & kSizeMask;
      if (load == 0) {
        ++empty_bins;
        continue;
      }
      if (fault_flags != nullptr &&
          (fault_flags[bin] & FaultFlags::kNoServe) != 0) {
        if ((fault_flags[bin] & FaultFlags::kDrain) != 0) {
          drain(bin);
        } else if (load > max_load) {
          max_load = load;
        }
        continue;  // faulted bins draw no failure coin (see delete_scalar)
      }
      if (failures && rng::uniform01(*r.engine) < p_fail) {
        if (crash) {
          drain(bin);
        } else if (load > max_load) {
          max_load = load;
        }
        continue;
      }
      std::uint64_t served;
      switch (discipline) {
        case DeletionDiscipline::kLifo:
          served = table.remove_at(bin, load - 1);
          break;
        case DeletionDiscipline::kUniform:
          served = table.remove_at(bin, rng::bounded32(*r.engine, load));
          break;
        case DeletionDiscipline::kFifo:
        default:
          served = table.remove_at(bin, 0);
          break;
      }
      serve(round - served);
      empty_bins += static_cast<std::uint64_t>(load == 1);
      if (load - 1 > max_load) max_load = load - 1;
    }
  }
  for (std::uint64_t wait = 0; wait < kTallyWidth; ++wait) {
    waits.record(wait, tally[wait]);
  }
  acc.max_load = max_load;
  acc.empty_bins = empty_bins;
}

}  // namespace iba::core
