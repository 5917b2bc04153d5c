// Bit-exactness battery for the vectorized fill_bounded: the AVX2 path
// must produce the exact scalar stream — values AND engine position —
// for every length, range, and rejection pattern, and the runtime
// dispatch must degrade to scalar when asked (env/flag) or when the CPU
// cannot run AVX2.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rng/bounded.hpp"
#include "rng/simd.hpp"
#include "rng/xoshiro256.hpp"
#include "scripted_engine.hpp"

namespace {

using iba::rng::SimdBackend;
using iba::rng::Xoshiro256pp;
using iba::test::ScriptedEngine;

/// Pins a backend for one test and always restores auto-resolution.
class BackendGuard {
 public:
  explicit BackendGuard(SimdBackend backend) {
    iba::rng::set_simd_backend(backend);
  }
  ~BackendGuard() { iba::rng::reset_simd_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

constexpr std::uint32_t kRanges[] = {
    1u,           2u,          3u,
    7u,           97u,         1u << 16,
    (1u << 16) + 1u,           2147483647u /* 2^31 - 1 */,
    3221225473u /* 0.75·2^32 */, 4294967291u /* largest prime < 2^32 */,
    4294967295u /* 2^32 - 1 */};

TEST(SimdDispatch, ResolutionRule) {
  using iba::rng::resolve_simd_backend;
  EXPECT_EQ(resolve_simd_backend("scalar", true), SimdBackend::kScalar);
  EXPECT_EQ(resolve_simd_backend("scalar", false), SimdBackend::kScalar);
  EXPECT_EQ(resolve_simd_backend("avx2", true), SimdBackend::kAvx2);
  EXPECT_EQ(resolve_simd_backend("avx2", false), SimdBackend::kScalar);
  EXPECT_EQ(resolve_simd_backend(nullptr, true), SimdBackend::kAvx2);
  EXPECT_EQ(resolve_simd_backend(nullptr, false), SimdBackend::kScalar);
  EXPECT_EQ(resolve_simd_backend("auto", true), SimdBackend::kAvx2);
  EXPECT_EQ(resolve_simd_backend("garbage", false), SimdBackend::kScalar);
}

TEST(SimdDispatch, BackendNamesAndOverride) {
  EXPECT_STREQ(iba::rng::simd_backend_name(SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(iba::rng::simd_backend_name(SimdBackend::kAvx2), "avx2");
  {
    BackendGuard guard(SimdBackend::kScalar);
    EXPECT_EQ(iba::rng::active_simd_backend(), SimdBackend::kScalar);
  }
  // After reset the backend is env/probe resolved again — never an
  // unsupported one.
  if (!iba::rng::avx2_supported()) {
    EXPECT_EQ(iba::rng::active_simd_backend(), SimdBackend::kScalar);
  }
}

TEST(SimdDispatch, ForcingAvx2WithoutSupportDegradesToScalar) {
  if (iba::rng::avx2_supported()) {
    GTEST_SKIP() << "host has AVX2; degrade rule covered by ResolutionRule";
  }
  BackendGuard guard(SimdBackend::kAvx2);
  EXPECT_EQ(iba::rng::active_simd_backend(), SimdBackend::kScalar);
}

// Lengths 0..67 cross every boundary the AVX2 path has: below the
// dispatch threshold, exactly one 8-wide block, partial batches, and
// every tail residue mod 8.
TEST(SimdFillBounded, MatchesScalarStreamAllLengthsAllRanges) {
  if (!iba::rng::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  for (const std::uint32_t range : kRanges) {
    for (std::size_t length = 0; length <= 67; ++length) {
      Xoshiro256pp simd_engine(1234 + length), scalar_engine(1234 + length);
      std::vector<std::uint32_t> simd_out(length, 0xA5A5A5A5u);
      std::vector<std::uint32_t> scalar_out(length, 0x5A5A5A5Au);
      {
        BackendGuard guard(SimdBackend::kAvx2);
        iba::rng::fill_bounded(simd_engine, simd_out, range);
      }
      iba::rng::fill_bounded_scalar(scalar_engine, scalar_out, range);
      ASSERT_EQ(simd_out, scalar_out)
          << "range " << range << " length " << length;
      // Stream position must match too: the next word agrees.
      ASSERT_EQ(simd_engine(), scalar_engine())
          << "range " << range << " length " << length;
    }
  }
}

TEST(SimdFillBounded, LargeFillMatchesSequentialBounded32) {
  if (!iba::rng::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  constexpr std::uint32_t kRange = 999983;  // prime, odd threshold
  constexpr std::size_t kLength = 100003;   // > many 512-word batches, odd
  Xoshiro256pp simd_engine(77), sequential(77);
  std::vector<std::uint32_t> out(kLength);
  {
    BackendGuard guard(SimdBackend::kAvx2);
    iba::rng::fill_bounded(simd_engine, out, kRange);
  }
  for (std::size_t i = 0; i < kLength; ++i) {
    ASSERT_EQ(out[i], iba::rng::bounded32(sequential, kRange)) << i;
  }
  EXPECT_EQ(simd_engine(), sequential());
}

// Forces the rejection-replay path. A zero word makes low64 = 0 <
// threshold for every non-power-of-two range, so the scalar algorithm
// redraws — the SIMD path must consume the identical extra words.
TEST(SimdFillBounded, RejectionReplayMatchesScalar) {
  if (!iba::rng::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  constexpr std::uint32_t kRange = 4294967291u;  // threshold = 25
  const std::vector<std::vector<std::uint64_t>> scripts = {
      {0},                         // reject at the very first draw
      {5, 0},                      // reject mid-first-block
      {0, 0, 0},                   // consecutive rejections
      {9, 9, 9, 9, 9, 9, 9, 0},    // reject in lane 8 of the first block
      std::vector<std::uint64_t>(17, 0),  // spans three 8-wide blocks
  };
  for (std::size_t which = 0; which < scripts.size(); ++which) {
    for (const std::size_t length : {8u, 9u, 24u, 65u}) {
      ScriptedEngine simd_engine(scripts[which], 314);
      ScriptedEngine scalar_engine(scripts[which], 314);
      std::vector<std::uint32_t> simd_out(length), scalar_out(length);
      {
        BackendGuard guard(SimdBackend::kAvx2);
        iba::rng::fill_bounded(simd_engine, simd_out, kRange);
      }
      iba::rng::fill_bounded_scalar(scalar_engine, scalar_out, kRange);
      ASSERT_EQ(simd_out, scalar_out) << "script " << which << " length "
                                      << length;
      ASSERT_EQ(simd_engine.words_drawn(), scalar_engine.words_drawn())
          << "script " << which << " length " << length;
      // Rejections really happened: more words than outputs.
      EXPECT_GT(simd_engine.words_drawn(), length);
    }
  }
}

// A rejection word placed deep inside a batch exercises the replay of a
// long buffered suffix (reduce stops at the tripped block; everything
// after is replayed scalar from the buffer).
TEST(SimdFillBounded, RejectionDeepInBatchReplaysBufferedSuffix) {
  if (!iba::rng::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  constexpr std::uint32_t kRange = 3221225473u;
  for (const std::size_t reject_at : {40u, 511u, 512u, 700u}) {
    std::vector<std::uint64_t> script(reject_at + 1, 123456789ULL);
    script[reject_at] = 0;
    ScriptedEngine simd_engine(script, 2718);
    ScriptedEngine scalar_engine(script, 2718);
    constexpr std::size_t kLength = 1000;
    std::vector<std::uint32_t> simd_out(kLength), scalar_out(kLength);
    {
      BackendGuard guard(SimdBackend::kAvx2);
      iba::rng::fill_bounded(simd_engine, simd_out, kRange);
    }
    iba::rng::fill_bounded_scalar(scalar_engine, scalar_out, kRange);
    ASSERT_EQ(simd_out, scalar_out) << "reject_at " << reject_at;
    ASSERT_EQ(simd_engine.words_drawn(), scalar_engine.words_drawn());
  }
}

// The dispatcher itself (not the forced paths): whatever backend the
// environment resolved, fill_bounded must equal the scalar reference.
TEST(SimdFillBounded, DispatchedFillAlwaysMatchesScalarReference) {
  for (const std::uint32_t range : {7u, 4294967291u}) {
    for (const std::size_t length : {0u, 13u, 64u, 1000u}) {
      Xoshiro256pp dispatched(99), reference(99);
      std::vector<std::uint32_t> a(length), b(length);
      iba::rng::fill_bounded(dispatched, a, range);
      iba::rng::fill_bounded_scalar(reference, b, range);
      ASSERT_EQ(a, b) << "range " << range << " length " << length;
      ASSERT_EQ(dispatched(), reference());
    }
  }
}

}  // namespace
