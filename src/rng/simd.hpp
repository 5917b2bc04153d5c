// Runtime dispatch for the vectorized RNG reduction paths, which the
// range draw's keep (core::draw_slice) follows too.
//
// The backend is resolved once per process: the IBA_SIMD environment
// variable ("scalar" | "avx2" | "auto", default auto) is consulted first,
// then the CPU is probed. Tests and benchmarks can pin a backend
// programmatically with set_simd_backend(); the override wins over both
// the environment and the probe until reset_simd_backend().
//
// Every backend produces the exact same output stream — dispatch is a
// pure speed choice and never a semantic one.
#pragma once

namespace iba::rng {

enum class SimdBackend : int {
  kScalar = 0,  ///< portable 4x-unrolled Lemire loop
  kAvx2 = 1,    ///< AVX2 block reduction (x86-64 with AVX2 only)
};

/// The backend fill_bounded() will use right now (override > env > probe).
[[nodiscard]] SimdBackend active_simd_backend() noexcept;

/// True when the host CPU (and compiler) can run the AVX2 path.
[[nodiscard]] bool avx2_supported() noexcept;

/// Pins the backend for this process (test/bench hook). Requesting
/// kAvx2 on a host without AVX2 keeps the scalar path.
void set_simd_backend(SimdBackend backend) noexcept;

/// Drops any set_simd_backend() override; env + CPU probe decide again.
void reset_simd_backend() noexcept;

[[nodiscard]] const char* simd_backend_name(SimdBackend backend) noexcept;

/// The pure resolution rule (exposed for tests): IBA_SIMD value
/// ("scalar" | "avx2" | anything else | nullptr) plus the probe result.
/// "avx2" on a host without AVX2 degrades to scalar, never fails.
[[nodiscard]] SimdBackend resolve_simd_backend(const char* env_value,
                                               bool avx2_ok) noexcept;

}  // namespace iba::rng
