// The measurement protocol of the paper's Section V, shared by the
// benches and the examples: the λ = 1 − 2^(−i) grid of Figures 4/5 and
// the fixed burn-in that precedes every measured window.
#pragma once

#include <cstdint>

namespace iba::sim {

/// λ = 1 − 2^(−i), the grid of the paper's Figures 4/5 (right plots).
[[nodiscard]] double lambda_one_minus_2pow(std::uint32_t i);

/// λn for λ = 1 − 2^(−i) rounded to the nearest integer (exact when
/// 2^i divides n, which holds for the paper's power-of-two n).
[[nodiscard]] std::uint64_t lambda_n_for(std::uint32_t n, std::uint32_t i);

/// Principled burn-in: the mean-field relaxation time of CAPPED is
/// Θ(1/(1−λ)) rounds (the pool deficit decays like e^(−(1−λ)t)), so a
/// burn-in of 5/(1−λ) + 2000 rounds reaches equilibrium within < 1%.
/// Capped at 200000 rounds as a safety valve near λ = 1.
[[nodiscard]] std::uint64_t suggested_burn_in(double lambda);

}  // namespace iba::sim
