// Time-series diagnostic for the simulation runner's burn-in.
//
// The paper measures "a stabilized system after a burn-in phase of
// suitable length"; windows_agree() is the runner's online test for
// when the pool series has stabilized.
#pragma once

#include <cstddef>
#include <vector>

namespace iba::stats {

/// Heuristic steady-state check: true when the means of the last two
/// `window`-sized windows agree within `rel_tol` (relative) — the runner's
/// cheap online criterion for ending the burn-in phase.
[[nodiscard]] bool windows_agree(const std::vector<double>& series,
                                 std::size_t window, double rel_tol) noexcept;

}  // namespace iba::stats
