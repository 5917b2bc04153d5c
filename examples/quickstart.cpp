// Quickstart: the smallest complete use of the library.
//
// Builds CAPPED(c = 2, λ = 0.9) on n = 4096 servers, runs it to steady
// state, and prints the pool size and waiting-time summary next to the
// paper's Theorem 2 guarantees.
//
//   $ ./quickstart
#include <chrono>
#include <cstdio>

#include "analysis/bounds.hpp"
#include "artifact/artifact.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"

int main() {
  using namespace iba;

  // 1. Describe the system: n servers, buffer size c, arrival rate λ.
  scenario::Scenario scn;
  scn.n = 4096;
  scn.capacity = 2;
  const double lambda = (4096 * 9 / 10) / 4096.0;  // λ ≈ 0.9, λ·n integral
  scn.arrival = scenario::ArrivalModel::constant(lambda);
  scn.burn_in = sim::suggested_burn_in(lambda);
  scn.rounds = 1000;
  scn.seed = 42;

  // 2. Run: burn-in to steady state, then measure 1000 rounds.
  const auto start = std::chrono::steady_clock::now();
  const artifact::ResultArtifact a = scenario::run_scenario(scn).artifact;
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const artifact::Observables result = artifact::observables(a);

  // 3. Compare with the paper's Theorem 2.
  const double pool_bound =
      analysis::pool_bound_thm2(scn.n, lambda, scn.capacity);
  const double wait_bound =
      analysis::wait_bound_thm2(scn.n, lambda, scn.capacity);

  std::printf("CAPPED(c=%u, lambda=%.2f) on n=%u bins, %llu rounds "
              "(after %llu burn-in)\n\n",
              scn.capacity, lambda, scn.n,
              static_cast<unsigned long long>(a.rounds),
              static_cast<unsigned long long>(a.burn_in));
  std::printf("pool size      : avg %.1f balls (%.4f per bin)\n",
              result.pool_mean, result.pool_over_n);
  std::printf("                 Theorem 2 bound: %.0f balls (w.h.p.)\n",
              pool_bound);
  std::printf("waiting time   : avg %.2f rounds, max %llu rounds\n",
              result.wait_mean,
              static_cast<unsigned long long>(result.wait_max));
  std::printf("                 Theorem 2 bound: %.1f rounds (w.h.p.)\n",
              wait_bound);
  std::printf("suggested c    : %u (sweet spot ~ sqrt(ln(1/(1-lambda))))\n",
              analysis::suggest_capacity(lambda));
  std::printf("throughput     : %.0f rounds/s, %.1f ns per request\n",
              static_cast<double>(a.burn_in + a.rounds) / seconds,
              seconds * 1e9 / static_cast<double>(a.generated_total));
  return 0;
}
