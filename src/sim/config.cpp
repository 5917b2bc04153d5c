#include "sim/config.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace iba::sim {

double lambda_one_minus_2pow(std::uint32_t i) {
  return 1.0 - std::pow(2.0, -static_cast<double>(i));
}

std::uint64_t lambda_n_for(std::uint32_t n, std::uint32_t i) {
  const double exact = lambda_one_minus_2pow(i) * static_cast<double>(n);
  return static_cast<std::uint64_t>(std::llround(exact));
}

std::uint64_t suggested_burn_in(double lambda) {
  IBA_EXPECT(lambda >= 0.0 && lambda <= 1.0,
             "suggested_burn_in: lambda must lie in [0, 1]");
  const double slack = 1.0 - lambda;
  const double relaxation = slack > 0.0 ? 5.0 / slack : 2e5;
  return 2000 + static_cast<std::uint64_t>(std::min(relaxation, 2e5));
}

}  // namespace iba::sim
