#include "stats/autocorrelation.hpp"

#include <algorithm>
#include <cmath>

namespace iba::stats {

namespace {

double mean_of(const std::vector<double>& v, std::size_t from,
               std::size_t to) noexcept {
  double s = 0.0;
  for (std::size_t i = from; i < to; ++i) s += v[i];
  return to > from ? s / static_cast<double>(to - from) : 0.0;
}

}  // namespace

bool windows_agree(const std::vector<double>& series, std::size_t window,
                   double rel_tol) noexcept {
  if (window == 0 || series.size() < 2 * window) return false;
  const std::size_t n = series.size();
  const double recent = mean_of(series, n - window, n);
  const double previous = mean_of(series, n - 2 * window, n - window);
  const double scale =
      std::max({std::abs(recent), std::abs(previous), 1e-12});
  return std::abs(recent - previous) / scale <= rel_tol;
}

}  // namespace iba::stats
