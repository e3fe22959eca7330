#pragma once
// Order statistics and metric-name rules shared by the benchmark binary and
// its self-test. Percentiles use the nearest-rank definition on integer
// per-mille levels, so "how many samples lie beyond p99" is exact integer
// arithmetic rather than a floating-point rank.

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank index (0-based) of the `permille`/1000 quantile of n sorted
/// samples: the smallest rank r with r >= n * permille / 1000, minus one.
[[nodiscard]] inline std::size_t nearest_rank_index(std::size_t n, unsigned permille) {
  const std::size_t rank = (n * permille + 999) / 1000;
  return rank == 0 ? 0 : rank - 1;
}

/// Samples strictly after the nearest-rank position of the quantile.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, unsigned permille) {
  return n - nearest_rank_index(n, permille) - 1;
}

/// Median of unsorted samples (mean of the two middle values for even n);
/// 0 for an empty set.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The tail percentile reported for a latency sample: the highest of p99.9,
/// p99 and p90 that still has at least `min_beyond` samples beyond it. With
/// fewer samples than any of them allows, the median is reported instead.
struct TailChoice {
  std::string label;           // "p99.9", "p99", "p90" or "p50"
  unsigned permille = 500;
  double value = 0.0;
  std::size_t beyond = 0;      // samples strictly beyond the chosen rank
  std::size_t samples = 0;
};

[[nodiscard]] inline TailChoice choose_tail(std::vector<double> values,
                                            std::size_t min_beyond = 10) {
  TailChoice out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  struct Level {
    const char* label;
    unsigned permille;
  };
  static constexpr Level kLevels[] = {{"p99.9", 999}, {"p99", 990}, {"p90", 900}, {"p50", 500}};
  for (const Level& level : kLevels) {
    if (samples_beyond(values.size(), level.permille) >= min_beyond ||
        level.permille == 500) {
      out.label = level.label;
      out.permille = level.permille;
      out.value = values[nearest_rank_index(values.size(), level.permille)];
      out.beyond = samples_beyond(values.size(), level.permille);
      return out;
    }
  }
  return out;
}

/// The tail reported for a latency sample in completion order: the sample is
/// cut into consecutive windows of `window` requests (a last partial window
/// is dropped), choose_tail picks each window's tail, and the median over
/// windows is reported. A burst from another tenant of the host lifts the
/// few windows it hits, not the reported value. With fewer samples than one
/// window, choose_tail over the whole sample is reported.
struct WindowedTail {
  TailChoice per_window;       // label, beyond and samples of one window
  double value = 0.0;          // median of the windows' tails
  std::size_t windows = 0;
};

[[nodiscard]] inline WindowedTail windowed_tail(const std::vector<double>& in_order,
                                                std::size_t window,
                                                std::size_t min_beyond = 10) {
  WindowedTail out;
  if (window == 0 || in_order.size() < window) {
    out.per_window = choose_tail(in_order, min_beyond);
    out.value = out.per_window.value;
    out.windows = 1;
    return out;
  }
  std::vector<double> tails;
  for (std::size_t start = 0; start + window <= in_order.size(); start += window) {
    out.per_window = choose_tail(
        std::vector<double>(in_order.begin() + static_cast<std::ptrdiff_t>(start),
                            in_order.begin() + static_cast<std::ptrdiff_t>(start + window)),
        min_beyond);
    tails.push_back(out.per_window.value);
  }
  out.value = median(tails);
  out.windows = tails.size();
  return out;
}

/// Completions per second of a phase that starts at time 0, from the
/// completion times in ascending order: the times are cut into consecutive
/// windows of `window` completions (a last partial window is dropped), a
/// window's rate is its size over the time since the previous window's last
/// completion, and the median over windows is reported. With fewer
/// completions than one window, the whole phase's rate is reported.
[[nodiscard]] inline double windowed_rate(const std::vector<double>& completed_s,
                                          std::size_t window) {
  if (completed_s.empty()) return 0.0;
  if (window == 0 || completed_s.size() < window) {
    return completed_s.back() > 0.0
               ? static_cast<double>(completed_s.size()) / completed_s.back()
               : 0.0;
  }
  std::vector<double> rates;
  double previous = 0.0;
  for (std::size_t end = window; end <= completed_s.size(); end += window) {
    const double span = completed_s[end - 1] - previous;
    previous = completed_s[end - 1];
    if (span > 0.0) rates.push_back(static_cast<double>(window) / span);
  }
  return median(rates);
}

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
