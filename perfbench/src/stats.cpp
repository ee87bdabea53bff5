#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double SupportedQuantile(size_t n, double wanted) {
  if (n <= kTailSamples) return 0.0;
  double supported = 1.0 - static_cast<double>(kTailSamples) /
                               static_cast<double>(n);
  return std::min(wanted, supported);
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

Tail TailOf(std::vector<double>& samples, double wanted) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.samples = samples.size();
  t.quantile = SupportedQuantile(samples.size(), wanted);
  if (t.quantile == 0.0) t.quantile = 0.5;
  t.value = NearestRank(samples, t.quantile);
  return t;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method="exclusive": m = n + 1 and, for i in
  // 1..3, j = clamp(i*m/4, 1, n-1) and delta = i*m - 4j, which may fall
  // outside [0, 4] near the ends: Python then extrapolates, and so do we.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

std::vector<WindowSummary> SummariseWindows(const std::vector<Sample>& samples,
                                            uint64_t begin_ns, uint64_t end_ns,
                                            size_t windows) {
  if (windows == 0 || end_ns <= begin_ns) return {};
  const uint64_t width = (end_ns - begin_ns) / windows;
  std::vector<std::vector<double>> reads(windows), writes(windows);
  std::vector<uint64_t> counts(windows, 0);
  for (const Sample& s : samples) {
    if (s.start_ns < begin_ns || s.start_ns >= end_ns) continue;
    size_t w = std::min<size_t>((s.start_ns - begin_ns) / width, windows - 1);
    ++counts[w];
    (s.write ? writes[w] : reads[w]).push_back(s.us);
  }
  std::vector<WindowSummary> out(windows);
  for (size_t w = 0; w < windows; ++w) {
    uint64_t len = w + 1 == windows ? end_ns - begin_ns - w * width : width;
    out[w].ops_per_s = static_cast<double>(counts[w]) * 1e9 /
                       static_cast<double>(len);
    out[w].read_p50 = TailOf(reads[w], 0.5);
    out[w].read_p99 = TailOf(reads[w], 0.99);
    out[w].write_p50 = TailOf(writes[w], 0.5);
    out[w].write_p99 = TailOf(writes[w], 0.99);
  }
  return out;
}

}  // namespace perfbench
