// Order statistics for the benchmark's reports.
//
// Tail latencies follow one rule: report the highest percentile that still
// has at least kTailSamples samples beyond it, capped at the percentile the
// metric is named after. A p99 from 200 samples would rest on two values;
// with the rule it falls back to the p95 and says so.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailSamples = 10;

/// The percentile (in [0, 1]) reported for a metric named after `wanted`
/// over `n` samples: min(wanted, 1 - kTailSamples / n). 0 when n is too
/// small for any tail (n <= kTailSamples); callers then report the median.
double SupportedQuantile(size_t n, double wanted);

/// Nearest-rank quantile of `sorted` (ascending): the smallest value with
/// at least q*n values at or below it. 0 for an empty input.
double NearestRank(const std::vector<double>& sorted, double q);

/// A tail latency as reported: the value, which percentile it is, and the
/// sample count it came from.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  size_t samples = 0;
};

/// Sorts `samples` in place and applies SupportedQuantile(n, wanted).
Tail TailOf(std::vector<double>& samples, double wanted);

/// Median of `values` (mean of the middle pair for even counts).
double Median(std::vector<double> values);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method). Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// One timed op: when it was sent and how long it took.
struct Sample {
  uint64_t start_ns = 0;
  double us = 0.0;
  bool write = false;
};

/// Throughput and latency of one window of the timed phase.
struct WindowSummary {
  double ops_per_s = 0.0;
  Tail read_p50, read_p99, write_p50, write_p99;
};

/// Splits [begin_ns, end_ns) into `windows` equal windows by the time
/// each op was sent and summarises each. A window's throughput counts the
/// ops sent in it over its length.
std::vector<WindowSummary> SummariseWindows(const std::vector<Sample>& samples,
                                            uint64_t begin_ns, uint64_t end_ns,
                                            size_t windows);

}  // namespace perfbench
