// Windowed time-series over live metrics: a bounded ring of fixed-interval
// windows, each recording per-window deltas (counters), sampled levels
// (gauges), delta ratios (e.g. miss ratio, flash writes per op), and
// per-window latency percentiles (histogram deltas). This is the substrate
// the ADMIN SERIES wire command and the reo_top dashboard read, and what a
// ReCA-style phase-change detector (ROADMAP item 4) would consume.
//
// Memory is bounded by construction: capacity windows x tracked columns of
// doubles, regardless of runtime. If the owner stalls (e.g. a debugger
// pause) and many windows elapse before the next Advance(), the ring
// fast-forwards — at most `capacity` windows materialize and the skipped
// count records the gap — so a stall costs O(capacity), never O(elapsed).
//
// Threading: Track* calls happen at wiring time (before the server runs);
// Advance() and the query/export methods serialize on an internal mutex and
// may be called from any thread. The tracked metrics themselves are read
// with the registry's relaxed-atomic accessors, so Advance() never blocks
// metric writers.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "telemetry/metric_registry.h"

namespace reo {

struct TimeSeriesConfig {
  uint64_t window_ns = 1'000'000'000;  ///< window width (default 1 s)
  size_t capacity = 128;               ///< closed windows retained
};

class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(TimeSeriesConfig cfg = {});

  TimeSeriesRing(const TimeSeriesRing&) = delete;
  TimeSeriesRing& operator=(const TimeSeriesRing&) = delete;

  // --- Tracking registration (wiring time). Each call adds one or more
  // named columns; names must be unique across calls. Pointers must
  // outlive the ring (they point into a MetricRegistry).

  /// Column `name`: per-window delta of the counter.
  void TrackCounter(std::string name, const Counter* c);

  /// Column `name`: per-window delta of the SUM of several counters —
  /// the multi-shard form (one same-named counter per shard registry).
  /// Summing before the delta keeps every shard aligned on the same
  /// window boundary by construction.
  void TrackCounter(std::string name, std::vector<const Counter*> cs);

  /// Column `name`: gauge level sampled at window close.
  void TrackGauge(std::string name, const Gauge* g);

  /// Column `name`: sum of several gauges sampled at window close (e.g.
  /// active connections across every shard).
  void TrackGauge(std::string name, std::vector<const Gauge*> gs);

  /// Column `name`: delta(sum of numerators) / delta(sum of denominators)
  /// per window; an empty-denominator window renders NaN (JSON null).
  /// Multi-counter sums cover derived ratios like flash-writes-per-op
  /// (sum of per-device write counters over server requests).
  void TrackRatio(std::string name, std::vector<const Counter*> numerators,
                  std::vector<const Counter*> denominators);

  /// Columns `name.p50`, `name.p99`, `name.count`: per-window percentiles
  /// and sample count from the histogram's windowed delta (DeltaSince of
  /// successive folded snapshots; the delta's max is cumulative, so
  /// per-window percentiles clamp at the all-time max — see histogram.h).
  void TrackHistogram(std::string name, const ShardedHistogram* h);

  /// Same columns over the BUCKET-level merge of several histograms (one
  /// per shard registry): per-window percentiles are computed over the
  /// union of samples, never averaged from per-shard percentiles.
  void TrackHistogram(std::string name,
                      std::vector<const ShardedHistogram*> hs);

  // --- Advancing time. The first call pins the epoch (opens the first
  // window); later calls close every window whose end <= now_ns.
  void Advance(uint64_t now_ns);

  // --- Queries (oldest -> newest; max_windows == 0 means all retained).
  size_t windows() const;
  uint64_t skipped_windows() const;
  uint64_t window_ns() const { return cfg_.window_ns; }
  size_t columns() const;

  /// Values of one column; empty if the column name is unknown.
  std::vector<double> Values(std::string_view column,
                             size_t max_windows = 0) const;
  /// Window start timestamps in milliseconds (now_ns / 1e6 domain).
  std::vector<uint64_t> WindowStartMs(size_t max_windows = 0) const;

  /// {"schema":"reo.series.v1","window_ms":...,"windows":...,
  ///  "skipped_windows":...,"t_ms":[...],"series":{"name":[...],...}}
  /// NaN (empty ratio window) renders as null.
  std::string ToJson(size_t max_windows = 0) const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kRatio, kHistogram };

  struct Column {
    std::string name;
    std::vector<double> ring;  // capacity slots, indexed like times_
  };

  struct Series {
    Kind kind = Kind::kCounter;
    std::vector<const Counter*> num;  // counter / ratio numerator
    std::vector<const Counter*> den;  // ratio denominator
    std::vector<const Gauge*> gauges;
    std::vector<const ShardedHistogram*> hists;
    uint64_t prev_num = 0;
    uint64_t prev_den = 0;
    Histogram prev_hist;
    size_t col0 = 0;  // first owned column index (histogram owns 3)

    Histogram FoldHists() const;  // bucket-level merge across hists
  };

  static uint64_t SumCounters(const std::vector<const Counter*>& cs);
  size_t Slot(size_t logical) const {  // logical 0 = oldest
    return (head_ + logical) % cfg_.capacity;
  }
  void CloseWindow();  // caller holds mu_; closes [open_start_, +window_ns)

  TimeSeriesConfig cfg_;
  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::vector<Column> cols_;
  std::vector<uint64_t> times_ms_;  // window start, ms
  bool started_ = false;
  uint64_t open_start_ns_ = 0;
  size_t head_ = 0;  // slot of oldest closed window
  size_t size_ = 0;  // closed windows retained (<= capacity)
  uint64_t skipped_ = 0;
};

/// Wires the serving-path metrics every deployment wants to watch into
/// `ring`: request/byte/error deltas, connection level, per-op read/write
/// latency percentiles, read-miss ratio, and flash writes per op summed
/// over `num_devices` devices per shard. Every counter / gauge /
/// histogram is summed (bucket-merged) across `registries`, one per
/// shard, so the ring reports whole-process series and the paper ratios
/// in reo_top stay correct under sharding. Metrics are resolved (created
/// if absent), so call this after — or instead of worrying about —
/// component AttachTelemetry order.
void TrackServingDefaults(std::span<MetricRegistry* const> registries,
                          TimeSeriesRing& ring, size_t num_devices);

}  // namespace reo
