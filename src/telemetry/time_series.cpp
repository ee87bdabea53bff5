#include "telemetry/time_series.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "telemetry/json_util.h"

namespace reo {

TimeSeriesRing::TimeSeriesRing(TimeSeriesConfig cfg) : cfg_(cfg) {
  if (cfg_.window_ns == 0) cfg_.window_ns = 1;
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  times_ms_.resize(cfg_.capacity, 0);
}

void TimeSeriesRing::TrackCounter(std::string name, const Counter* c) {
  TrackCounter(std::move(name), std::vector<const Counter*>{c});
}

void TimeSeriesRing::TrackCounter(std::string name,
                                  std::vector<const Counter*> cs) {
  std::lock_guard<std::mutex> lock(mu_);
  Series s;
  s.kind = Kind::kCounter;
  s.num = std::move(cs);
  s.prev_num = SumCounters(s.num);
  s.col0 = cols_.size();
  cols_.push_back({std::move(name), std::vector<double>(cfg_.capacity, 0.0)});
  series_.push_back(std::move(s));
}

void TimeSeriesRing::TrackGauge(std::string name, const Gauge* g) {
  TrackGauge(std::move(name), std::vector<const Gauge*>{g});
}

void TimeSeriesRing::TrackGauge(std::string name,
                                std::vector<const Gauge*> gs) {
  std::lock_guard<std::mutex> lock(mu_);
  Series s;
  s.kind = Kind::kGauge;
  s.gauges = std::move(gs);
  s.col0 = cols_.size();
  cols_.push_back({std::move(name), std::vector<double>(cfg_.capacity, 0.0)});
  series_.push_back(std::move(s));
}

void TimeSeriesRing::TrackRatio(std::string name,
                                std::vector<const Counter*> numerators,
                                std::vector<const Counter*> denominators) {
  std::lock_guard<std::mutex> lock(mu_);
  Series s;
  s.kind = Kind::kRatio;
  s.num = std::move(numerators);
  s.den = std::move(denominators);
  s.prev_num = SumCounters(s.num);
  s.prev_den = SumCounters(s.den);
  s.col0 = cols_.size();
  cols_.push_back({std::move(name), std::vector<double>(cfg_.capacity, 0.0)});
  series_.push_back(std::move(s));
}

void TimeSeriesRing::TrackHistogram(std::string name,
                                    const ShardedHistogram* h) {
  TrackHistogram(std::move(name), std::vector<const ShardedHistogram*>{h});
}

void TimeSeriesRing::TrackHistogram(std::string name,
                                    std::vector<const ShardedHistogram*> hs) {
  std::lock_guard<std::mutex> lock(mu_);
  Series s;
  s.kind = Kind::kHistogram;
  s.hists = std::move(hs);
  s.prev_hist = s.FoldHists();
  s.col0 = cols_.size();
  cols_.push_back({name + ".p50", std::vector<double>(cfg_.capacity, 0.0)});
  cols_.push_back({name + ".p99", std::vector<double>(cfg_.capacity, 0.0)});
  cols_.push_back(
      {std::move(name) + ".count", std::vector<double>(cfg_.capacity, 0.0)});
  series_.push_back(std::move(s));
}

uint64_t TimeSeriesRing::SumCounters(const std::vector<const Counter*>& cs) {
  uint64_t sum = 0;
  for (const Counter* c : cs) sum += c->value();
  return sum;
}

Histogram TimeSeriesRing::Series::FoldHists() const {
  Histogram out;
  for (const ShardedHistogram* h : hists) out.Merge(h->Merged());
  return out;
}

void TimeSeriesRing::CloseWindow() {
  size_t slot = Slot(size_);  // if full, Slot(size_) == head_ (overwritten)
  if (size_ == cfg_.capacity) {
    head_ = (head_ + 1) % cfg_.capacity;
  } else {
    ++size_;
  }
  times_ms_[slot] = open_start_ns_ / 1'000'000;
  open_start_ns_ += cfg_.window_ns;

  for (Series& s : series_) {
    switch (s.kind) {
      case Kind::kCounter: {
        uint64_t cum = SumCounters(s.num);
        // Saturating delta: a registry Reset between windows must render a
        // zero window, not a huge unsigned wraparound.
        uint64_t d = cum > s.prev_num ? cum - s.prev_num : 0;
        cols_[s.col0].ring[slot] = static_cast<double>(d);
        s.prev_num = cum;
        break;
      }
      case Kind::kGauge: {
        double level = 0.0;
        for (const Gauge* g : s.gauges) level += g->value();
        cols_[s.col0].ring[slot] = level;
        break;
      }
      case Kind::kRatio: {
        uint64_t num_cum = SumCounters(s.num);
        uint64_t den_cum = SumCounters(s.den);
        uint64_t dn = num_cum > s.prev_num ? num_cum - s.prev_num : 0;
        uint64_t dd = den_cum > s.prev_den ? den_cum - s.prev_den : 0;
        cols_[s.col0].ring[slot] =
            dd ? static_cast<double>(dn) / static_cast<double>(dd)
               : std::numeric_limits<double>::quiet_NaN();
        s.prev_num = num_cum;
        s.prev_den = den_cum;
        break;
      }
      case Kind::kHistogram: {
        Histogram folded = s.FoldHists();
        Histogram delta = folded.DeltaSince(s.prev_hist);
        cols_[s.col0].ring[slot] = delta.Percentile(0.50);
        cols_[s.col0 + 1].ring[slot] = delta.Percentile(0.99);
        cols_[s.col0 + 2].ring[slot] = static_cast<double>(delta.count());
        s.prev_hist = std::move(folded);
        break;
      }
    }
  }
}

void TimeSeriesRing::Advance(uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) {
    started_ = true;
    open_start_ns_ = now_ns;
    // Re-baseline every series at the epoch: traffic between Track* and
    // the first Advance (e.g. warmup ops before the server loop starts)
    // must not leak into the first window's delta.
    for (Series& s : series_) {
      s.prev_num = SumCounters(s.num);
      s.prev_den = SumCounters(s.den);
      if (!s.hists.empty()) s.prev_hist = s.FoldHists();
    }
    return;
  }
  if (now_ns < open_start_ns_) return;  // clock went backwards: hold
  uint64_t elapsed = (now_ns - open_start_ns_) / cfg_.window_ns;
  if (elapsed > cfg_.capacity) {
    // Fast-forward a stall: only the trailing `capacity` windows can be
    // retained anyway, so jump the open window and account the gap. The
    // whole stalled-period delta lands in the first materialized window.
    skipped_ += elapsed - cfg_.capacity;
    open_start_ns_ += (elapsed - cfg_.capacity) * cfg_.window_ns;
    elapsed = cfg_.capacity;
  }
  for (uint64_t i = 0; i < elapsed; ++i) CloseWindow();
}

size_t TimeSeriesRing::windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

uint64_t TimeSeriesRing::skipped_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_;
}

size_t TimeSeriesRing::columns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cols_.size();
}

std::vector<double> TimeSeriesRing::Values(std::string_view column,
                                           size_t max_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Column& c : cols_) {
    if (c.name != column) continue;
    size_t n = size_;
    if (max_windows && max_windows < n) n = max_windows;
    std::vector<double> out;
    out.reserve(n);
    for (size_t i = size_ - n; i < size_; ++i) out.push_back(c.ring[Slot(i)]);
    return out;
  }
  return {};
}

std::vector<uint64_t> TimeSeriesRing::WindowStartMs(size_t max_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = size_;
  if (max_windows && max_windows < n) n = max_windows;
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = size_ - n; i < size_; ++i) out.push_back(times_ms_[Slot(i)]);
  return out;
}

std::string TimeSeriesRing::ToJson(size_t max_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = size_;
  if (max_windows && max_windows < n) n = max_windows;
  size_t first = size_ - n;

  std::string out = "{\"schema\":\"reo.series.v1\",\"window_ms\":";
  out += JsonNum(static_cast<double>(cfg_.window_ns) / 1e6);
  out += ",\"windows\":" + JsonNum(static_cast<double>(n));
  out += ",\"skipped_windows\":" + JsonNum(static_cast<double>(skipped_));
  out += ",\"t_ms\":[";
  for (size_t i = first; i < size_; ++i) {
    if (i != first) out.push_back(',');
    out += JsonNum(static_cast<double>(times_ms_[Slot(i)]));
  }
  out += "],\"series\":{";
  bool first_col = true;
  for (const Column& c : cols_) {
    if (!first_col) out.push_back(',');
    first_col = false;
    AppendJsonString(out, c.name);
    out += ":[";
    for (size_t i = first; i < size_; ++i) {
      if (i != first) out.push_back(',');
      out += JsonNum(c.ring[Slot(i)]);  // NaN ratio -> null
    }
    out.push_back(']');
  }
  out += "}}";
  return out;
}

void TrackServingDefaults(std::span<MetricRegistry* const> registries,
                          TimeSeriesRing& ring, size_t num_devices) {
  // Every column sums the same-named metric across all registries; with
  // one registry this collapses to the original single-stack wiring.
  auto counters_named = [&](const std::string& name) {
    std::vector<const Counter*> cs;
    cs.reserve(registries.size());
    for (MetricRegistry* r : registries) cs.push_back(&r->GetCounter(name));
    return cs;
  };
  auto counter = [&](const char* name) {
    ring.TrackCounter(name, counters_named(name));
  };
  counter("server.requests");
  counter("server.bytes_in");
  counter("server.bytes_out");
  counter("server.crc_errors");
  counter("server.frame_errors");
  counter("server.decode_errors");
  counter("osd.reads");
  counter("osd.writes");
  counter("osd.degraded_reads");
  counter("osd.sense_errors");
  counter("retry.attempts");
  counter("retry.exhausted");
  counter("fault.crc_detected");
  counter("fault.crc_repairs");
  counter("fault.crc_unrepaired");
  counter("scrub.chunks_repaired");
  counter("scrub.corrupt_found");

  std::vector<const Gauge*> active;
  std::vector<const ShardedHistogram*> lat_read, lat_write;
  for (MetricRegistry* r : registries) {
    active.push_back(&r->GetGauge("server.connections.active"));
    lat_read.push_back(&r->GetHistogram("server.latency.read_us"));
    lat_write.push_back(&r->GetHistogram("server.latency.write_us"));
  }
  ring.TrackGauge("server.connections.active", std::move(active));
  ring.TrackHistogram("server.latency.read_us", std::move(lat_read));
  ring.TrackHistogram("server.latency.write_us", std::move(lat_write));

  // Read miss ratio on the serving path (no cache_manager in reo_server:
  // the OSD target counts object-index misses directly).
  ring.TrackRatio("osd.read_miss_ratio", counters_named("osd.read_misses"),
                  counters_named("osd.reads"));

  // Flash writes per server op: the paper's device-wear lens. Sums every
  // device's write counter (per shard) so the ratio survives device
  // replacement and covers all shard arrays.
  std::vector<const Counter*> flash_writes;
  flash_writes.reserve(num_devices * registries.size());
  for (size_t d = 0; d < num_devices; ++d) {
    for (const Counter* c :
         counters_named("flash.dev" + std::to_string(d) + ".writes")) {
      flash_writes.push_back(c);
    }
  }
  if (!flash_writes.empty()) {
    ring.TrackRatio("flash.writes_per_op", std::move(flash_writes),
                    counters_named("server.requests"));
  }

  // DRAM admission tier (all zero when the tier is off; the registry
  // creates the counters either way so the columns always exist).
  counter("admit.staged");
  counter("admit.graduated");
  counter("admit.dropped");
  counter("dram.evictions");
  std::vector<const Counter*> dram_hits = counters_named("dram.hits");
  std::vector<const Counter*> dram_all = dram_hits;
  for (const Counter* c : counters_named("dram.misses")) {
    dram_all.push_back(c);
  }
  ring.TrackRatio("dram.hit_ratio", std::move(dram_hits),
                  std::move(dram_all));
}

}  // namespace reo
