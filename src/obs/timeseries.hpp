// Time-series store — the historical half of the telemetry plane. The
// per-process MetricsRegistry answers "what is the value now"; this store
// answers "what has it been doing", holding a fixed-capacity ring of
// (timestamp, value) points per series, keyed by host + metric name +
// rendered labels. Points arrive from the central collector's periodic
// scrape parse, timestamps come from the caller's util::Clock, and every
// query (rollups, windowed quantiles, JSONL export) is a pure function of
// the stored points — byte-stable under SimClock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace rave::obs {

struct SeriesPoint {
  double t = 0;      // clock seconds
  double value = 0;  // sample value at t
};

// Series identity. `labels` is the rendered Prometheus label string
// ({k="v",...} or empty), kept verbatim so scraped text round-trips.
struct SeriesKey {
  std::string host;
  std::string name;
  std::string labels;

  bool operator<(const SeriesKey& other) const {
    if (host != other.host) return host < other.host;
    if (name != other.name) return name < other.name;
    return labels < other.labels;
  }
  bool operator==(const SeriesKey& other) const {
    return host == other.host && name == other.name && labels == other.labels;
  }
};

// One line of a Prometheus text exposition: name + rendered labels + value.
struct ParsedSample {
  std::string name;
  std::string labels;
  double value = 0;
};

// Parse a Prometheus text scrape ("# TYPE" comments skipped). Each line
// is parsed within its own bytes; malformed lines are dropped rather than
// failing the whole scrape: a collector must keep what it can read.
std::vector<ParsedSample> parse_prometheus(const std::string& text);

// Split a rendered label string into pairs, e.g. {a="x",le="0.1"} →
// [(a,x),(le,0.1)]. Returns empty for "" or malformed input.
std::vector<std::pair<std::string, std::string>> parse_labels(const std::string& labels);

// Windowed aggregate over one series (only points with t > now - window).
struct Rollup {
  size_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double last = 0;
  // Per-second increase (last-first)/dt — the counter rate; 0 when fewer
  // than two points fall inside the window.
  double rate = 0;
  // EWMA walked oldest→newest over the window's points.
  double ewma = 0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(size_t ring_capacity = 512)
      : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

  [[nodiscard]] size_t ring_capacity() const { return ring_capacity_; }

  void append(const SeriesKey& key, double t, double value);
  // Ingest one host's parsed scrape at time `t`, tagging every series.
  void ingest(const std::string& host, const std::vector<ParsedSample>& samples, double t);

  [[nodiscard]] size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::vector<SeriesKey> keys() const;
  [[nodiscard]] bool contains(const SeriesKey& key) const { return series_.count(key) != 0; }

  // Points of one series, oldest first; empty for unknown series.
  [[nodiscard]] std::vector<SeriesPoint> points(const SeriesKey& key) const;
  // The trailing `n` values, oldest first (sparkline feed).
  [[nodiscard]] std::vector<double> recent_values(const SeriesKey& key, size_t n) const;

  [[nodiscard]] Rollup rollup(const SeriesKey& key, double window, double now,
                              double ewma_alpha = 0.3) const;

  // Windowed p-quantile of a scraped histogram: takes the increase of each
  // cumulative `name_bucket{...,le="..."}` series across the window and
  // interpolates rank position within the winning bucket (the +inf bucket
  // reports the largest finite bound, matching Histogram::quantile).
  // `labels` selects the non-le labels, e.g. {host="laptop"}. Returns 0
  // when no bucket increased inside the window.
  [[nodiscard]] double windowed_quantile(const std::string& host, const std::string& name,
                                         const std::string& labels, double q, double window,
                                         double now) const;

  // Deterministic JSONL dump: one object per stored point, ordered by key
  // then time. Identical store contents → identical bytes.
  [[nodiscard]] std::string export_jsonl() const;

  void clear() { series_.clear(); }

 private:
  // Fixed-capacity ring: oldest point overwritten once full.
  struct Series {
    std::vector<SeriesPoint> points;  // ring storage
    size_t head = 0;                  // index of the oldest point when full
  };

  void for_each_ordered(const Series& series,
                        const std::function<void(const SeriesPoint&)>& fn) const;

  size_t ring_capacity_;
  std::map<SeriesKey, Series> series_;  // ordered: deterministic iteration
};

// Unicode block-glyph sparkline of `values` scaled to their own min/max
// (flat series render as a mid-level bar). Empty input → empty string.
std::string sparkline(const std::vector<double>& values);

}  // namespace rave::obs
