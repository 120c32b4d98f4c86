#include "obs/timeseries.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace rave::obs {

namespace {
// Shortest round-trip double rendering (std::to_chars), so exports are
// byte-stable and re-parseable without precision loss.
void append_number(std::string& out, double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}
}  // namespace

std::vector<ParsedSample> parse_prometheus(const std::string& text) {
  std::vector<ParsedSample> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos && text[pos] != '#') {
      // name[{labels}] value — the value starts after the last space.
      const size_t space = text.rfind(' ', eol - 1);
      if (space != std::string::npos && space > pos && space + 1 < eol) {
        ParsedSample sample;
        // strtod on a terminated copy of the value: in place, its
        // leading-whitespace skip would cross the '\n' into the next line.
        const std::string value(text, space + 1, eol - space - 1);
        char* value_end = nullptr;
        sample.value = std::strtod(value.c_str(), &value_end);
        if (value_end != value.c_str()) {
          const size_t brace = text.find('{', pos);
          if (brace != std::string::npos && brace < space) {
            sample.name = text.substr(pos, brace - pos);
            sample.labels = text.substr(brace, space - brace);
          } else {
            sample.name = text.substr(pos, space - pos);
          }
          out.push_back(std::move(sample));
        }
      }
    }
    pos = eol + 1;
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_labels(const std::string& labels) {
  std::vector<std::pair<std::string, std::string>> out;
  if (labels.size() < 2 || labels.front() != '{' || labels.back() != '}') return out;
  size_t pos = 1;
  while (pos < labels.size() - 1) {
    const size_t eq = labels.find("=\"", pos);
    if (eq == std::string::npos) break;
    const size_t close = labels.find('"', eq + 2);
    if (close == std::string::npos) break;
    out.emplace_back(labels.substr(pos, eq - pos), labels.substr(eq + 2, close - eq - 2));
    pos = close + 1;
    if (pos < labels.size() && labels[pos] == ',') ++pos;
  }
  return out;
}

void TimeSeriesStore::append(const SeriesKey& key, double t, double value) {
  Series& series = series_[key];
  if (series.points.size() < ring_capacity_) {
    series.points.push_back({t, value});
    return;
  }
  series.points[series.head] = {t, value};
  series.head = (series.head + 1) % ring_capacity_;
}

void TimeSeriesStore::ingest(const std::string& host, const std::vector<ParsedSample>& samples,
                             double t) {
  SeriesKey key;
  key.host = host;
  for (const ParsedSample& sample : samples) {
    key.name = sample.name;
    key.labels = sample.labels;
    append(key, t, sample.value);
  }
}

std::vector<SeriesKey> TimeSeriesStore::keys() const {
  std::vector<SeriesKey> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) out.push_back(key);
  return out;
}

void TimeSeriesStore::for_each_ordered(
    const Series& series, const std::function<void(const SeriesPoint&)>& fn) const {
  const size_t n = series.points.size();
  for (size_t i = 0; i < n; ++i) fn(series.points[(series.head + i) % n]);
}

std::vector<SeriesPoint> TimeSeriesStore::points(const SeriesKey& key) const {
  std::vector<SeriesPoint> out;
  auto it = series_.find(key);
  if (it == series_.end()) return out;
  out.reserve(it->second.points.size());
  for_each_ordered(it->second, [&](const SeriesPoint& p) { out.push_back(p); });
  return out;
}

std::vector<double> TimeSeriesStore::recent_values(const SeriesKey& key, size_t n) const {
  const std::vector<SeriesPoint> all = points(key);
  std::vector<double> out;
  const size_t start = all.size() > n ? all.size() - n : 0;
  out.reserve(all.size() - start);
  for (size_t i = start; i < all.size(); ++i) out.push_back(all[i].value);
  return out;
}

Rollup TimeSeriesStore::rollup(const SeriesKey& key, double window, double now,
                               double ewma_alpha) const {
  Rollup roll;
  auto it = series_.find(key);
  if (it == series_.end()) return roll;
  const double cutoff = now - window;
  double sum = 0;
  double first_value = 0;
  double first_t = 0;
  double last_t = 0;
  for_each_ordered(it->second, [&](const SeriesPoint& p) {
    if (p.t <= cutoff) return;
    if (roll.count == 0) {
      roll.min = roll.max = p.value;
      roll.ewma = p.value;
      first_value = p.value;
      first_t = p.t;
    } else {
      roll.min = std::min(roll.min, p.value);
      roll.max = std::max(roll.max, p.value);
      roll.ewma = ewma_alpha * p.value + (1.0 - ewma_alpha) * roll.ewma;
    }
    sum += p.value;
    roll.last = p.value;
    last_t = p.t;
    ++roll.count;
  });
  if (roll.count == 0) return roll;
  roll.mean = sum / static_cast<double>(roll.count);
  if (roll.count > 1 && last_t > first_t)
    roll.rate = (roll.last - first_value) / (last_t - first_t);
  return roll;
}

double TimeSeriesStore::windowed_quantile(const std::string& host, const std::string& name,
                                          const std::string& labels, double q, double window,
                                          double now) const {
  const std::string bucket_name = name + "_bucket";
  const auto selector = parse_labels(labels);
  // Collect (le bound, windowed increase) per bucket series; the scrape's
  // buckets are cumulative over le, and increases of cumulative counters
  // stay cumulative, so the quantile walk mirrors Histogram::quantile.
  struct Bucket {
    double le = 0;
    bool inf = false;
    double delta = 0;
  };
  std::vector<Bucket> buckets;
  for (const auto& [key, series] : series_) {
    if (key.host != host || key.name != bucket_name) continue;
    const auto pairs = parse_labels(key.labels);
    std::string le;
    bool selector_ok = true;
    for (const auto& want : selector) {
      bool found = false;
      for (const auto& have : pairs)
        if (have == want) found = true;
      if (!found) selector_ok = false;
    }
    if (!selector_ok) continue;
    for (const auto& [k, v] : pairs)
      if (k == "le") le = v;
    if (le.empty()) continue;
    // Windowed increase: last value minus the newest value at or before
    // the window start (falling back to the oldest retained point).
    double first = 0;
    double last = 0;
    bool any = false;
    const double cutoff = now - window;
    for_each_ordered(series, [&](const SeriesPoint& p) {
      if (!any || p.t <= cutoff) first = p.value;
      last = p.value;
      any = true;
    });
    if (!any) continue;
    Bucket bucket;
    bucket.inf = le == "+Inf";
    bucket.le = bucket.inf ? 0 : std::strtod(le.c_str(), nullptr);
    bucket.delta = last - first;
    buckets.push_back(bucket);
  }
  if (buckets.empty()) return 0;
  std::sort(buckets.begin(), buckets.end(), [](const Bucket& a, const Bucket& b) {
    if (a.inf != b.inf) return !a.inf;  // +Inf sorts last
    return a.le < b.le;
  });
  const double total = buckets.back().inf ? buckets.back().delta : 0;
  if (total <= 0) return 0;
  const auto rank = static_cast<uint64_t>(q * (total - 1)) + 1;
  double largest_finite = 0;
  for (const Bucket& b : buckets)
    if (!b.inf) largest_finite = b.le;
  double before = 0;
  double lower = 0;
  for (const Bucket& b : buckets) {
    if (b.inf || b.delta < static_cast<double>(rank)) {
      if (!b.inf) {
        before = b.delta;
        lower = b.le;
      }
      continue;
    }
    const double in_bucket = b.delta - before;
    const double fraction =
        in_bucket <= 0 ? 1.0 : (static_cast<double>(rank) - before) / in_bucket;
    return lower + fraction * (b.le - lower);
  }
  return largest_finite;  // rank landed in the +inf bucket
}

std::string TimeSeriesStore::export_jsonl() const {
  std::string out;
  for (const auto& [key, series] : series_) {
    for_each_ordered(series, [&](const SeriesPoint& p) {
      out += "{\"t\":";
      append_number(out, p.t);
      out += ",\"host\":\"" + key.host + "\",\"name\":\"" + key.name + "\"";
      const auto pairs = parse_labels(key.labels);
      if (!pairs.empty()) {
        out += ",\"labels\":{";
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (i > 0) out += ",";
          out += "\"" + pairs[i].first + "\":\"" + pairs[i].second + "\"";
        }
        out += "}";
      }
      out += ",\"value\":";
      append_number(out, p.value);
      out += "}\n";
    });
  }
  return out;
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kGlyphs[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    int level = 3;  // flat series: mid-level bar
    if (hi > lo) {
      level = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kGlyphs[level];
  }
  return out;
}

}  // namespace rave::obs
