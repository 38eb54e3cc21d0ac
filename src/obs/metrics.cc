#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/wire_codec.h"

namespace kspdg {
namespace {

constexpr uint32_t kMaxWireSamples = 1u << 20;
constexpr uint32_t kMaxWireLabels = 64;
constexpr uint32_t kMaxWireBounds = 1024;
constexpr uint32_t kMaxWireString = 1u << 16;

void SortLabels(MetricLabels& labels) {
  std::sort(labels.begin(), labels.end());
}

bool SameKey(std::string_view name, const MetricLabels& labels,
             const std::string& entry_name, const MetricLabels& entry_labels) {
  return name == entry_name && labels == entry_labels;
}

template <typename Sample>
bool SampleKeyLess(const Sample& a, const Sample& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  // Shortest round-trippable form that is still valid JSON (no bare "inf").
  std::ostringstream os;
  os.precision(17);
  os << v;
  std::string s = os.str();
  // Ensure integral doubles keep a marker so strict parsers see a number
  // that round-trips as floating point; plain "5" is fine JSON though, so
  // only guard against non-finite values (callers must not pass them).
  return s;
}

void AppendLabelsText(std::ostringstream& os, const MetricLabels& labels,
                      const char* extra_key = nullptr,
                      const std::string& extra_value = std::string()) {
  if (labels.empty() && extra_key == nullptr) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"" << v << '"';
  }
  if (extra_key != nullptr) {
    if (!first) os << ',';
    os << extra_key << "=\"" << extra_value << '"';
  }
  os << '}';
}

void AppendLabelsJson(std::ostringstream& os, const MetricLabels& labels) {
  os << "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << '"' << EscapeJson(k) << "\":\"" << EscapeJson(v) << '"';
  }
  os << '}';
}

bool ReadLabels(WireReader& r, MetricLabels* labels) {
  uint32_t n = 0;
  if (!r.U32(&n).ok() || n > kMaxWireLabels) return false;
  labels->clear();
  labels->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string k, v;
    if (!r.Str(&k, kMaxWireString).ok() || !r.Str(&v, kMaxWireString).ok()) {
      return false;
    }
    labels->emplace_back(std::move(k), std::move(v));
  }
  return true;
}

void PutLabels(WireWriter& w, const MetricLabels& labels) {
  w.U32(static_cast<uint32_t>(labels.size()));
  for (const auto& [k, v] : labels) {
    w.Str(k);
    w.Str(v);
  }
}

}  // namespace

const std::vector<double>& LatencyBucketsMicros() {
  static const std::vector<double> kBounds = {
      50,     100,    250,     500,     1000,    2500,   5000,
      10000,  25000,  50000,   100000,  250000,  1000000};
  return kBounds;
}

// --- MetricsSnapshot ---

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& sample : other.counters) {
    auto it = std::find_if(counters.begin(), counters.end(),
                           [&](const CounterSample& mine) {
                             return SameKey(sample.name, sample.labels,
                                            mine.name, mine.labels);
                           });
    if (it != counters.end()) {
      it->value += sample.value;
    } else {
      counters.push_back(sample);
    }
  }
  for (const auto& sample : other.gauges) {
    auto it = std::find_if(gauges.begin(), gauges.end(),
                           [&](const GaugeSample& mine) {
                             return SameKey(sample.name, sample.labels,
                                            mine.name, mine.labels);
                           });
    if (it != gauges.end()) {
      it->value = sample.value;
    } else {
      gauges.push_back(sample);
    }
  }
  for (const auto& sample : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const HistogramSample& mine) {
                             return SameKey(sample.name, sample.labels,
                                            mine.name, mine.labels) &&
                                    sample.bounds == mine.bounds;
                           });
    if (it != histograms.end()) {
      for (size_t i = 0; i < it->buckets.size() && i < sample.buckets.size();
           ++i) {
        it->buckets[i] += sample.buckets[i];
      }
      it->count += sample.count;
      it->sum += sample.sum;
    } else {
      histograms.push_back(sample);
    }
  }
  std::sort(counters.begin(), counters.end(), SampleKeyLess<CounterSample>);
  std::sort(gauges.begin(), gauges.end(), SampleKeyLess<GaugeSample>);
  std::sort(histograms.begin(), histograms.end(),
            SampleKeyLess<HistogramSample>);
}

void MetricsSnapshot::AddLabel(const std::string& key,
                               const std::string& value) {
  auto apply = [&](MetricLabels& labels) {
    for (auto& [k, v] : labels) {
      if (k == key) {
        v = value;
        return;
      }
    }
    labels.emplace_back(key, value);
    SortLabels(labels);
  };
  for (auto& s : counters) apply(s.labels);
  for (auto& s : gauges) apply(s.labels);
  for (auto& s : histograms) apply(s.labels);
}

uint64_t MetricsSnapshot::CounterTotal(std::string_view name) const {
  uint64_t total = 0;
  for (const auto& s : counters) {
    if (s.name == name) total += s.value;
  }
  return total;
}

size_t MetricsSnapshot::GaugeSampleCount(std::string_view name) const {
  size_t n = 0;
  for (const auto& s : gauges) {
    if (s.name == name) ++n;
  }
  return n;
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream os;
  for (const auto& s : counters) {
    os << s.name;
    AppendLabelsText(os, s.labels);
    os << ' ' << s.value << '\n';
  }
  for (const auto& s : gauges) {
    os << s.name;
    AppendLabelsText(os, s.labels);
    os << ' ' << s.value << '\n';
  }
  for (const auto& s : histograms) {
    uint64_t cumulative = 0;
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      cumulative += s.buckets[i];
      const std::string le =
          i < s.bounds.size() ? FormatDouble(s.bounds[i]) : "+Inf";
      os << s.name << "_bucket";
      AppendLabelsText(os, s.labels, "le", le);
      os << ' ' << cumulative << '\n';
    }
    os << s.name << "_sum";
    AppendLabelsText(os, s.labels);
    os << ' ' << FormatDouble(s.sum) << '\n';
    os << s.name << "_count";
    AppendLabelsText(os, s.labels);
    os << ' ' << s.count << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"counters\": [";
  for (size_t i = 0; i < counters.size(); ++i) {
    const auto& s = counters[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\":\"" << EscapeJson(s.name)
       << "\",";
    AppendLabelsJson(os, s.labels);
    os << ",\"value\":" << s.value << '}';
  }
  os << (counters.empty() ? "]" : "\n  ]") << ",\n  \"gauges\": [";
  for (size_t i = 0; i < gauges.size(); ++i) {
    const auto& s = gauges[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\":\"" << EscapeJson(s.name)
       << "\",";
    AppendLabelsJson(os, s.labels);
    os << ",\"value\":" << s.value << '}';
  }
  os << (gauges.empty() ? "]" : "\n  ]") << ",\n  \"histograms\": [";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const auto& s = histograms[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\":\"" << EscapeJson(s.name)
       << "\",";
    AppendLabelsJson(os, s.labels);
    os << ",\"count\":" << s.count << ",\"sum\":" << FormatDouble(s.sum)
       << ",\"buckets\":[";
    for (size_t b = 0; b < s.buckets.size(); ++b) {
      os << (b == 0 ? "" : ",") << "{\"le\":";
      if (b < s.bounds.size()) {
        os << FormatDouble(s.bounds[b]);
      } else {
        os << "\"+Inf\"";
      }
      os << ",\"count\":" << s.buckets[b] << '}';
    }
    os << "]}";
  }
  os << (histograms.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

std::string MetricsSnapshot::EncodeWire() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(counters.size()));
  for (const auto& s : counters) {
    w.Str(s.name);
    PutLabels(w, s.labels);
    w.U64(s.value);
  }
  w.U32(static_cast<uint32_t>(gauges.size()));
  for (const auto& s : gauges) {
    w.Str(s.name);
    PutLabels(w, s.labels);
    w.U64(static_cast<uint64_t>(s.value));
  }
  w.U32(static_cast<uint32_t>(histograms.size()));
  for (const auto& s : histograms) {
    w.Str(s.name);
    PutLabels(w, s.labels);
    w.U32(static_cast<uint32_t>(s.bounds.size()));
    for (double b : s.bounds) w.F64(b);
    for (uint64_t b : s.buckets) w.U64(b);
    w.F64(s.sum);
  }
  return w.Take();
}

Status MetricsSnapshot::DecodeWire(std::string_view payload,
                                   MetricsSnapshot* out) {
  MetricsSnapshot decoded;
  WireReader r(payload);
  // Any read failure or count over its cap reports the same error.
  auto name_and_labels = [&r](std::string* name, MetricLabels* labels) {
    return r.Str(name, kMaxWireString).ok() && ReadLabels(r, labels);
  };
  auto count = [&r](uint32_t* n, uint32_t cap) {
    return r.U32(n).ok() && *n <= cap;
  };
  auto malformed = [] {
    return Status::InvalidArgument("malformed metrics snapshot payload");
  };

  uint32_t n = 0;
  if (!count(&n, kMaxWireSamples)) return malformed();
  decoded.counters.resize(n);
  for (auto& s : decoded.counters) {
    if (!name_and_labels(&s.name, &s.labels) || !r.U64(&s.value).ok()) {
      return malformed();
    }
  }

  if (!count(&n, kMaxWireSamples)) return malformed();
  decoded.gauges.resize(n);
  for (auto& s : decoded.gauges) {
    uint64_t bits = 0;
    if (!name_and_labels(&s.name, &s.labels) || !r.U64(&bits).ok()) {
      return malformed();
    }
    s.value = static_cast<int64_t>(bits);
  }

  if (!count(&n, kMaxWireSamples)) return malformed();
  decoded.histograms.resize(n);
  for (auto& s : decoded.histograms) {
    uint32_t num_bounds = 0;
    if (!name_and_labels(&s.name, &s.labels) ||
        !count(&num_bounds, kMaxWireBounds)) {
      return malformed();
    }
    s.bounds.resize(num_bounds);
    for (auto& b : s.bounds) {
      if (!r.F64(&b).ok()) return malformed();
    }
    s.buckets.resize(num_bounds + 1);
    s.count = 0;
    for (auto& b : s.buckets) {
      if (!r.U64(&b).ok()) return malformed();
      s.count += b;
    }
    if (!r.F64(&s.sum).ok()) return malformed();
  }

  if (!r.ExpectEnd().ok()) return malformed();
  *out = std::move(decoded);
  return Status::OK();
}

// --- MetricsRegistry ---

Counter MetricsRegistry::GetCounter(std::string_view name,
                                    MetricLabels labels) {
  SortLabels(labels);
  MutexLock lock(mu_);
  for (auto& entry : counters_) {
    if (SameKey(name, labels, entry.name, entry.labels)) {
      return Counter(&entry.cell);
    }
  }
  counters_.emplace_back();
  counters_.back().name = std::string(name);
  counters_.back().labels = std::move(labels);
  return Counter(&counters_.back().cell);
}

Gauge MetricsRegistry::GetGauge(std::string_view name, MetricLabels labels) {
  SortLabels(labels);
  MutexLock lock(mu_);
  for (auto& entry : gauges_) {
    if (SameKey(name, labels, entry.name, entry.labels)) {
      return Gauge(&entry.cell);
    }
  }
  gauges_.emplace_back();
  gauges_.back().name = std::string(name);
  gauges_.back().labels = std::move(labels);
  return Gauge(&gauges_.back().cell);
}

Histogram MetricsRegistry::GetHistogram(std::string_view name,
                                        MetricLabels labels,
                                        std::vector<double> bounds) {
  SortLabels(labels);
  MutexLock lock(mu_);
  for (auto& entry : histograms_) {
    if (SameKey(name, labels, entry.name, entry.labels)) {
      return Histogram(&entry.cell);
    }
  }
  histograms_.emplace_back();
  auto& entry = histograms_.back();
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  entry.cell.bounds = std::move(bounds);
  entry.cell.buckets = std::make_unique<std::atomic<uint64_t>[]>(
      entry.cell.bounds.size() + 1);
  for (size_t i = 0; i <= entry.cell.bounds.size(); ++i) {
    entry.cell.buckets[i].store(0, std::memory_order_relaxed);
  }
  return Histogram(&entry.cell);
}

void MetricsRegistry::AddCounterCallback(std::string_view name,
                                         MetricLabels labels,
                                         std::function<uint64_t()> fn) {
  SortLabels(labels);
  MutexLock lock(mu_);
  counter_callbacks_.push_back(
      {std::string(name), std::move(labels), std::move(fn)});
}

void MetricsRegistry::AddGaugeCallback(std::string_view name,
                                       MetricLabels labels,
                                       std::function<int64_t()> fn) {
  SortLabels(labels);
  MutexLock lock(mu_);
  gauge_callbacks_.push_back(
      {std::string(name), std::move(labels), std::move(fn)});
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  snap.counters.reserve(counters_.size() + counter_callbacks_.size());
  for (const auto& entry : counters_) {
    snap.counters.push_back(
        {entry.name, entry.labels,
         entry.cell.value.load(std::memory_order_relaxed)});
  }
  for (const auto& cb : counter_callbacks_) {
    snap.counters.push_back({cb.name, cb.labels, cb.fn()});
  }
  snap.gauges.reserve(gauges_.size() + gauge_callbacks_.size());
  for (const auto& entry : gauges_) {
    snap.gauges.push_back({entry.name, entry.labels,
                           entry.cell.value.load(std::memory_order_relaxed)});
  }
  for (const auto& cb : gauge_callbacks_) {
    snap.gauges.push_back({cb.name, cb.labels, cb.fn()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    HistogramSample s;
    s.name = entry.name;
    s.labels = entry.labels;
    s.bounds = entry.cell.bounds;
    s.buckets.resize(s.bounds.size() + 1);
    s.count = 0;
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      s.buckets[i] = entry.cell.buckets[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.sum = entry.cell.sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(s));
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            SampleKeyLess<CounterSample>);
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            SampleKeyLess<GaugeSample>);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            SampleKeyLess<HistogramSample>);
  return snap;
}

}  // namespace kspdg
