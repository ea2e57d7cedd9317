#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/replace_file.h"

namespace eid::obs {

namespace {

/// Slots are handed out in first-touch order; a pool's workers touch their
/// first metric before the driver saturates the slots, so each gets its
/// own cell in steady state. Wrap-around beyond kMetricShards threads is
/// contention, not corruption.
std::atomic<std::size_t> g_next_shard{0};

/// Shortest round-trippable formatting: integers print without a
/// fraction; everything else at the least %g precision that parses back
/// bit-exact (so bucket edges read "0.0001", not 17 digits of noise,
/// while sums keep full precision). JSON-safe: non-finite guards to 0.
std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace

std::size_t thread_shard() {
  thread_local const std::size_t slot =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

Histogram::Histogram(std::string name, std::span<const double> bounds,
                     const std::atomic<bool>* enabled)
    : name_(std::move(name)),
      enabled_(enabled),
      bounds_(bounds.begin(), bounds.end()) {
  for (auto& shard : shards_) {
    shard = std::make_unique<ShardData>(bounds_.size() + 1);
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (const auto& existing : counters_) {
    if (existing->name() == name) return *existing;
  }
  counters_.push_back(
      std::unique_ptr<Counter>(new Counter(std::string(name), &enabled_)));
  return *counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (const auto& existing : gauges_) {
    if (existing->name() == name) return *existing;
  }
  gauges_.push_back(
      std::unique_ptr<Gauge>(new Gauge(std::string(name), &enabled_)));
  return *gauges_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard lock(mutex_);
  for (const auto& existing : histograms_) {
    if (existing->name() == name) return *existing;
  }
  histograms_.push_back(std::unique_ptr<Histogram>(
      new Histogram(std::string(name), bounds, &enabled_)));
  return *histograms_.back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& counter : counters_) {
      snap.counters.push_back({counter->name(), counter->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& gauge : gauges_) {
      snap.gauges.push_back({gauge->name(), gauge->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& histogram : histograms_) {
      HistogramSnapshot h;
      h.name = histogram->name();
      h.bounds = histogram->bounds();
      h.buckets.assign(h.bounds.size() + 1, 0);
      for (const auto& shard : histogram->shards_) {
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          h.buckets[b] += shard->buckets[b].load(std::memory_order_relaxed);
        }
        h.sum += shard->sum.load(std::memory_order_relaxed);
      }
      for (const std::uint64_t c : h.buckets) h.count += c;
      snap.histograms.push_back(std::move(h));
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mutex_);
  for (const auto& counter : counters_) {
    for (auto& cell : counter->cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& gauge : gauges_) {
    gauge->value_.store(0.0, std::memory_order_relaxed);
  }
  for (const auto& histogram : histograms_) {
    for (const auto& shard : histogram->shards_) {
      for (auto& bucket : shard->buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      shard->sum.store(0.0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& counter : snapshot.counters) {
    out += "# TYPE " + counter.name + " counter\n";
    out += counter.name + " " + std::to_string(counter.value) + "\n";
  }
  for (const auto& gauge : snapshot.gauges) {
    out += "# TYPE " + gauge.name + " gauge\n";
    out += gauge.name + " " + format_double(gauge.value) + "\n";
  }
  for (const auto& histogram : snapshot.histograms) {
    out += "# TYPE " + histogram.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < histogram.bounds.size(); ++b) {
      cumulative += histogram.buckets[b];
      out += histogram.name + "_bucket{le=\"" +
             format_double(histogram.bounds[b]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += histogram.name + "_bucket{le=\"+Inf\"} " +
           std::to_string(histogram.count) + "\n";
    out += histogram.name + "_sum " + format_double(histogram.sum) + "\n";
    out += histogram.name + "_count " + std::to_string(histogram.count) + "\n";
  }
  return out;
}

bool write_prometheus(const std::filesystem::path& path,
                      const MetricsSnapshot& snapshot) {
  return util::replace_file(path, to_prometheus(snapshot));
}

std::string to_json(const MetricsSnapshot& snapshot) {
  // Metric names are [a-zA-Z0-9_:] by construction, so keys need no
  // escaping; keep the writer dependency-free like bench_common.h.
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& counter = snapshot.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + counter.name + "\": " + std::to_string(counter.value);
  }
  out += snapshot.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& gauge = snapshot.gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + gauge.name + "\": " + format_double(gauge.value);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& histogram = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + histogram.name + "\": {\"count\": " +
           std::to_string(histogram.count) +
           ", \"sum\": " + format_double(histogram.sum) + ", \"buckets\": [";
    for (std::size_t b = 0; b < histogram.buckets.size(); ++b) {
      const std::string le = b < histogram.bounds.size()
                                 ? format_double(histogram.bounds[b])
                                 : "\"+Inf\"";
      out += b == 0 ? "" : ", ";
      out += "{\"le\": " + le +
             ", \"count\": " + std::to_string(histogram.buckets[b]) + "}";
    }
    out += "]}";
  }
  out += snapshot.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

std::span<const double> duration_buckets() {
  static const double edges[] = {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
                                 0.1,    0.5,    1.0,   5.0,   30.0};
  return edges;
}

std::span<const double> dispatch_buckets() {
  static const double edges[] = {0.000001, 0.00001, 0.0001, 0.001,
                                 0.01,     0.1,     1.0};
  return edges;
}

std::span<const double> latency_buckets() {
  static const double edges[] = {1.0,    10.0,    60.0,    300.0,  900.0,
                                 3600.0, 14400.0, 43200.0, 86400.0};
  return edges;
}

}  // namespace eid::obs
