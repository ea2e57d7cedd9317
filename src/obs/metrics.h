// Process-wide metrics registry for the detector fleet: counters, gauges
// and fixed-bucket histograms, exported as Prometheus text exposition and
// as a `metrics` JSON object (the BENCH_perf.json section shape).
//
// Design constraints, in order:
//
//   * Hot-path increments must be uncontended. Counter and histogram
//     cells are sharded: every thread — util::Executor workers and the
//     driving thread alike — owns a stable shard slot (assigned on first
//     touch, workers first), so concurrent increments from a fan-out
//     never bounce a cache line. A snapshot merges the shards.
//   * Disabled observability must cost (almost) nothing. Every mutation
//     checks one relaxed atomic bool and branches away; no allocation, no
//     locking on that path. (Stage timing is obs::TraceSpan's job: two
//     clock reads per stage either way, obs/trace.h.) bench_perf_pipeline's
//     BM_MetricsCounter* and the enabled-vs-disabled day-analysis pair
//     keep the overhead measured (<1% of day throughput).
//   * Observation must never perturb detection. Metrics are a pure side
//     channel — nothing in the registry feeds back into analysis, so
//     every DayReport stays bit-identical with metrics on or off
//     (asserted in determinism_test and rt_continuous_test).
//   * Snapshots are deterministic: metrics are reported sorted by name,
//     shard merge is a plain sum, bucket order is the registration order
//     of the bounds.
//
// Like the Prometheus client-library default registry, there is one
// process-wide instance (obs::metrics()); instrumented call sites cache
// their handles in function-local statics:
//
//   static obs::Counter& events = obs::metrics().counter("eid_events_total");
//   events.add(chunk.size());
//
// Handles stay valid for the life of the process (the registry never
// deletes a metric). Registering the same name twice returns the same
// handle; a histogram's bounds are fixed by its first registration.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace eid::obs {

/// Shard slots available to hot-path cells. Threads beyond this share
/// slots (correct, merely contended); a detector pool plus its driver is
/// far below the cap.
inline constexpr std::size_t kMetricShards = 16;

/// Stable shard slot of the calling thread in [0, kMetricShards).
std::size_t thread_shard();

namespace detail {

struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};

/// Add to an atomic double with a CAS loop (std::atomic<double>::fetch_add
/// is C++20 but not yet universal across the toolchains we build on).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotone event count, sharded per thread slot.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[thread_shard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Merged value (sum over shards). Concurrent adds may or may not be
  /// included — the usual race-free-but-approximate live read.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::array<detail::Cell, kMetricShards> cells_{};
};

/// Last-writer-wins instantaneous value (queue depth, buffered events,
/// partial-line bytes). Unsharded: sets race benignly and reads want the
/// latest value, not a sum.
class Gauge {
 public:
  void set(double value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void add(double delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    detail::atomic_add(value_, delta);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges in ascending
/// order; a value v lands in the first bucket with v <= bound, or in the
/// implicit +Inf overflow bucket. Counts and the running sum are sharded
/// like Counter cells.
class Histogram {
 public:
  void observe(double value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::size_t bucket = bounds_.size();  // +Inf overflow
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (value <= bounds_[i]) {
        bucket = i;
        break;
      }
    }
    ShardData& shard = *shards_[thread_shard()];
    shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(shard.sum, value);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      for (std::size_t b = 0; b <= bounds_.size(); ++b) {
        total += shard->buckets[b].load(std::memory_order_relaxed);
      }
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  /// One heap allocation per shard (no false sharing between shards).
  struct alignas(64) ShardData {
    explicit ShardData(std::size_t n_buckets) : buckets(n_buckets) {}
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };

  Histogram(std::string name, std::span<const double> bounds,
            const std::atomic<bool>* enabled);

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;
  std::array<std::unique_ptr<ShardData>, kMetricShards> shards_;
};

// ---- Snapshot (deterministic merge) ----

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          ///< upper edges, +Inf excluded
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts, last = +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time merged view of every registered metric, sorted by name
/// within each kind — byte-identical output for identical cell contents.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Prometheus text exposition (TYPE comments, cumulative `_bucket{le=}`
/// rows, `_sum`/`_count`) — write to a file for the node-exporter textfile
/// collector or serve from a /metrics endpoint.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// — the `metrics` section shape merged into BENCH_perf.json-style files.
std::string to_json(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  /// Metrics collection on/off. Enabled by default; disabling turns every
  /// add/set/observe into a relaxed load + branch.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-register. Handles are stable for the process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` must be ascending; ignored (first registration wins) when
  /// the name already exists.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  MetricsSnapshot snapshot() const;

  /// Zero every cell (bench/test isolation). Not linearizable against
  /// concurrent writers — quiesce first.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{true};
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide default registry (Prometheus-style).
MetricsRegistry& metrics();

// ---- Canonical bucket edges ----

/// Sub-second..minutes stage durations (finalize, save/load, tick cost).
std::span<const double> duration_buckets();

/// Microsecond-scale dispatch latencies (executor queue time).
std::span<const double> dispatch_buckets();

/// Second..day event->emission latencies (rt provisional incidents).
std::span<const double> latency_buckets();

}  // namespace eid::obs
