// The one stage-timing primitive (obs::TraceSpan) on the one clock alias
// (obs::Clock), plus scoped-span tracing emitted as Chrome trace-event
// JSON — load the written file in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see every pipeline stage, executor dispatch, rt
// tick and state save/load laid out on a per-thread timeline.
//
// A TraceSpan reads obs::Clock exactly twice, at construction and at
// stop() (or destruction), and feeds everything from those two reads: the
// optional histogram observation (when metrics are enabled), the trace
// event (when a sink is installed) and the seconds stop() returns. Spans
// are stage/chunk-grained, never per event, so the two reads are noise
// next to the stage they time. Benches read the same histograms the
// production /metrics exposition does.
//
// One process-wide sink pointer (obs::set_trace_sink) mirrors the metrics
// registry's default-instance design. Recording a span appends one
// complete ("ph":"X") event under the sink's mutex; spans are coarse, so
// the lock is cold.
//
// Tracing is a pure side channel like the metrics registry: enabling it
// never changes a DayReport (determinism_test / rt_continuous_test run
// the sweeps with a sink installed and byte-compare the reports).
//
// The sink caps its event buffer (default 1M spans ≈ a day of 5-minute
// ticks plus per-chunk stages at enterprise volume); once full, further
// spans are counted in dropped_events() instead of growing without bound
// in a long-lived --follow process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace eid::obs {

/// The process's one monotonic clock: stage timings, trace timestamps,
/// real-time pacing and the benches' wall timers all read it, so every
/// figure agrees on what a second is.
using Clock = std::chrono::steady_clock;

/// Seconds elapsed on Clock since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Histogram;

class TraceSink {
 public:
  explicit TraceSink(std::size_t max_events = 1'000'000)
      : max_events_(max_events) {}

  /// Append one complete ("X") event. ts/dur in microseconds on the
  /// process-steady timeline (trace_now_us()); tid is the caller's small
  /// thread id. Thread-safe.
  void record_complete(const char* name, const char* category,
                       std::uint64_t ts_us, std::uint64_t dur_us);

  std::size_t event_count() const;
  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON (object form: {"traceEvents": [...], ...}).
  std::string to_chrome_json() const;

  /// Write to_chrome_json() through util::replace_file, so a viewer or
  /// uploader never reads a torn file. Returns false on I/O failure.
  bool write_chrome_json(const std::filesystem::path& path) const;

  void clear();

 private:
  struct Event {
    const char* name;      ///< static string (instrumentation literals)
    const char* category;  ///< static string
    std::uint64_t ts_us;
    std::uint64_t dur_us;
    std::uint32_t tid;
  };

  std::size_t max_events_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Install (or clear, with nullptr) the process-wide sink. Swap only while
/// no spans are live — in-flight spans record to the sink they captured at
/// construction.
void set_trace_sink(TraceSink* sink);
TraceSink* trace_sink();

/// Microseconds from process start to `t` on Clock — the trace timeline.
std::uint64_t trace_us(Clock::time_point t);

/// trace_us(Clock::now()).
inline std::uint64_t trace_now_us() { return trace_us(Clock::now()); }

/// Small dense id of the calling thread (Perfetto's track key).
std::uint32_t trace_thread_id();

/// RAII stage timer: [construction, stop()) — or destruction, whichever
/// comes first — is observed into `histogram` (if given) and recorded as
/// one complete trace event (if a sink was installed at construction).
/// `name` and `category` must be string literals (or otherwise outlive
/// the sink).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "pipeline")
      : TraceSpan(name, nullptr, category) {}
  TraceSpan(const char* name, Histogram& histogram,
            const char* category = "pipeline")
      : TraceSpan(name, &histogram, category) {}

  ~TraceSpan() { stop(); }

  /// End the span now and return its seconds. Later calls (and the
  /// destructor) record nothing more and return the same value.
  double stop() {
    if (!stopped_) finish(Clock::now());
    return seconds_;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSpan(const char* name, Histogram* histogram, const char* category)
      : sink_(trace_sink()),
        histogram_(histogram),
        name_(name),
        category_(category),
        start_(Clock::now()) {}

  void finish(Clock::time_point end);

  TraceSink* sink_;
  Histogram* histogram_;
  const char* name_;
  const char* category_;
  Clock::time_point start_;
  double seconds_ = 0.0;
  bool stopped_ = false;
};

}  // namespace eid::obs
