#include "obs/trace.h"

#include <cstdio>
#include <fstream>

#include "obs/metrics.h"

namespace eid::obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};
std::atomic<std::uint32_t> g_next_thread_id{1};
const Clock::time_point g_epoch = Clock::now();

}  // namespace

void set_trace_sink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* trace_sink() { return g_sink.load(std::memory_order_acquire); }

std::uint64_t trace_us(Clock::time_point t) {
  if (t <= g_epoch) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - g_epoch)
          .count());
}

std::uint32_t trace_thread_id() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceSpan::finish(Clock::time_point end) {
  stopped_ = true;
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (histogram_ != nullptr) histogram_->observe(seconds_);
  if (sink_ != nullptr) {
    const std::uint64_t start_us = trace_us(start_);
    sink_->record_complete(name_, category_, start_us,
                           trace_us(end) - start_us);
  }
}

void TraceSink::record_complete(const char* name, const char* category,
                                std::uint64_t ts_us, std::uint64_t dur_us) {
  const std::uint32_t tid = trace_thread_id();
  std::lock_guard lock(mutex_);
  if (events_.size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(Event{name, category, ts_us, dur_us, tid});
}

std::size_t TraceSink::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::string TraceSink::to_chrome_json() const {
  // Names/categories are instrumentation literals ([a-z_ ] only), so no
  // string escaping is needed; keep the writer dependency-free.
  std::lock_guard lock(mutex_);
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& event = events_[i];
    out += i == 0 ? "\n" : ",\n";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %llu, \"dur\": %llu, \"pid\": 1, \"tid\": %u}",
                  event.name, event.category,
                  static_cast<unsigned long long>(event.ts_us),
                  static_cast<unsigned long long>(event.dur_us), event.tid);
    out += buf;
  }
  out += events_.empty() ? "]" : "\n]";
  out += ", \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": " +
         std::to_string(dropped_.load(std::memory_order_relaxed)) + "}}";
  return out;
}

bool TraceSink::write_chrome_json(const std::filesystem::path& path) const {
  const std::string body = to_chrome_json();
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out << body << "\n";
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

void TraceSink::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace eid::obs
