// Sim-time / wall-clock separation for the continuous detection engine.
//
// Everything in the detection pipeline is keyed by *event time* — the
// util::TimePoint carried on each log record. The batch path never needed
// a notion of "now": a day is analyzed after it is complete. Continuous
// mode does: ticks close, windows slide and incidents are emitted at a
// point in sim time, and that point must be drivable three ways —
// manually (deterministic unit tests), from the replayed event stream
// itself (benchmarks and log replay run as fast as the hardware allows),
// or from the monotonic wall clock (live tailing). SimClock is that
// seam; the engine reads sim time only through it (obs::Clock merely
// times the ticks).
//
// All drivers are monotonic: now() never decreases, even when the event
// stream carries out-of-order timestamps.
#pragma once

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "util/time.h"

namespace eid::rt {

/// Source of the engine's current sim time.
class SimClock {
 public:
  virtual ~SimClock() = default;

  /// Current sim time. Monotonic: never less than any previous now().
  virtual util::TimePoint now() const = 0;

  /// Inform the clock of an event timestamp as it is ingested. Replay
  /// drivers advance on this; manual and real-time drivers ignore it.
  virtual void observe(util::TimePoint t) = 0;
};

/// Test driver: time moves only when the test says so.
class ManualClock final : public SimClock {
 public:
  explicit ManualClock(util::TimePoint start = 0) : now_(start) {}

  util::TimePoint now() const override { return now_; }
  void observe(util::TimePoint) override {}

  /// Move time forward (a backwards set is clamped: monotonic contract).
  void set(util::TimePoint t) { now_ = std::max(now_, t); }
  void advance(std::int64_t seconds) { set(now_ + seconds); }

 private:
  util::TimePoint now_ = 0;
};

/// Replay driver: sim time is the high-water mark of the event timestamps
/// ingested so far, so a replayed month runs at hardware speed while every
/// tick still fires at the same sim-time boundary a live run would have
/// fired it at. Deterministic by construction: no wall clock involved.
class ReplayClock final : public SimClock {
 public:
  explicit ReplayClock(util::TimePoint start = 0) : now_(start) {}

  util::TimePoint now() const override { return now_; }
  void observe(util::TimePoint t) override { now_ = std::max(now_, t); }

 private:
  util::TimePoint now_ = 0;
};

/// Live driver: sim time is anchored to the monotonic wall clock —
/// `sim_anchor` corresponds to the instant of construction, and now()
/// advances with real elapsed time regardless of event timestamps. Used
/// by `enterprise_monitor --follow` style deployments where ticks must
/// close even when the tail goes quiet. Monotonic because obs::Clock is.
class RealTimeClock final : public SimClock {
 public:
  explicit RealTimeClock(util::TimePoint sim_anchor)
      : sim_anchor_(sim_anchor), wall_anchor_(obs::Clock::now()) {}

  util::TimePoint now() const override {
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
        obs::Clock::now() - wall_anchor_);
    return sim_anchor_ + elapsed.count();
  }

  void observe(util::TimePoint) override {}

 private:
  util::TimePoint sim_anchor_ = 0;
  obs::Clock::time_point wall_anchor_;
};

}  // namespace eid::rt
