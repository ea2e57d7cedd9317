#include "rt/standby.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/clock.h"
#include "util/replace_file.h"

namespace eid::rt {

namespace {

/// Frame header + trailer bytes around a payload in the chain file
/// (magic(8) + size(4) ... crc(4)); see storage/delta.h.
constexpr std::uint64_t kFrameOverhead = 8 + 4 + 4;

/// Observability refresh and dirty-checkpoint cadence of a live tail.
constexpr auto kFlushEvery = std::chrono::seconds(2);

/// printf-style FollowHooks::log call (no-op without a log hook).
__attribute__((format(printf, 3, 4))) void log_line(const FollowHooks& hooks,
                                                    bool warning,
                                                    const char* format, ...) {
  if (!hooks.log) return;
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  hooks.log(line, warning);
}

}  // namespace

StandbyReplica::StandbyReplica(api::Detector& detector,
                               std::filesystem::path state_path)
    : detector_(detector), state_path_(std::move(state_path)) {}

template <typename Source>
void StandbyReplica::adopt_payload(Source& source) {
  if (source.has_cursor) {
    has_cursor_ = true;
    cursor_day_ = source.cursor_day;
    cursor_offset_ = source.cursor_offset;
  }
  if (source.has_incidents) {
    incidents_.emplace().restore(std::move(source.incidents),
                                 source.incidents_next_id);
  }
}

bool StandbyReplica::start(storage::LoadStatus* status) {
  storage::ChainLoadReport report;
  if (!detector_.load_state(state_path_, &report, status)) {
    started_ = false;
    return false;
  }
  started_ = true;
  base_crc_ = report.base_crc;
  next_seq_ = report.last_seq + 1;
  applied_bytes_ = report.applied_bytes;
  // Right after a compaction the chain is empty, and the previously
  // applied frame's payload is still the latest known.
  adopt_payload(report);
  return true;
}

bool StandbyReplica::reload(storage::LoadStatus* status) {
  ++stats_.full_reloads;
  obs::metrics().counter("eid_standby_reloads_total").add(1);
  return start(status);
}

std::size_t StandbyReplica::poll(storage::LoadStatus* status) {
  if (!started_ && !start(status)) return 0;
  storage::DeltaChainInfo info;
  storage::LoadStatus local;
  if (!storage::read_delta_chain(storage::delta_chain_path(state_path_),
                                 info, &local)) {
    // Transient read failure: keep the state we have; retry next poll.
    if (status != nullptr) *status = local;
    return 0;
  }
  if (info.valid_bytes < applied_bytes_) {
    // The chain shrank under us: the primary compacted into a new base.
    reload(status);
    return 0;
  }
  std::size_t applied = 0;
  for (const auto& frame : info.frames) {
    if (frame.offset < applied_bytes_) continue;  // already replayed
    std::optional<storage::DeltaFrame> decoded =
        storage::decode_delta_frame(frame.payload, &local);
    const bool fits = decoded && decoded->header.base_crc == base_crc_ &&
                      decoded->header.seq == next_seq_;
    if (!fits || !detector_.apply_state_delta(*decoded, &local)) {
      // A complete, CRC-clean frame that does not continue our replay:
      // the primary compacted (new base CRC, seq restarting at 1) or the
      // chain is genuinely bad. Reload once per chain change — a
      // persistently bad chain (the degraded-load case) must not trigger
      // a reload storm.
      if (status != nullptr) *status = local;
      if (info.valid_bytes != suspect_bytes_) {
        suspect_bytes_ = info.valid_bytes;
        reload(status);
      }
      return applied;
    }
    applied_bytes_ = frame.offset + kFrameOverhead + frame.payload.size();
    ++next_seq_;
    ++applied;
    ++stats_.frames_applied;
    adopt_payload(*decoded);
  }
  if (info.torn_tail) ++stats_.torn_waits;  // append in progress: wait
  if (applied > 0) {
    obs::metrics().counter("eid_standby_frames_applied_total").add(applied);
  }
  return applied;
}

bool StandbyReplica::take_incidents(core::IncidentStore& store) const {
  if (incidents_) store = *incidents_;
  return incidents_.has_value();
}

std::filesystem::path heartbeat_path(const std::filesystem::path& state_path) {
  return std::filesystem::path(state_path) += ".hb";
}

bool touch_heartbeat(const std::filesystem::path& path) {
  return util::replace_file(path, "alive\n");
}

double heartbeat_age_seconds(const std::filesystem::path& path) {
  std::error_code ec;
  const std::filesystem::file_time_type mtime =
      std::filesystem::last_write_time(path, ec);
  if (ec) return std::numeric_limits<double>::infinity();
  const auto now = std::filesystem::file_time_type::clock::now();
  const double age = std::chrono::duration<double>(now - mtime).count();
  return age < 0.0 ? 0.0 : age;  // clock skew / sub-tick touch
}

bool save_checkpoint(api::Detector& detector,
                     const std::filesystem::path& state_path,
                     const api::CheckpointPolicy& policy,
                     storage::LoadStatus* status,
                     const api::CheckpointExtras& extras) {
  const bool saved =
      detector.save_state_delta(state_path, policy, status, extras);
  touch_heartbeat(heartbeat_path(state_path));
  return saved;
}

FollowResult follow(api::Detector& detector, const FollowConfig& config,
                    util::Day operation_begin, const core::SocSeeds& seeds,
                    const FollowHooks& hooks, core::IncidentStore* adopt) {
  FollowResult result;
  result.day = config.day > 0 ? config.day : operation_begin;
  EngineConfig engine_config;
  engine_config.window.tick_seconds = config.tick_seconds;
  engine_config.window.window_seconds = config.window_seconds;
  engine_config.seeds = seeds;
  if (!engine_config.window.valid()) {
    log_line(hooks, true,
             "error: tick=%ds window=%ds invalid (tick must tile the 86400 s "
             "day; window a whole number of ticks)",
             config.tick_seconds, config.window_seconds);
    return result;
  }
  result.ok = true;
  if (result.day < detector.first_open_day(operation_begin)) {
    log_line(hooks, false,
             "day %s is already closed (%zu operation day(s) completed) — "
             "nothing to follow",
             util::format_day(result.day).c_str(), detector.days_operated());
    result.already_closed = true;
    return result;
  }

  // Sim time is driven by the event stream (ReplayClock), so a replayed
  // file runs at hardware speed and a live tail ticks as its collector
  // writes.
  api::TsvFileSource source(config.log_path, result.day,
                            logs::DnsReductionConfig{});
  source.set_tail(true);
  ReplayClock clock;
  ContinuousEngine engine(detector, clock, engine_config);
  if (adopt != nullptr) engine.restore_incidents(std::move(*adopt));
  engine.set_emission_sink(hooks.emission);
  engine.set_day_sink(hooks.day);
  const auto flush = [&hooks] {
    if (hooks.flush) hooks.flush();
  };

  // Emissions and day closes are what a checkpoint would carry anew.
  const auto progress = [&engine] {
    const EngineStats& stats = engine.stats();
    return stats.provisional_emissions + stats.finalized_emissions +
           stats.days_closed;
  };
  std::size_t saved_progress = 0;
  const bool durable = !config.state_path.empty();
  const auto checkpoint = [&]() -> bool {
    api::CheckpointExtras extras;
    extras.has_cursor = true;
    extras.cursor_day = result.day;
    extras.cursor_offset = source.stats().byte_offset;
    extras.incidents = &engine.incidents();
    storage::LoadStatus status;
    if (!save_checkpoint(detector, config.state_path,
                         api::CheckpointPolicy{config.delta_every}, &status,
                         extras)) {
      log_line(hooks, true, "warning: checkpoint failed: %s — %s",
               storage::load_error_name(status.error), status.detail.c_str());
      return false;
    }
    saved_progress = progress();
    return true;
  };

  log_line(hooks, false, "following %s (day %s, tick %ds, window %ds)...",
           config.log_path.c_str(), util::format_day(result.day).c_str(),
           config.tick_seconds, config.window_seconds);
  int idle = 0;
  auto last_flush = obs::Clock::now();
  while (config.idle_exit == 0 || idle < config.idle_exit) {
    if (engine.poll(source) == 0) {
      ++idle;
      std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
    } else {
      idle = 0;
    }
    if (durable) touch_heartbeat(heartbeat_path(config.state_path));
    const auto now = obs::Clock::now();
    if (now - last_flush >= kFlushEvery) {
      flush();
      if (durable && progress() != saved_progress) checkpoint();
      last_flush = now;
    }
  }
  engine.finish();
  flush();
  result.stats = engine.stats();
  result.source = source.stats();
  if (durable) result.saved = checkpoint();
  flush();
  return result;
}

std::optional<FollowResult> standby(api::Detector& detector,
                                    const FollowConfig& config,
                                    util::Day operation_begin,
                                    const core::SocSeeds& seeds,
                                    const FollowHooks& hooks) {
  StandbyReplica replica(detector, config.state_path);
  log_line(hooks, false,
           "standby: tailing checkpoint chain %s.delta (takeover after "
           "%ds of heartbeat silence)",
           config.state_path.c_str(), config.stale_after_seconds);
  storage::LoadStatus status;
  if (replica.start(&status)) {
    log_line(hooks, false,
             "[standby] base + chain loaded: at seq %llu, %zu operation "
             "day(s) completed",
             static_cast<unsigned long long>(replica.last_seq()),
             detector.days_operated());
  } else {
    log_line(hooks, false,
             "[standby] no checkpoint yet (%s) — waiting for the primary's "
             "first save",
             storage::load_error_name(status.error));
  }
  const std::filesystem::path beacon = heartbeat_path(config.state_path);
  int idle = 0;
  while (true) {
    const std::size_t applied = replica.poll();
    if (applied > 0) {
      idle = 0;
      log_line(hooks, false, "[standby] applied %zu frame(s), now at seq %llu",
               applied, static_cast<unsigned long long>(replica.last_seq()));
    }
    const double age = heartbeat_age_seconds(beacon);
    if (replica.started() && detector.pipeline().models_ready() &&
        age > config.stale_after_seconds) {
      log_line(hooks, false,
               "[failover] primary heartbeat stale (%.1fs > %ds) — taking "
               "over the tail of %s",
               age, config.stale_after_seconds, config.log_path.c_str());
      // Re-read the cursor day's log from offset 0: histories only advance
      // at day close, so replaying the whole day on top of the replicated
      // state reproduces the primary's would-have-been report
      // bit-identically (the cursor byte offset in the frames is
      // operator-visible progress, not a resume point).
      FollowConfig takeover = config;
      if (replica.has_cursor()) {
        takeover.day = static_cast<util::Day>(replica.cursor_day());
      }
      core::IncidentStore incidents;
      const bool adopted = replica.take_incidents(incidents);
      return follow(detector, takeover, operation_begin, seeds, hooks,
                    adopted ? &incidents : nullptr);
    }
    if (applied == 0) {
      ++idle;
      if (config.idle_exit > 0 && idle >= config.idle_exit) {
        log_line(hooks, false,
                 "[standby] idle limit reached without takeover — exiting");
        return std::nullopt;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
    }
  }
}

}  // namespace eid::rt
