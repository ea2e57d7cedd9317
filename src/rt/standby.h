// The monitor's failover protocol, both sides (`enterprise_monitor
// --follow` and `--standby`):
//   * the primary tails a day's growing DNS-flavor TSV log (follow),
//     touching "<state>.hb" on every poll and after every checkpoint
//     (save_checkpoint — a batch walk's daily save too). Its live-tail
//     checkpoints, every ~2 s when something new was emitted or closed and
//     at exit, are delta frames carrying the tail cursor and the incident
//     store;
//   * the standby (StandbyReplica) applies each complete frame that
//     continues its replay, waits out a torn tail (an append in progress)
//     and reloads when a frame no longer fits (the primary compacted);
//   * on a stale heartbeat the standby adopts the primary's incidents and
//     re-reads the cursor day's log from offset 0: histories only advance
//     at day close, so its day report is bit-identical to the one the
//     uninterrupted primary would have produced.
// Neither side re-closes a day before Detector::first_open_day: its
// history updates are already in the restored state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>

#include "api/detector.h"
#include "api/sources.h"
#include "core/incidents.h"
#include "rt/engine.h"
#include "storage/delta.h"

namespace eid::rt {

struct StandbyStats {
  std::size_t frames_applied = 0;
  std::size_t full_reloads = 0;  ///< base replaced (compaction) mid-watch
  std::size_t torn_waits = 0;    ///< polls that saw an append in progress
};

/// Replays a primary's checkpoint chain onto a warm Detector.
class StandbyReplica {
 public:
  /// The detector must outlive the replica. It is wholly owned by the
  /// replica until takeover: start()/poll() overwrite its state.
  StandbyReplica(api::Detector& detector, std::filesystem::path state_path);

  /// Load the base checkpoint plus every applicable chain frame. False
  /// (with status) when the base cannot be loaded — e.g. the primary has
  /// not written its first checkpoint yet; poll() keeps retrying.
  bool start(storage::LoadStatus* status = nullptr);

  /// Apply frames appended since the last poll (or start()). Returns how
  /// many landed this call; compaction by the primary triggers a full
  /// reload (counted in stats, not in the return value).
  std::size_t poll(storage::LoadStatus* status = nullptr);

  bool started() const { return started_; }
  std::uint64_t last_seq() const { return next_seq_ - 1; }

  /// Tail cursor from the newest applied frame (where the primary was).
  bool has_cursor() const { return has_cursor_; }
  std::int64_t cursor_day() const { return cursor_day_; }
  std::uint64_t cursor_offset() const { return cursor_offset_; }

  /// Rebuild the primary's incident store for engine adoption at takeover
  /// (ContinuousEngine::restore_incidents). False when no applied frame
  /// carried one.
  bool take_incidents(core::IncidentStore& store) const;

  const StandbyStats& stats() const { return stats_; }

 private:
  bool reload(storage::LoadStatus* status);
  /// Keep the failover payload (cursor, incidents) a chain load or an
  /// applied frame carried; one without a payload leaves the last standing.
  template <typename Source>
  void adopt_payload(Source& source);

  api::Detector& detector_;
  std::filesystem::path state_path_;
  bool started_ = false;
  std::uint32_t base_crc_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t applied_bytes_ = 0;
  /// Chain prefix length at the last reload-triggering mismatch: a chain
  /// that is *persistently* bad (degraded load) must not re-reload on
  /// every poll, only when the chain changes again.
  std::uint64_t suspect_bytes_ = ~std::uint64_t{0};
  bool has_cursor_ = false;
  std::int64_t cursor_day_ = 0;
  std::uint64_t cursor_offset_ = 0;
  std::optional<core::IncidentStore> incidents_;
  StandbyStats stats_{};
};

/// The monitor's live-tail settings, one field per enterprise_monitor flag.
struct FollowConfig {
  std::filesystem::path log_path;    ///< --follow: the growing log
  std::filesystem::path state_path;  ///< --state; empty = not durable
  util::Day day = 0;                 ///< --follow-day; 0 = operation_begin
  int tick_seconds = 300;            ///< --tick
  int window_seconds = 86400;        ///< --rt-window
  int idle_exit = 0;    ///< --idle-exit: stop after n empty polls; 0 = never
  int poll_ms = 200;    ///< --poll-ms: sleep after an empty poll
  std::size_t delta_every = 7;       ///< --delta-every (CheckpointPolicy)
  int stale_after_seconds = 10;      ///< --stale-after (standby takeover)
};

/// Where a run's output goes; any hook may be empty. `emission` and `day`
/// are the engine's sinks, `flush` refreshes observability files (~2 s and
/// at exit), `log` takes progress lines (warning = a failure).
struct FollowHooks {
  std::function<void(const IncidentEmission&)> emission;
  std::function<void(const core::DayReport&)> day;
  std::function<void()> flush;
  std::function<void(const std::string& line, bool warning)> log;
};

/// What a live tail did; the caller prints it.
struct FollowResult {
  bool ok = false;         ///< false: tick/window invalid, nothing ran
  util::Day day = 0;       ///< the day tailed
  /// The restored state had already closed `day`: nothing was read.
  bool already_closed = false;
  EngineStats stats{};
  api::TsvFileSource::Stats source{};
  bool saved = false;      ///< the final checkpoint landed (durable runs)
};

/// Tail config.log_path as day config.day (operation_begin when 0) until
/// config.idle_exit empty polls in a row, close the day and checkpoint.
/// A takeover passes the primary's incidents as `adopt`: emissions then
/// continue its incident ids and skip what it already announced.
FollowResult follow(api::Detector& detector, const FollowConfig& config,
                    util::Day operation_begin, const core::SocSeeds& seeds,
                    const FollowHooks& hooks,
                    core::IncidentStore* adopt = nullptr);

/// The incident store a chain load carried in its newest frame, moved out
/// of `report`: a primary restarting from its own checkpoint passes it to
/// follow() as `adopt`, so its incident ids continue and domains it
/// already announced are not announced as new again. std::nullopt when no
/// applied frame carried incidents.
std::optional<core::IncidentStore> take_chain_incidents(
    storage::ChainLoadReport& report);

/// "<state>.hb" — the primary's liveness beacon (mtime is the signal).
std::filesystem::path heartbeat_path(const std::filesystem::path& state_path);

/// Rewrite the beacon so its mtime is "now". False on I/O failure.
bool touch_heartbeat(const std::filesystem::path& path);

/// Seconds since the beacon last moved; +infinity when it does not exist.
double heartbeat_age_seconds(const std::filesystem::path& path);

/// Detector::save_state_delta, then a heartbeat touch (saved or not, the
/// primary is alive).
bool save_checkpoint(api::Detector& detector,
                     const std::filesystem::path& state_path,
                     const api::CheckpointPolicy& policy,
                     storage::LoadStatus* status = nullptr,
                     const api::CheckpointExtras& extras = {});

/// Replay the chain at config.state_path onto `detector` every
/// config.poll_ms; once the replica is trained and the heartbeat is older
/// than config.stale_after_seconds (a missing one is infinitely old), take
/// over: follow the frames' cursor day (else as follow() would) with the
/// primary's incidents. std::nullopt after config.idle_exit empty polls.
std::optional<FollowResult> standby(api::Detector& detector,
                                    const FollowConfig& config,
                                    util::Day operation_begin,
                                    const core::SocSeeds& seeds,
                                    const FollowHooks& hooks);

}  // namespace eid::rt
