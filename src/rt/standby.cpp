#include "rt/standby.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace eid::rt {

namespace {

/// Frame header + trailer bytes around a payload in the chain file
/// (magic(8) + size(4) ... crc(4)); see storage/delta.h.
constexpr std::uint64_t kFrameOverhead = 8 + 4 + 4;

}  // namespace

StandbyReplica::StandbyReplica(api::Detector& detector, StandbyConfig config)
    : detector_(detector), config_(std::move(config)) {}

void StandbyReplica::adopt_report(storage::ChainLoadReport&& report) {
  base_crc_ = report.base_crc;
  next_seq_ = report.last_seq + 1;
  applied_bytes_ = report.applied_bytes;
  if (report.has_cursor) {
    has_cursor_ = true;
    cursor_day_ = report.cursor_day;
    cursor_offset_ = report.cursor_offset;
  }
  if (report.has_incidents) {
    has_incidents_ = true;
    incidents_next_id_ = report.incidents_next_id;
    incidents_ = std::move(report.incidents);
  }
}

bool StandbyReplica::start(storage::LoadStatus* status) {
  storage::ChainLoadReport report;
  if (!detector_.load_state(config_.state_path, &report, status)) {
    started_ = false;
    return false;
  }
  started_ = true;
  // adopt_report only overwrites the cursor/incidents when the new chain
  // carries them: right after a compaction the chain is empty, and the
  // previously applied frame's payload is still the latest known.
  adopt_report(std::move(report));
  return true;
}

bool StandbyReplica::reload(storage::LoadStatus* status) {
  ++stats_.full_reloads;
  obs::metrics().counter("eid_standby_reloads_total").add(1);
  return start(status);
}

std::size_t StandbyReplica::poll(storage::LoadStatus* status) {
  ++stats_.polls;
  if (!started_ && !start(status)) return 0;
  storage::DeltaChainInfo info;
  storage::LoadStatus local;
  if (!storage::read_delta_chain(storage::delta_chain_path(config_.state_path),
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
    if (decoded->has_cursor) {
      has_cursor_ = true;
      cursor_day_ = decoded->cursor_day;
      cursor_offset_ = decoded->cursor_offset;
    }
    if (decoded->has_incidents) {
      has_incidents_ = true;
      incidents_next_id_ = decoded->incidents_next_id;
      incidents_ = std::move(decoded->incidents);
    }
  }
  if (info.torn_tail) ++stats_.torn_waits;  // append in progress: wait
  if (applied > 0) {
    obs::metrics().counter("eid_standby_frames_applied_total").add(applied);
  }
  return applied;
}

bool StandbyReplica::take_incidents(core::IncidentStore& store) const {
  if (!has_incidents_) return false;
  store.restore(incidents_, incidents_next_id_);
  return true;
}

std::filesystem::path heartbeat_path(const std::filesystem::path& state_path) {
  std::filesystem::path path = state_path;
  path += ".hb";
  return path;
}

bool touch_heartbeat(const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  out << "alive\n";
  out.flush();
  return static_cast<bool>(out);
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

}  // namespace eid::rt
