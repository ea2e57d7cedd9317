// Detector checkpoint/restore: the full state an eid deployment accumulates
// over months — domain/UA histories, the top-sites whitelist, both trained
// scoring models, WHOIS training aggregates, external intel and lifetime
// counters — bundled into one binary container (storage/container.h) so a
// restarted process resumes exactly where the previous one stopped: a
// detector saved after day N and restored elsewhere produces bit-identical
// DayReports for day N+1 (tests/storage_checkpoint_test.cpp).
//
// All sections share one interned string table (sorted, front-coded,
// encoded shard-parallel via util::parallel_ranges), so a host name that
// appears in a thousand UA entries is written once and referenced by a
// 1-3 byte varint id — the compact on-disk interned format for month-scale
// histories.
//
// One codec serves full checkpoints and delta frames (storage/delta.h): a
// frame is the same sections narrowed to one day's growth plus a header,
// and a full checkpoint decodes as a frame applied to an empty state.
// encode_state() is the only encoder, apply_delta_frame() the only place
// decoded sections reach a DetectorState.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/incidents.h"
#include "core/pipeline.h"
#include "storage/container.h"

namespace eid::storage {

/// WHOIS aggregates accumulated during training. They seed the per-day
/// WhoisDefaults of every operation analysis, so a checkpoint without them
/// would not reproduce the uninterrupted run bit for bit.
struct TrainingStats {
  double whois_age_sum = 0.0;
  double whois_validity_sum = 0.0;
  std::uint64_t whois_samples = 0;
  bool models_ready = false;  ///< finalize_training()/set_models() happened
};

/// Lifetime counters beyond DomainHistory::days_ingested (which travels
/// inside the domain-history section).
struct Counters {
  std::uint64_t days_operated = 0;  ///< completed operation days (run_day)
};

/// Unfinalized regression rows accumulated during training, flattened
/// row-major. Carried in checkpoints taken before finalize_training() so
/// a crash mid-training resumes with the exact rows an uninterrupted run
/// would hand to the solver. Once the models are finalized the rows are
/// dropped (an operating detector never re-trains from them).
struct TrainingRows {
  std::uint64_t cc_cols = 0;       ///< features::kCcFeatureCount when rows exist
  std::uint64_t sim_cols = 0;      ///< features::kSimFeatureCount when rows exist
  std::vector<double> cc;          ///< cc_cols doubles per labeled C&C row
  std::vector<double> cc_labels;   ///< one label per C&C row
  std::vector<double> sim;         ///< sim_cols doubles per similarity row
  std::vector<double> sim_labels;  ///< one label per similarity row

  bool empty() const { return cc_labels.empty() && sim_labels.empty(); }
};

/// Everything needed to resume an api::Detector in a fresh process.
struct DetectorState {
  core::PipelineConfig config{};
  profile::DomainHistory domain_history;
  profile::UaHistory ua_history;
  bool has_top_sites = false;  ///< a whitelist was installed when saved
  profile::TopSitesList top_sites;
  core::ScoredModel cc_model;
  core::ScoredModel sim_model;
  TrainingStats training{};
  std::vector<std::string> intel_domains;  ///< external IOC feed snapshot
  Counters counters{};
  TrainingRows training_rows{};  ///< non-empty only before models_ready
};

/// Section 20: binds a delta frame to one base checkpoint and one chain
/// position.
struct DeltaHeader {
  std::uint32_t base_crc = 0;  ///< CRC-32 of the base checkpoint file bytes
  std::uint64_t seq = 0;       ///< 1 for the first frame after a full save
  std::int64_t day = 0;        ///< day the frame was written for
};

/// What a delta frame adds to a full save: the header, the journal that
/// narrows sections 3/4 to one day's growth, and the failover payload.
struct FrameView {
  DeltaHeader header;
  /// Section 3 carries only these domains (first seen since the previous
  /// frame); section 4 only these UA entries (touched since then).
  const std::vector<std::string>* new_domains = nullptr;  ///< required
  const std::vector<std::string>* touched_uas = nullptr;  ///< required
  bool has_cursor = false;
  std::int64_t cursor_day = 0;       ///< day the tail cursor points into
  std::uint64_t cursor_offset = 0;   ///< byte offset into that day's log
  const core::IncidentStore* incidents = nullptr;  ///< when tracking incidents
};

/// Borrowed view of what one container carries, so the daily save never
/// copies month-scale histories. Without `frame` it encodes a full
/// checkpoint; with it, a delta frame. Optional sections are written only
/// when their pointer is set (and, for training rows, non-empty).
struct StateView {
  const core::PipelineConfig* config = nullptr;
  const profile::DomainHistory* domain_history = nullptr;
  const profile::UaHistory* ua_history = nullptr;
  const profile::TopSitesList* top_sites = nullptr;  ///< section 5
  const core::ScoredModel* cc_model = nullptr;
  const core::ScoredModel* sim_model = nullptr;
  TrainingStats training{};
  const std::vector<std::string>* intel_domains = nullptr;  ///< section 9
  Counters counters{};
  const TrainingRows* training_rows = nullptr;  ///< section 11
  const FrameView* frame = nullptr;
};

/// Full-checkpoint view of an owning state (empty intel writes no section).
StateView view_of(const DetectorState& state);

/// The one encoder: container bytes for a full checkpoint or a delta frame.
/// `n_threads` parallelizes the string-table encode (fixed block partition:
/// the bytes are identical for any value); `executor` (optional) carries
/// that fan-out on a persistent pool.
std::string encode_state(const StateView& view, std::size_t n_threads = 1,
                         util::Executor* executor = nullptr);

inline std::string encode_detector_state(const DetectorState& state,
                                         std::size_t n_threads = 1,
                                         util::Executor* executor = nullptr) {
  return encode_state(view_of(state), n_threads, executor);
}

/// One decoded delta frame (owning). `sections` holds the frame's sections
/// in the full-save layout: its histories contain only the day's growth.
struct DeltaFrame {
  DeltaHeader header;
  DetectorState sections;
  bool has_intel = false;  ///< section 9 present: it replaces the intel feed
  bool has_cursor = false;
  std::int64_t cursor_day = 0;
  std::uint64_t cursor_offset = 0;
  bool has_incidents = false;
  int incidents_next_id = 0;
  std::vector<core::Incident> incidents;
};

/// Decode a full checkpoint: its sections, applied to an empty state.
std::optional<DetectorState> decode_detector_state(std::string_view bytes,
                                                   LoadStatus* status = nullptr);

/// Decode a frame payload (the container inside an EIDDELT1 frame).
std::optional<DeltaFrame> decode_delta_frame(std::string_view payload,
                                             LoadStatus* status = nullptr);

/// The one routine that applies decoded sections to a state: a full load,
/// each frame of a chain load, and a standby replica all go through it.
/// Absolute sections replace; histories absorb the frame's domains and UA
/// entries (an empty state adopts them wholesale); training rows append.
/// `frame.sections` is moved into the state; the header and failover
/// payload are left for the caller. Everything is validated before
/// anything is written, so on false (with status) both are unchanged.
bool apply_delta_frame(DetectorState& state, DeltaFrame& frame,
                       LoadStatus* status = nullptr);

/// Encode and write: the one save path. A full view replaces `path`
/// atomically (tmp file + rename) and is timed into eid_state_save_seconds;
/// a frame view (`state.frame` set) is appended to the chain file `path`
/// (storage/delta.h) and timed into eid_state_delta_save_seconds. `crc`
/// (optional) receives the CRC-32 of the written container bytes.
bool save_detector_state(const StateView& state,
                         const std::filesystem::path& path,
                         std::size_t n_threads = 1,
                         LoadStatus* status = nullptr,
                         util::Executor* executor = nullptr,
                         std::uint32_t* crc = nullptr);
inline bool save_detector_state(const DetectorState& state,
                                const std::filesystem::path& path,
                                std::size_t n_threads = 1,
                                LoadStatus* status = nullptr,
                                util::Executor* executor = nullptr) {
  return save_detector_state(view_of(state), path, n_threads, status,
                             executor);
}

/// Read and decode one full checkpoint file, ignoring any delta chain
/// (load_detector_state_chain, which times the whole load, reads its base
/// through this). `crc` (optional) receives the CRC-32 of the file bytes.
std::optional<DetectorState> load_detector_state(
    const std::filesystem::path& path, LoadStatus* status = nullptr,
    std::uint32_t* crc = nullptr);

}  // namespace eid::storage
