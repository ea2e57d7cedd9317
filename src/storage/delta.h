// Crash-safe delta checkpoints: an append-only chain of delta frames next
// to a full EIDSTOR1 checkpoint, so daily saves cost O(day's growth), not
// O(month-scale history).
//
//   <state>        full checkpoint (storage/state.h), rewritten on
//                  compaction (every CheckpointPolicy::full_every saves)
//   <state>.delta  frame chain, truncated on every compaction
//
//   frame   := magic(8 = "EIDDELT1") payload_size(u32le) payload
//              crc32(u32le, over payload)
//   payload := a standard EIDSTOR1 container (storage/container.h)
//
// A frame payload is written by the same encoder as a full checkpoint
// (storage::encode_state with a FrameView): a DeltaHeader section binding
// it to one specific base checkpoint (the CRC-32 of the base file's bytes)
// and one position in the chain (seq: 1, 2, ...), then the full-save
// sections with the histories narrowed to the day's growth — domains
// first seen, UA entries touched — the always-small absolute sections
// (config, models, training stats, counters), training rows appended since
// the previous frame, and — when present — the rt tail cursor and the
// incident-store snapshot a hot standby needs to take over. Frames decode
// with storage::decode_delta_frame and apply with storage::apply_delta_frame.
//
// Recovery contract: a torn tail (crash mid-append) is detected by the
// frame CRC and truncated by the next append; a frame whose base CRC or
// seq does not match — or whose payload fails section CRCs or decoding —
// degrades the load to everything before it (worst case: the last full
// checkpoint), never to an error. See src/storage/FORMAT.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/state.h"

namespace eid::storage {

inline constexpr std::string_view kDeltaMagic = "EIDDELT1";

/// Chain file next to a full checkpoint: "<path>.delta".
std::filesystem::path delta_chain_path(const std::filesystem::path& path);

/// Append one encoded frame to the chain, truncating any torn tail a
/// previous crash left first, then fsyncing. On failure the chain holds at
/// worst a torn tail that the next append (or load) handles.
bool append_delta_frame(const std::filesystem::path& chain_path,
                        std::string_view payload,
                        LoadStatus* status = nullptr);

/// Frame-level scan of a chain file (CRC-checked, not decoded).
struct DeltaChainInfo {
  struct Frame {
    std::uint64_t offset = 0;  ///< frame start (magic) in the file
    std::string payload;       ///< CRC-verified container bytes
  };
  std::vector<Frame> frames;       ///< complete, CRC-clean frames in order
  std::uint64_t valid_bytes = 0;   ///< chain prefix covered by `frames`
  std::uint64_t file_bytes = 0;    ///< whole file size
  bool torn_tail = false;          ///< bytes past valid_bytes exist
  std::string tail_detail;         ///< why the scan stopped
};

/// Scan a chain file. A missing file yields an empty (ok) info; any other
/// read failure returns false with `status`.
bool read_delta_chain(const std::filesystem::path& chain_path,
                      DeltaChainInfo& info, LoadStatus* status = nullptr);

/// What a chain-aware load did, for logging and for resuming the chain.
struct ChainLoadReport {
  std::uint32_t base_crc = 0;        ///< CRC-32 of the base file bytes
  std::uint64_t last_seq = 0;        ///< seq of the last applied frame
  std::size_t frames_applied = 0;
  std::size_t frames_dropped = 0;    ///< CRC-clean frames not applied
  bool degraded = false;             ///< stopped early on a bad frame
  bool torn_tail = false;            ///< chain ended in a torn append
  std::uint64_t applied_bytes = 0;   ///< chain prefix the applied frames span
  std::string detail;                ///< why frames were dropped, if any
  // Latest failover payload seen across applied frames:
  bool has_cursor = false;
  std::int64_t cursor_day = 0;
  std::uint64_t cursor_offset = 0;
  bool has_incidents = false;
  int incidents_next_id = 0;
  std::vector<core::Incident> incidents;
};

/// Load a full checkpoint plus its delta chain: decode the base file, then
/// apply every frame whose base CRC, seq and contents check out, stopping
/// (degraded, not failed) at the first frame that does not. nullopt only
/// when the base itself cannot be loaded. Every detector load goes through
/// here; the whole load, chain replay included, is timed into
/// eid_state_load_seconds.
std::optional<DetectorState> load_detector_state_chain(
    const std::filesystem::path& path, ChainLoadReport* report = nullptr,
    LoadStatus* status = nullptr);

}  // namespace eid::storage
