// Concrete EventSource adapters for the workloads the system ingests:
//
//  * TsvFileSource   — replayed TSV log files (logs/io.h line formats),
//                      parsed and reduced chunk-by-chunk so a multi-
//                      terabyte file never has to fit in memory. Malformed
//                      lines follow the std::nullopt contract of
//                      logs::parse_*: counted, skipped, never aborting.
//  * SimSource       — live simulated enterprise traffic over a day range
//                      (sim::EnterpriseSimulator), day by day.
//  * NetflowSource   — NetFlow records attributed through a passive-DNS
//                      cache (logs/netflow.h), reduced chunk-by-chunk.
//
// All adapters emit the same reduced ConnEvent stream, so every workload
// flows through one uniform api::Detector entry point.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <vector>

#include "api/event_source.h"
#include "logs/dhcp.h"
#include "logs/netflow.h"
#include "logs/reduction.h"
#include "sim/enterprise.h"

namespace eid::api {

/// Streams one day's TSV log file (DNS or proxy flavor) as reduced events.
/// The file is read in fixed blocks (kReadBlockBytes, reused; it grows only
/// to hold a single longer line) and split into lines in place. Each line
/// is parsed with logs::parse_dns_fields / logs::parse_proxy_fields into
/// views and reduced at once by the matching logs::DnsReducer /
/// logs::ProxyReducer into a reused event buffer — no per-record heap
/// object. A drained batch-mode source frees both buffers. A chunk is
/// chunk_records parsed records, ordered by timestamp like logs::reduce_*,
/// so with an unsorted file the concatenated stream is only chunk-locally
/// ordered — all downstream analysis is order-independent (edge
/// timestamps are re-sorted at finalize), so results do not depend on the
/// chunking.
class TsvFileSource final : public EventSource {
 public:
  /// Per-file ingestion accounting, surfaced to operators (a deployment
  /// must notice a collector that starts writing garbage).
  struct Stats {
    std::size_t lines = 0;      ///< non-empty lines read
    std::size_t parsed = 0;     ///< lines parsed into records
    std::size_t malformed = 0;  ///< std::nullopt from logs::parse_*
    std::size_t events = 0;     ///< reduced events handed out
    /// Tail mode: times the file was detected as rotated or truncated
    /// (inode/device changed, or it shrank below the cursor) and re-read
    /// from offset 0.
    std::size_t rotations = 0;
    /// Tail mode: transient open/read failures absorbed (each backs the
    /// retry cadence off exponentially; any successful poll resets it).
    std::size_t transient_errors = 0;
    /// Byte offset just past the last *complete* line consumed — the
    /// resume point for tail mode, and an operator-visible progress
    /// cursor for batch replay.
    std::uint64_t byte_offset = 0;
    /// Bytes of a partially written trailing line seen at the end of the
    /// last tail-mode poll (no newline yet, so not parsed and not counted
    /// malformed). 0 once the newline lands or outside tail mode. Lets an
    /// operator distinguish "collector idle" from "collector stalled
    /// mid-line" — also the eid_source_partial_line_bytes gauge.
    std::size_t partial_line_bytes = 0;
    bool opened = false;
  };

  /// Proxy flavor. `leases` must outlive the source.
  TsvFileSource(std::filesystem::path path, util::Day day,
                const logs::DhcpTable& leases,
                logs::ProxyReductionConfig reduction,
                std::size_t chunk_records = kDefaultChunkEvents);

  /// DNS flavor.
  TsvFileSource(std::filesystem::path path, util::Day day,
                logs::DnsReductionConfig reduction,
                std::size_t chunk_records = kDefaultChunkEvents);

  /// Parse + reduce time of each call is one eid_source_parse_seconds
  /// observation.
  std::optional<EventChunk> next_chunk() override;
  bool reset() override;

  /// Tail a growing file (`enterprise_monitor --follow`). next_chunk()
  /// then never reports end-of-stream as final: when the file is
  /// exhausted it returns std::nullopt for *now*, and a later call
  /// resumes at the last complete line's byte offset to pick up appended
  /// data. A partially written trailing line (no newline yet) is left
  /// untouched — not parsed, not counted malformed — until its newline
  /// lands. A file that does not exist yet is retried on every call.
  /// The day-boundary marker for an all-empty file is suppressed (a tail
  /// never knows the day is over; the engine closes days from chunk tags
  /// or finish()).
  void set_tail(bool enabled) { tail_ = enabled; }

  /// Per-source ingestion accounting. The same counts feed the process
  /// metrics registry (eid_source_* series) as deltas after every
  /// next_chunk() call; this struct stays the per-file view.
  const Stats& stats() const { return stats_; }

 private:
  enum class Format { Dns, Proxy };

  /// Read-block size: large enough that reads are few, small enough that
  /// a source's resident footprint does not scale with the file.
  static constexpr std::size_t kReadBlockBytes = 64 * 1024;

  void open();
  void publish_stats();
  /// The next newline-terminated line (newline excluded), reading more of
  /// the file as needed. False at the end of the data read so far; the
  /// block then holds only the unterminated tail, if any.
  bool next_line(std::string_view& line);
  /// Parse and reduce up to chunk_records_ records into buffer_[0,
  /// chunk_events_). Returns the records parsed.
  template <typename Parse, typename Reducer>
  std::size_t read_chunk(Parse parse, Reducer& reducer);
  /// Tail mode: did the file under `path_` rotate (new inode/device) or
  /// shrink below the cursor? Detecting it resets the cursor to 0.
  bool detect_rotation();
  /// Count a transient open/read failure and double the retry backoff
  /// (capped): the next `backoff_remaining_` polls return "nothing yet"
  /// without touching the file.
  void note_transient_error();

  std::filesystem::path path_;
  util::Day day_;
  Format format_;
  const logs::DhcpTable* leases_ = nullptr;
  logs::ProxyReductionConfig proxy_reduction_;
  logs::DnsReductionConfig dns_reduction_;
  std::size_t chunk_records_;

  std::ifstream file_;
  /// Bytes read from file_; [block_pos_, block_end_) is not yet consumed
  /// and starts at file offset stats_.byte_offset.
  std::vector<char> block_;
  std::size_t block_pos_ = 0;
  std::size_t block_end_ = 0;
  bool at_eof_ = false;  ///< the last read reached the end of the file
  Stats stats_;
  Stats published_;  ///< registry counters already cover these amounts
  /// Event slots reused across chunks (their strings keep their capacity);
  /// the current chunk is [0, chunk_events_).
  std::vector<logs::ConnEvent> buffer_;
  std::size_t chunk_events_ = 0;
  logs::TimeOrderKeys order_keys_;
  bool empty_marker_sent_ = false;
  bool tail_ = false;

  // Tail-mode file identity (rotation detection) and retry backoff.
  bool identity_known_ = false;
  std::uint64_t file_dev_ = 0;
  std::uint64_t file_ino_ = 0;
  std::size_t backoff_polls_ = 0;     ///< current backoff width (polls)
  std::size_t backoff_remaining_ = 0; ///< polls left before the next retry
};

/// Streams simulated enterprise traffic for [first, last], one day at a
/// time, in caller-sized chunks. Forward-only (simulators advance their
/// DHCP world chronologically), so reset() returns false.
class SimSource final : public EventSource {
 public:
  SimSource(sim::EnterpriseSimulator& simulator, util::Day first,
            util::Day last, std::size_t chunk_events = kDefaultChunkEvents);

  std::optional<EventChunk> next_chunk() override;
  bool reset() override { return false; }

  /// Simulating a day mutates the scenario's shared WHOIS database, which
  /// analysis threads read — day commits must not overlap the pull.
  bool concurrent_pull_safe() const override { return false; }

 private:
  sim::EnterpriseSimulator* simulator_;
  util::Day next_day_;
  util::Day last_;
  util::Day current_day_ = 0;
  std::size_t chunk_events_;

  std::vector<logs::ConnEvent> buffer_;
  std::size_t pos_ = 0;
};

/// Streams one day of NetFlow records, attributing each flow to a domain
/// through the passive-DNS cache and reducing chunk-by-chunk. `pdns` must
/// outlive the source.
class NetflowSource final : public EventSource {
 public:
  NetflowSource(util::Day day, std::vector<logs::FlowRecord> flows,
                const logs::PassiveDnsCache& pdns,
                logs::FlowReductionConfig reduction = {},
                std::size_t chunk_flows = kDefaultChunkEvents);

  std::optional<EventChunk> next_chunk() override;
  bool reset() override;

  /// Reduction accounting aggregated over the chunks handed out so far.
  const logs::FlowReductionStats& stats() const { return stats_; }

 private:
  util::Day day_;
  std::vector<logs::FlowRecord> flows_;
  const logs::PassiveDnsCache* pdns_;
  logs::FlowReductionConfig reduction_;
  std::size_t chunk_flows_;

  std::size_t pos_ = 0;
  logs::FlowReductionStats stats_;
  std::vector<logs::ConnEvent> buffer_;
  bool empty_marker_sent_ = false;
};

}  // namespace eid::api
