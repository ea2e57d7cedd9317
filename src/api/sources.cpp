#include "api/sources.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#ifndef _WIN32
#include <sys/stat.h>
#endif

#include "logs/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"

namespace eid::api {

namespace {

/// Ingestion accounting on the process registry, fed as deltas from the
/// per-source Stats after each next_chunk() — the Stats structs remain
/// the single source of truth; these are the fleet-wide totals.
struct SourceMetrics {
  obs::Counter& lines = obs::metrics().counter("eid_source_lines_total");
  obs::Counter& parsed = obs::metrics().counter("eid_source_parsed_lines_total");
  obs::Counter& malformed =
      obs::metrics().counter("eid_source_malformed_lines_total");
  obs::Counter& bytes = obs::metrics().counter("eid_source_bytes_total");
  obs::Counter& events = obs::metrics().counter("eid_source_events_total");
  obs::Gauge& partial_line =
      obs::metrics().gauge("eid_source_partial_line_bytes");
  obs::Counter& rotations =
      obs::metrics().counter("eid_source_rotations_total");
  obs::Counter& transient_errors =
      obs::metrics().counter("eid_source_transient_errors_total");
  obs::Counter& flows = obs::metrics().counter("eid_source_flows_total");
  obs::Counter& flows_kept =
      obs::metrics().counter("eid_source_flows_kept_total");
  obs::Counter& flows_unattributed =
      obs::metrics().counter("eid_source_flows_unattributed_total");
  /// Parse + reduce seconds of each TsvFileSource / NetflowSource
  /// next_chunk() call.
  obs::Histogram& parse_seconds = obs::metrics().histogram(
      "eid_source_parse_seconds", obs::duration_buckets());
};

SourceMetrics& source_metrics() {
  static SourceMetrics metrics;
  return metrics;
}

}  // namespace

// ---------------------------------------------------------------------------
// TsvFileSource

TsvFileSource::TsvFileSource(std::filesystem::path path, util::Day day,
                             const logs::DhcpTable& leases,
                             logs::ProxyReductionConfig reduction,
                             std::size_t chunk_records)
    : path_(std::move(path)),
      day_(day),
      format_(Format::Proxy),
      leases_(&leases),
      proxy_reduction_(std::move(reduction)),
      chunk_records_(chunk_records == 0 ? kDefaultChunkEvents : chunk_records) {
  open();
}

TsvFileSource::TsvFileSource(std::filesystem::path path, util::Day day,
                             logs::DnsReductionConfig reduction,
                             std::size_t chunk_records)
    : path_(std::move(path)),
      day_(day),
      format_(Format::Dns),
      dns_reduction_(std::move(reduction)),
      chunk_records_(chunk_records == 0 ? kDefaultChunkEvents : chunk_records) {
  open();
}

void TsvFileSource::open() {
  util::FaultInjector& faults = util::FaultInjector::instance();
  if (faults.any_armed() && faults.fail_open(util::FaultPoint::TailOpen)) {
    stats_.opened = false;
    return;
  }
  file_.open(path_, std::ios::binary);
  stats_.opened = static_cast<bool>(file_);
  identity_known_ = false;
  block_pos_ = 0;
  block_end_ = 0;
  at_eof_ = false;
#ifndef _WIN32
  if (stats_.opened) {
    struct ::stat st{};
    if (::stat(path_.c_str(), &st) == 0) {
      file_dev_ = static_cast<std::uint64_t>(st.st_dev);
      file_ino_ = static_cast<std::uint64_t>(st.st_ino);
      identity_known_ = true;
    }
  }
#endif
}

void TsvFileSource::publish_stats() {
  SourceMetrics& metrics = source_metrics();
  metrics.lines.add(stats_.lines - published_.lines);
  metrics.parsed.add(stats_.parsed - published_.parsed);
  metrics.malformed.add(stats_.malformed - published_.malformed);
  metrics.bytes.add(stats_.byte_offset - published_.byte_offset);
  metrics.events.add(stats_.events - published_.events);
  metrics.rotations.add(stats_.rotations - published_.rotations);
  metrics.transient_errors.add(stats_.transient_errors -
                               published_.transient_errors);
  metrics.partial_line.set(static_cast<double>(stats_.partial_line_bytes));
  published_ = stats_;
}

bool TsvFileSource::detect_rotation() {
#ifndef _WIN32
  struct ::stat st{};
  if (::stat(path_.c_str(), &st) != 0) {
    // The path vanished: logrotate's unlink window, or the collector died.
    // Treat as transient — a recreated file is picked up (as a rotation)
    // on a later poll.
    return false;
  }
  if (identity_known_ && (static_cast<std::uint64_t>(st.st_dev) != file_dev_ ||
                          static_cast<std::uint64_t>(st.st_ino) != file_ino_)) {
    return true;  // renamed away and recreated
  }
  if (static_cast<std::uint64_t>(st.st_size) < stats_.byte_offset) {
    return true;  // truncated in place (copytruncate rotation)
  }
#else
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (!ec && size < stats_.byte_offset) return true;
#endif
  return false;
}

void TsvFileSource::note_transient_error() {
  ++stats_.transient_errors;
  backoff_polls_ = std::min<std::size_t>(
      backoff_polls_ == 0 ? 1 : backoff_polls_ * 2, 32);
  backoff_remaining_ = backoff_polls_;
}

std::optional<EventChunk> TsvFileSource::next_chunk() {
  if (tail_) {
    // Exponential backoff after transient failures: sit out this poll.
    if (backoff_remaining_ > 0) {
      --backoff_remaining_;
      return std::nullopt;
    }
    // The file may not exist yet (collector not started): retry the open.
    // That is expected startup state — the contract is "retried on every
    // call" — so only an open that fails with the file *present* counts
    // as a transient error and backs off.
    if (!stats_.opened) {
      file_.close();
      file_.clear();
      open();
      if (!stats_.opened) {
        std::error_code ec;
        if (std::filesystem::exists(path_, ec)) note_transient_error();
        publish_stats();
        return std::nullopt;
      }
    }
    if (detect_rotation()) {
      // New file under the same name (or truncated in place): everything
      // already consumed is gone; start over at offset 0. Reset the
      // published cursor with it or the byte-delta math underflows.
      ++stats_.rotations;
      stats_.byte_offset = 0;
      published_.byte_offset = 0;
      stats_.partial_line_bytes = 0;
      file_.close();
      file_.clear();
      open();
      if (!stats_.opened) {
        note_transient_error();
        publish_stats();
        return std::nullopt;
      }
    }
    util::FaultInjector& faults = util::FaultInjector::instance();
    if (faults.any_armed()) {
      bool fail = false;
      std::string probe;  // FailOp is the only meaningful tail-read fault
      faults.filter_read(util::FaultPoint::TailRead, probe, fail);
      if (fail) {
        note_transient_error();
        publish_stats();
        return std::nullopt;
      }
    }
    backoff_polls_ = 0;  // reachable and readable: full retry speed again
    // Clear a previous pass's eof and read on from where the buffered
    // bytes end. A partially written trailing line stays buffered and is
    // taken whole once its newline lands.
    file_.clear();
    file_.seekg(static_cast<std::streamoff>(stats_.byte_offset +
                                            (block_end_ - block_pos_)));
    at_eof_ = false;
  }
  const obs::TraceSpan span("source_parse", source_metrics().parse_seconds,
                            "ingest");
  // A chunk of records can reduce to zero events (all dropped); keep
  // reading until something survives or the file is exhausted.
  while (stats_.opened) {
    std::size_t parsed = 0;
    if (format_ == Format::Dns) {
      logs::DnsReducer reducer(dns_reduction_);
      parsed = read_chunk(logs::parse_dns_fields, reducer);
    } else {
      logs::ProxyReducer reducer(*leases_, proxy_reduction_);
      parsed = read_chunk(logs::parse_proxy_fields, reducer);
    }
    if (parsed == 0) break;
    if (chunk_events_ > 0) {
      const std::span<logs::ConnEvent> events(buffer_.data(), chunk_events_);
      logs::order_by_time(events, order_keys_);
      stats_.events += chunk_events_;
      publish_stats();
      return EventChunk{day_, events};
    }
  }
  publish_stats();
  if (!tail_) {
    // Drained: the buffers are not needed again (reset() re-grows them),
    // and the consumer often finishes the day while this source lives.
    std::vector<char>().swap(block_);
    block_pos_ = 0;
    block_end_ = 0;
    std::vector<logs::ConnEvent>().swap(buffer_);
    logs::TimeOrderKeys().swap(order_keys_);
    chunk_events_ = 0;
  }
  // Day-boundary marker: a readable file whose lines all reduced away is
  // still an (empty) day, exactly like the legacy read-then-profile loop.
  // Not in tail mode — there the stream has no end, only "nothing yet".
  if (!tail_ && stats_.opened && stats_.events == 0 && !empty_marker_sent_) {
    empty_marker_sent_ = true;
    return EventChunk{day_, {}};
  }
  return std::nullopt;
}

bool TsvFileSource::next_line(std::string_view& line) {
  while (true) {
    const char* begin = block_.data() + block_pos_;
    const std::size_t available = block_end_ - block_pos_;
    if (available > 0) {
      if (const void* newline = std::memchr(begin, '\n', available)) {
        const std::size_t length =
            static_cast<std::size_t>(static_cast<const char*>(newline) - begin);
        line = std::string_view(begin, length);
        block_pos_ += length + 1;
        return true;
      }
    }
    if (at_eof_) return false;
    // Move the unterminated tail to the front and fill the rest; a line
    // longer than the whole block doubles it.
    if (block_pos_ > 0) {
      std::memmove(block_.data(), begin, available);
      block_pos_ = 0;
      block_end_ = available;
    }
    if (block_end_ == block_.size()) {
      block_.resize(std::max(kReadBlockBytes, 2 * block_.size()));
    }
    file_.read(block_.data() + block_end_,
               static_cast<std::streamsize>(block_.size() - block_end_));
    block_end_ += static_cast<std::size_t>(file_.gcount());
    if (!file_) at_eof_ = true;  // short read: end of file (or read error)
  }
}

template <typename Parse, typename Reducer>
std::size_t TsvFileSource::read_chunk(Parse parse, Reducer& reducer) {
  std::size_t parsed = 0;
  chunk_events_ = 0;
  while (parsed < chunk_records_) {
    std::string_view line;
    if (next_line(line)) {
      stats_.byte_offset += line.size() + 1;
      stats_.partial_line_bytes = 0;
    } else {
      // A final line with no newline. In tail mode it may still be
      // mid-write: leave it (and the offset) for the next poll. Batch
      // mode takes it as-is.
      const std::size_t rest = block_end_ - block_pos_;
      if (rest == 0) break;
      if (tail_) {
        stats_.partial_line_bytes = rest;
        break;
      }
      line = std::string_view(block_.data() + block_pos_, rest);
      block_pos_ = block_end_;
      stats_.byte_offset += rest;
    }
    if (line.empty()) continue;
    ++stats_.lines;
    const auto fields = parse(line);
    if (!fields) {
      ++stats_.malformed;
      continue;
    }
    ++parsed;
    ++stats_.parsed;
    if (chunk_events_ == buffer_.size()) {
      if (buffer_.empty()) {
        buffer_.reserve(std::min(chunk_records_, kDefaultChunkEvents));
      }
      buffer_.emplace_back();
    }
    if (reducer.reduce(*fields, buffer_[chunk_events_])) ++chunk_events_;
  }
  return parsed;
}

bool TsvFileSource::reset() {
  file_.close();
  file_.clear();
  stats_ = Stats{};
  published_ = Stats{};  // a replay's counts are new fleet-total increments
  chunk_events_ = 0;
  empty_marker_sent_ = false;
  backoff_polls_ = 0;
  backoff_remaining_ = 0;
  open();
  return stats_.opened;
}

// ---------------------------------------------------------------------------
// SimSource

SimSource::SimSource(sim::EnterpriseSimulator& simulator, util::Day first,
                     util::Day last, std::size_t chunk_events)
    : simulator_(&simulator),
      next_day_(first),
      last_(last),
      chunk_events_(chunk_events == 0 ? kDefaultChunkEvents : chunk_events) {}

std::optional<EventChunk> SimSource::next_chunk() {
  while (pos_ >= buffer_.size()) {
    if (next_day_ > last_) return std::nullopt;
    current_day_ = next_day_++;
    buffer_ = simulator_->reduced_day(current_day_);
    pos_ = 0;
    // Day-boundary marker for a day with no surviving events.
    if (buffer_.empty()) return EventChunk{current_day_, {}};
  }
  const std::size_t count = std::min(chunk_events_, buffer_.size() - pos_);
  EventChunk chunk{current_day_, std::span(buffer_.data() + pos_, count)};
  pos_ += count;
  return chunk;
}

// ---------------------------------------------------------------------------
// NetflowSource

NetflowSource::NetflowSource(util::Day day, std::vector<logs::FlowRecord> flows,
                             const logs::PassiveDnsCache& pdns,
                             logs::FlowReductionConfig reduction,
                             std::size_t chunk_flows)
    : day_(day),
      flows_(std::move(flows)),
      pdns_(&pdns),
      reduction_(std::move(reduction)),
      chunk_flows_(chunk_flows == 0 ? kDefaultChunkEvents : chunk_flows) {}

std::optional<EventChunk> NetflowSource::next_chunk() {
  const obs::TraceSpan span("source_parse", source_metrics().parse_seconds,
                            "ingest");
  while (pos_ < flows_.size()) {
    const std::size_t count = std::min(chunk_flows_, flows_.size() - pos_);
    logs::FlowReductionStats chunk_stats;
    buffer_ = logs::reduce_flows(
        std::span(flows_.data() + pos_, count), *pdns_, reduction_, &chunk_stats);
    pos_ += count;
    stats_.total_flows += chunk_stats.total_flows;
    stats_.port_filtered += chunk_stats.port_filtered;
    stats_.internal_destinations += chunk_stats.internal_destinations;
    stats_.unattributed += chunk_stats.unattributed;
    stats_.kept += chunk_stats.kept;
    SourceMetrics& metrics = source_metrics();
    metrics.flows.add(chunk_stats.total_flows);
    metrics.flows_kept.add(chunk_stats.kept);
    metrics.flows_unattributed.add(chunk_stats.unattributed);
    if (!buffer_.empty()) return EventChunk{day_, buffer_};
  }
  // Day-boundary marker for a day where no flow survived attribution.
  if (stats_.kept == 0 && !empty_marker_sent_) {
    empty_marker_sent_ = true;
    return EventChunk{day_, {}};
  }
  return std::nullopt;
}

bool NetflowSource::reset() {
  pos_ = 0;
  stats_ = logs::FlowReductionStats{};
  buffer_.clear();
  empty_marker_sent_ = false;
  return true;
}

}  // namespace eid::api
