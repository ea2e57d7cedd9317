// Data normalization and reduction (§IV-A).
//
// DNS (LANL): keep only A records, drop queries for internal resources and
// queries issued by internal servers, fold domains. Each stage's record and
// distinct-domain counts are exposed so Fig. 2 (domains remaining after each
// reduction step) can be regenerated.
//
// Proxy (AC): normalize collector-local timestamps to UTC, resolve DHCP/VPN
// source addresses to stable hostnames, drop IP-literal destinations, fold
// domains, and extract the fields used downstream (UA, referer, status).
//
// Each format has one per-record rule (DnsReducer / ProxyReducer) that reads
// field views and writes one ConnEvent in place, reusing its strings'
// capacity. reduce_dns / reduce_proxy run it over owned records;
// api::TsvFileSource runs it straight on the views of each parsed line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "logs/dhcp.h"
#include "logs/folding.h"
#include "logs/records.h"
#include "util/interner.h"

namespace eid::logs {

/// Configuration for LANL-style DNS reduction.
struct DnsReductionConfig {
  /// Suffixes (folded or unfolded) identifying internal resources to drop,
  /// e.g. {"lanl.internal"}.
  std::vector<std::string> internal_suffixes;
  /// Source hosts that are internal servers (their queries are dropped,
  /// since the detector targets client compromise).
  util::TransparentStringSet internal_servers;
  /// LANL domain names are anonymized, so the paper folds to third level.
  FoldLevel fold_level = FoldLevel::ThirdLevel;
};

/// Per-stage counters matching the series of Fig. 2.
struct DnsReductionStats {
  std::size_t total_records = 0;
  std::size_t a_records = 0;
  std::size_t after_internal_query_filter = 0;
  std::size_t after_server_filter = 0;

  /// Distinct folded domains surviving each stage.
  std::size_t domains_all = 0;
  std::size_t domains_after_internal_filter = 0;
  std::size_t domains_after_server_filter = 0;
  std::size_t hosts_after_server_filter = 0;
};

/// The per-record DNS rule: keep A records, drop internal queries and
/// queries by internal servers, fold. The distinct-name sets behind the
/// stats' distinct counts are kept only when `stats` is given.
class DnsReducer {
 public:
  /// Resets *stats; config (and stats) must outlive the reducer.
  explicit DnsReducer(const DnsReductionConfig& config,
                      DnsReductionStats* stats = nullptr);
  DnsReducer(const DnsReducer&) = delete;
  DnsReducer& operator=(const DnsReducer&) = delete;

  /// Reduce one record into `out`, overwriting every field. False when
  /// the record is dropped (`out` then holds no meaningful event).
  bool reduce(const DnsFields& rec, ConnEvent& out);

  /// Write the distinct counts into the stats (no-op without stats).
  void finish();

 private:
  const DnsReductionConfig& config_;
  DnsReductionStats local_;
  DnsReductionStats& counts_;
  bool distinct_;
  util::TransparentStringSet domains_all_;
  util::TransparentStringSet domains_internal_;
  util::TransparentStringSet domains_final_;
  util::TransparentStringSet hosts_final_;
};

/// Reduce one day of DNS records to the canonical event stream.
std::vector<ConnEvent> reduce_dns(std::span<const DnsRecord> records,
                                  const DnsReductionConfig& config,
                                  DnsReductionStats* stats = nullptr);

/// Configuration for AC-style proxy normalization + reduction.
struct ProxyReductionConfig {
  /// UTC offset in seconds for each collection device (collector id -> offset
  /// to SUBTRACT from local timestamps). Unknown collectors are assumed UTC.
  std::vector<std::pair<std::string, int>> collector_utc_offsets;
  FoldLevel fold_level = FoldLevel::SecondLevel;
  /// When a source address has no DHCP/VPN lease, fall back to using the raw
  /// IP as the host identifier instead of dropping the record.
  bool keep_unresolved_sources = true;
};

struct ProxyReductionStats {
  std::size_t total_records = 0;
  std::size_t ip_literal_destinations = 0;  ///< dropped (§IV-A)
  std::size_t resolved_sources = 0;         ///< DHCP/VPN lease matched
  std::size_t unresolved_sources = 0;
  std::size_t kept_records = 0;
  std::size_t domains_all = 0;
  std::size_t hosts_all = 0;
};

/// The per-record proxy rule: drop IP-literal destinations, shift
/// collector-local time to UTC, resolve the source host, fold. The
/// distinct-name sets are kept only when `stats` is given.
class ProxyReducer {
 public:
  /// Resets *stats; leases, config (and stats) must outlive the reducer.
  ProxyReducer(const DhcpTable& leases, const ProxyReductionConfig& config,
               ProxyReductionStats* stats = nullptr);
  ProxyReducer(const ProxyReducer&) = delete;
  ProxyReducer& operator=(const ProxyReducer&) = delete;

  /// Reduce one record into `out`, overwriting every field. False when
  /// the record is dropped (`out` then holds no meaningful event).
  bool reduce(const ProxyFields& rec, ConnEvent& out);

  /// Write the distinct counts into the stats (no-op without stats).
  void finish();

 private:
  const DhcpTable& leases_;
  const ProxyReductionConfig& config_;
  ProxyReductionStats local_;
  ProxyReductionStats& counts_;
  bool distinct_;
  util::TransparentStringSet domains_;
  util::TransparentStringSet hosts_;
};

/// Key buffer of order_by_time, reusable across calls: (ts, index) pairs.
using TimeOrderKeys = std::vector<std::pair<util::TimePoint, std::uint32_t>>;

/// Stable-order `events` by timestamp: sort (ts, index) keys, then apply
/// the permutation in place, moving each event once (string buffers move
/// with their events, none is freed).
void order_by_time(std::span<ConnEvent> events, TimeOrderKeys& keys);

/// Normalize and reduce one day of proxy records.
std::vector<ConnEvent> reduce_proxy(std::span<const ProxyRecord> records,
                                    const DhcpTable& leases,
                                    const ProxyReductionConfig& config,
                                    ProxyReductionStats* stats = nullptr);

}  // namespace eid::logs
