// Tab-separated serialization for log records, so examples and operators can
// persist simulated datasets and re-ingest them like real log files.
// Parsers are total: malformed lines yield std::nullopt and are counted by
// callers rather than aborting a multi-terabyte ingest. Each format has one
// parse rule, parse_*_fields, which splits and validates a line in place
// and returns views into it; parse_*_line is its owning wrapper.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "logs/records.h"

namespace eid::logs {

/// DnsRecord <-> "ts\tsrc\tdomain\ttype\tresponse_ip".
/// Exactly 5 fields; integer ts, non-empty src and domain, and a
/// dotted-quad response_ip unless it is "-". The views point into `line`.
std::string format_dns_line(const DnsRecord& rec);
std::optional<DnsFields> parse_dns_fields(std::string_view line);
std::optional<DnsRecord> parse_dns_line(std::string_view line);

/// ProxyRecord <-> TSV with all HTTP context fields.
/// Exactly 11 fields; integer ts and status, a dotted-quad dest_ip unless
/// it is "-", and "-" read as empty in every text field. The views point
/// into `line`.
std::string format_proxy_line(const ProxyRecord& rec);
std::optional<ProxyFields> parse_proxy_fields(std::string_view line);
std::optional<ProxyRecord> parse_proxy_line(std::string_view line);

}  // namespace eid::logs
