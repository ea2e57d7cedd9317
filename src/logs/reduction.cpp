#include "logs/reduction.h"

#include <algorithm>

namespace eid::logs {
namespace {

/// `domain` is `suffix` or ends in "." + `suffix`.
bool matches_internal_suffix(std::string_view domain,
                             const std::vector<std::string>& suffixes) {
  for (const std::string& suffix : suffixes) {
    if (domain == suffix) return true;
    if (domain.size() > suffix.size() && domain.ends_with(suffix) &&
        domain[domain.size() - suffix.size() - 1] == '.') {
      return true;
    }
  }
  return false;
}

DnsFields fields_of(const DnsRecord& rec) {
  return {rec.ts, rec.src, rec.domain, rec.type, rec.response_ip};
}

ProxyFields fields_of(const ProxyRecord& rec) {
  return {rec.ts,     rec.collector, rec.src_ip,     rec.hostname,
          rec.domain, rec.dest_ip,   rec.url_path,   rec.method,
          rec.status, rec.user_agent, rec.referer};
}

}  // namespace

DnsReducer::DnsReducer(const DnsReductionConfig& config,
                       DnsReductionStats* stats)
    : config_(config),
      counts_(stats != nullptr ? *stats : local_),
      distinct_(stats != nullptr) {
  counts_ = DnsReductionStats{};
}

bool DnsReducer::reduce(const DnsFields& rec, ConnEvent& out) {
  ++counts_.total_records;
  if (rec.type != DnsType::A) return false;
  ++counts_.a_records;
  fold_domain_into(rec.domain, config_.fold_level, out.domain);
  if (distinct_) domains_all_.insert(out.domain);
  if (matches_internal_suffix(out.domain, config_.internal_suffixes)) {
    return false;
  }
  ++counts_.after_internal_query_filter;
  if (distinct_) domains_internal_.insert(out.domain);
  if (config_.internal_servers.contains(rec.src)) return false;
  ++counts_.after_server_filter;
  out.ts = rec.ts;
  out.host.assign(rec.src);
  out.dest_ip = rec.response_ip;
  out.user_agent.clear();
  out.has_referer = false;
  out.has_http_context = false;
  if (distinct_) {
    domains_final_.insert(out.domain);
    hosts_final_.insert(out.host);
  }
  return true;
}

void DnsReducer::finish() {
  counts_.domains_all = domains_all_.size();
  counts_.domains_after_internal_filter = domains_internal_.size();
  counts_.domains_after_server_filter = domains_final_.size();
  counts_.hosts_after_server_filter = hosts_final_.size();
}

ProxyReducer::ProxyReducer(const DhcpTable& leases,
                           const ProxyReductionConfig& config,
                           ProxyReductionStats* stats)
    : leases_(leases),
      config_(config),
      counts_(stats != nullptr ? *stats : local_),
      distinct_(stats != nullptr) {
  counts_ = ProxyReductionStats{};
}

bool ProxyReducer::reduce(const ProxyFields& rec, ConnEvent& out) {
  ++counts_.total_records;
  // The paper drops destinations that are raw IP addresses.
  if (rec.domain.empty() || util::parse_ipv4(rec.domain).has_value()) {
    ++counts_.ip_literal_destinations;
    return false;
  }
  util::TimePoint ts = rec.ts;
  // A handful of collectors: a scan beats hashing the id.
  for (const auto& [collector, offset] : config_.collector_utc_offsets) {
    if (collector == rec.collector) {
      // Two's-complement wrap, not signed overflow, for a log line's
      // out-of-range timestamp.
      ts = static_cast<util::TimePoint>(static_cast<std::uint64_t>(ts) -
                                        static_cast<std::uint64_t>(offset));
      break;
    }
  }
  std::string_view host;
  if (!rec.hostname.empty()) {
    host = rec.hostname;
    ++counts_.resolved_sources;
  } else if (const auto resolved = leases_.resolve(rec.src_ip, ts)) {
    host = *resolved;
    ++counts_.resolved_sources;
  } else {
    ++counts_.unresolved_sources;
    if (!config_.keep_unresolved_sources) return false;
    host = rec.src_ip;
  }
  out.ts = ts;
  out.host.assign(host);
  fold_domain_into(rec.domain, config_.fold_level, out.domain);
  out.dest_ip = rec.dest_ip;
  out.user_agent.assign(rec.user_agent);
  out.has_referer = !rec.referer.empty();
  out.has_http_context = true;
  if (distinct_) {
    domains_.insert(out.domain);
    hosts_.insert(out.host);
  }
  ++counts_.kept_records;
  return true;
}

void ProxyReducer::finish() {
  counts_.domains_all = domains_.size();
  counts_.hosts_all = hosts_.size();
}

void order_by_time(std::span<ConnEvent> events, TimeOrderKeys& keys) {
  const auto earlier = [](const ConnEvent& a, const ConnEvent& b) {
    return a.ts < b.ts;
  };
  if (std::is_sorted(events.begin(), events.end(), earlier)) return;
  keys.clear();
  keys.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    keys.emplace_back(events[i].ts, static_cast<std::uint32_t>(i));
  }
  std::sort(keys.begin(), keys.end());
  // Slot i takes the event at keys[i].second; walk each cycle of that
  // permutation once, marking placed slots with their own index.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (keys[i].second == i) continue;
    ConnEvent held = std::move(events[i]);
    std::size_t slot = i;
    while (keys[slot].second != i) {
      const std::size_t from = keys[slot].second;
      events[slot] = std::move(events[from]);
      keys[slot].second = static_cast<std::uint32_t>(slot);
      slot = from;
    }
    events[slot] = std::move(held);
    keys[slot].second = static_cast<std::uint32_t>(slot);
  }
}

std::vector<ConnEvent> reduce_dns(std::span<const DnsRecord> records,
                                  const DnsReductionConfig& config,
                                  DnsReductionStats* stats) {
  DnsReducer reducer(config, stats);
  std::vector<ConnEvent> out;
  out.reserve(records.size());
  for (const DnsRecord& rec : records) {
    if (!reducer.reduce(fields_of(rec), out.emplace_back())) out.pop_back();
  }
  reducer.finish();
  TimeOrderKeys keys;
  order_by_time(out, keys);
  return out;
}

std::vector<ConnEvent> reduce_proxy(std::span<const ProxyRecord> records,
                                    const DhcpTable& leases,
                                    const ProxyReductionConfig& config,
                                    ProxyReductionStats* stats) {
  ProxyReducer reducer(leases, config, stats);
  std::vector<ConnEvent> out;
  out.reserve(records.size());
  for (const ProxyRecord& rec : records) {
    if (!reducer.reduce(fields_of(rec), out.emplace_back())) out.pop_back();
  }
  reducer.finish();
  TimeOrderKeys keys;
  order_by_time(out, keys);
  return out;
}

}  // namespace eid::logs
