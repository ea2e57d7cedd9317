#include "logs/io.h"

#include <array>
#include <charconv>
#include <cstring>

namespace eid::logs {
namespace {

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_int(std::string_view text, int& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Split `line` on tabs into exactly N fields, in place; false when it
/// has any other number of fields.
template <std::size_t N>
bool split_tabs(std::string_view line, std::array<std::string_view, N>& out) {
  const char* pos = line.data();
  const char* const end = pos + line.size();
  const auto next_tab = [&pos, end]() -> const char* {
    if (pos == end) return nullptr;
    return static_cast<const char*>(
        std::memchr(pos, '\t', static_cast<std::size_t>(end - pos)));
  };
  for (std::size_t i = 0; i + 1 < N; ++i) {
    const char* tab = next_tab();
    if (tab == nullptr) return false;
    out[i] = std::string_view(pos, static_cast<std::size_t>(tab - pos));
    pos = tab + 1;
  }
  if (next_tab() != nullptr) return false;
  out[N - 1] = std::string_view(pos, static_cast<std::size_t>(end - pos));
  return true;
}

/// A proxy line's "-" placeholder reads as an empty field.
std::string_view dash_empty(std::string_view field) {
  return field == "-" ? std::string_view() : field;
}

DnsType dns_type_from(std::string_view text) {
  if (text == "A") return DnsType::A;
  if (text == "AAAA") return DnsType::AAAA;
  if (text == "TXT") return DnsType::TXT;
  if (text == "PTR") return DnsType::PTR;
  if (text == "MX") return DnsType::MX;
  if (text == "CNAME") return DnsType::CNAME;
  if (text == "SRV") return DnsType::SRV;
  return DnsType::Other;
}

HttpMethod method_from(std::string_view text) {
  if (text == "GET") return HttpMethod::Get;
  if (text == "POST") return HttpMethod::Post;
  if (text == "HEAD") return HttpMethod::Head;
  if (text == "PUT") return HttpMethod::Put;
  if (text == "CONNECT") return HttpMethod::Connect;
  return HttpMethod::Other;
}

}  // namespace

std::string format_dns_line(const DnsRecord& rec) {
  std::string out = std::to_string(rec.ts);
  out += '\t';
  out += rec.src;
  out += '\t';
  out += rec.domain;
  out += '\t';
  out += dns_type_name(rec.type);
  out += '\t';
  out += rec.response_ip ? util::format_ipv4(*rec.response_ip) : "-";
  return out;
}

std::optional<DnsFields> parse_dns_fields(std::string_view line) {
  std::array<std::string_view, 5> fields;
  if (!split_tabs(line, fields)) return std::nullopt;
  DnsFields rec;
  if (!parse_i64(fields[0], rec.ts)) return std::nullopt;
  if (fields[1].empty() || fields[2].empty()) return std::nullopt;
  rec.src = fields[1];
  rec.domain = fields[2];
  rec.type = dns_type_from(fields[3]);
  if (fields[4] != "-") {
    rec.response_ip = util::parse_ipv4(fields[4]);
    if (!rec.response_ip) return std::nullopt;
  }
  return rec;
}

std::optional<DnsRecord> parse_dns_line(std::string_view line) {
  const std::optional<DnsFields> fields = parse_dns_fields(line);
  if (!fields) return std::nullopt;
  DnsRecord rec;
  rec.ts = fields->ts;
  rec.src = std::string(fields->src);
  rec.domain = std::string(fields->domain);
  rec.type = fields->type;
  rec.response_ip = fields->response_ip;
  return rec;
}

std::string format_proxy_line(const ProxyRecord& rec) {
  std::string out = std::to_string(rec.ts);
  const auto append = [&out](std::string_view field) {
    out += '\t';
    out += field.empty() ? std::string_view("-") : field;
  };
  append(rec.collector);
  append(rec.src_ip);
  append(rec.hostname);
  append(rec.domain);
  append(rec.dest_ip ? util::format_ipv4(*rec.dest_ip) : "-");
  append(rec.url_path);
  append(http_method_name(rec.method));
  append(std::to_string(rec.status));
  append(rec.user_agent);
  append(rec.referer);
  return out;
}

std::optional<ProxyFields> parse_proxy_fields(std::string_view line) {
  std::array<std::string_view, 11> fields;
  if (!split_tabs(line, fields)) return std::nullopt;
  ProxyFields rec;
  if (!parse_i64(fields[0], rec.ts)) return std::nullopt;
  rec.collector = dash_empty(fields[1]);
  rec.src_ip = dash_empty(fields[2]);
  rec.hostname = dash_empty(fields[3]);
  rec.domain = dash_empty(fields[4]);
  if (fields[5] != "-") {
    rec.dest_ip = util::parse_ipv4(fields[5]);
    if (!rec.dest_ip) return std::nullopt;
  }
  rec.url_path = dash_empty(fields[6]);
  rec.method = method_from(fields[7]);
  if (!parse_int(fields[8], rec.status)) return std::nullopt;
  rec.user_agent = dash_empty(fields[9]);
  rec.referer = dash_empty(fields[10]);
  return rec;
}

std::optional<ProxyRecord> parse_proxy_line(std::string_view line) {
  const std::optional<ProxyFields> fields = parse_proxy_fields(line);
  if (!fields) return std::nullopt;
  ProxyRecord rec;
  rec.ts = fields->ts;
  rec.collector = std::string(fields->collector);
  rec.src_ip = std::string(fields->src_ip);
  rec.hostname = std::string(fields->hostname);
  rec.domain = std::string(fields->domain);
  rec.dest_ip = fields->dest_ip;
  rec.url_path = std::string(fields->url_path);
  rec.method = fields->method;
  rec.status = fields->status;
  rec.user_agent = std::string(fields->user_agent);
  rec.referer = std::string(fields->referer);
  return rec;
}

}  // namespace eid::logs
