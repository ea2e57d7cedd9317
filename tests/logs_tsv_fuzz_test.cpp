// TSV ingest fuzzing: thousands of deterministic mutants of simulated
// proxy and DNS lines — dropped and extra fields, stray tabs, CRs and NULs,
// overlong and negative numbers, bad dotted quads, "-" everywhere, IP
// literal, upper-case, dotted and two-label-suffix domains, empty lines, a
// missing final newline — are written to files and drained through
// api::TsvFileSource in batch mode and in tail mode (appended in random
// pieces). Every stats counter and every ConnEvent field must match an
// oracle kept here: the straightforward split-into-vectors parser, fold
// and chunk-wise reduce that the allocation-free ingest path replaced.
// Runs in the ASan+UBSan job with the rest of the suite.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/sources.h"
#include "logs/folding.h"
#include "logs/io.h"
#include "logs/reduction.h"
#include "sim/enterprise.h"
#include "util/rng.h"
#include "util/strings.h"

namespace eid {
namespace {

// ---- The oracle: the reference line parsers, fold and reducers ----

bool oracle_i64(std::string_view text, std::int64_t& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool oracle_int(std::string_view text, int& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::optional<util::Ipv4> oracle_ipv4(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto part : parts) {
    if (part.empty() || part.size() > 3) return std::nullopt;
    for (char c : part) {
      if (c < '0' || c > '9') return std::nullopt;
    }
    std::uint32_t octet = 0;
    for (char c : part) {
      octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (octet > 255) return std::nullopt;
    value = (value << 8) | octet;
  }
  return util::Ipv4{value};
}

logs::DnsType oracle_dns_type(std::string_view text) {
  if (text == "A") return logs::DnsType::A;
  if (text == "AAAA") return logs::DnsType::AAAA;
  if (text == "TXT") return logs::DnsType::TXT;
  if (text == "PTR") return logs::DnsType::PTR;
  if (text == "MX") return logs::DnsType::MX;
  if (text == "CNAME") return logs::DnsType::CNAME;
  if (text == "SRV") return logs::DnsType::SRV;
  return logs::DnsType::Other;
}

logs::HttpMethod oracle_method(std::string_view text) {
  if (text == "GET") return logs::HttpMethod::Get;
  if (text == "POST") return logs::HttpMethod::Post;
  if (text == "HEAD") return logs::HttpMethod::Head;
  if (text == "PUT") return logs::HttpMethod::Put;
  if (text == "CONNECT") return logs::HttpMethod::Connect;
  return logs::HttpMethod::Other;
}

std::optional<logs::DnsRecord> oracle_dns_line(std::string_view line) {
  const auto fields = util::split(line, '\t');
  if (fields.size() != 5) return std::nullopt;
  logs::DnsRecord rec;
  if (!oracle_i64(fields[0], rec.ts)) return std::nullopt;
  if (fields[1].empty() || fields[2].empty()) return std::nullopt;
  rec.src = std::string(fields[1]);
  rec.domain = std::string(fields[2]);
  rec.type = oracle_dns_type(fields[3]);
  if (fields[4] != "-") {
    rec.response_ip = oracle_ipv4(fields[4]);
    if (!rec.response_ip) return std::nullopt;
  }
  return rec;
}

std::optional<logs::ProxyRecord> oracle_proxy_line(std::string_view line) {
  const auto fields = util::split(line, '\t');
  if (fields.size() != 11) return std::nullopt;
  const auto value = [](std::string_view field) {
    return field == "-" ? std::string() : std::string(field);
  };
  logs::ProxyRecord rec;
  if (!oracle_i64(fields[0], rec.ts)) return std::nullopt;
  rec.collector = value(fields[1]);
  rec.src_ip = value(fields[2]);
  rec.hostname = value(fields[3]);
  rec.domain = value(fields[4]);
  if (fields[5] != "-") {
    rec.dest_ip = oracle_ipv4(fields[5]);
    if (!rec.dest_ip) return std::nullopt;
  }
  rec.url_path = value(fields[6]);
  rec.method = oracle_method(fields[7]);
  if (!oracle_int(fields[8], rec.status)) return std::nullopt;
  rec.user_agent = value(fields[9]);
  rec.referer = value(fields[10]);
  return rec;
}

constexpr const char* kTwoLabelSuffixes[] = {
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au",
    "co.jp", "com.br", "com.cn", "co.in", "co.kr", "com.mx",
};

bool oracle_two_label_suffix(std::string_view domain) {
  const auto labels = util::split(domain, '.');
  if (labels.size() < 2) return false;
  const std::string tail = std::string(labels[labels.size() - 2]) + "." +
                           std::string(labels[labels.size() - 1]);
  for (const char* suffix : kTwoLabelSuffixes) {
    if (tail == suffix) return true;
  }
  return false;
}

std::string oracle_fold(std::string_view domain, logs::FoldLevel level) {
  while (!domain.empty() && domain.back() == '.') domain.remove_suffix(1);
  while (!domain.empty() && domain.front() == '.') domain.remove_prefix(1);
  const auto labels = util::split(domain, '.');
  std::size_t keep = static_cast<std::size_t>(level);
  if (oracle_two_label_suffix(domain)) ++keep;
  if (labels.size() <= keep) return util::to_lower(domain);
  std::string out;
  for (std::size_t i = labels.size() - keep; i < labels.size(); ++i) {
    if (!out.empty()) out += '.';
    out += util::to_lower(labels[i]);
  }
  return out;
}

void oracle_sort(std::vector<logs::ConnEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const logs::ConnEvent& a, const logs::ConnEvent& b) {
                     return a.ts < b.ts;
                   });
}

std::vector<logs::ConnEvent> oracle_reduce_dns(
    const std::vector<logs::DnsRecord>& records,
    const logs::DnsReductionConfig& config) {
  std::vector<logs::ConnEvent> out;
  for (const logs::DnsRecord& rec : records) {
    if (rec.type != logs::DnsType::A) continue;
    const std::string folded = oracle_fold(rec.domain, config.fold_level);
    bool internal = false;
    for (const std::string& suffix : config.internal_suffixes) {
      if (folded == suffix || folded.ends_with("." + suffix)) {
        internal = true;
      }
    }
    if (internal) continue;
    if (config.internal_servers.contains(rec.src)) continue;
    logs::ConnEvent ev;
    ev.ts = rec.ts;
    ev.host = rec.src;
    ev.domain = folded;
    ev.dest_ip = rec.response_ip;
    out.push_back(std::move(ev));
  }
  oracle_sort(out);
  return out;
}

std::vector<logs::ConnEvent> oracle_reduce_proxy(
    const std::vector<logs::ProxyRecord>& records,
    const logs::DhcpTable& leases, const logs::ProxyReductionConfig& config) {
  const std::unordered_map<std::string, int> offsets(
      config.collector_utc_offsets.begin(), config.collector_utc_offsets.end());
  std::vector<logs::ConnEvent> out;
  for (const logs::ProxyRecord& rec : records) {
    if (rec.domain.empty() || oracle_ipv4(rec.domain).has_value()) continue;
    util::TimePoint ts = rec.ts;
    if (auto it = offsets.find(rec.collector); it != offsets.end()) {
      // Wrapping, as the reducer defines it for out-of-range timestamps.
      ts = static_cast<util::TimePoint>(static_cast<std::uint64_t>(ts) -
                                        static_cast<std::uint64_t>(it->second));
    }
    std::string host;
    if (!rec.hostname.empty()) {
      host = rec.hostname;
    } else if (auto resolved = leases.resolve(rec.src_ip, ts)) {
      host = std::string(*resolved);
    } else {
      if (!config.keep_unresolved_sources) continue;
      host = rec.src_ip;
    }
    logs::ConnEvent ev;
    ev.ts = ts;
    ev.host = std::move(host);
    ev.domain = oracle_fold(rec.domain, config.fold_level);
    ev.dest_ip = rec.dest_ip;
    ev.user_agent = rec.user_agent;
    ev.has_referer = !rec.referer.empty();
    ev.has_http_context = true;
    out.push_back(std::move(ev));
  }
  oracle_sort(out);
  return out;
}

/// What a drain must produce: every chunk's events, in order, plus the
/// source's counters.
struct Drained {
  std::vector<logs::ConnEvent> events;
  std::vector<std::size_t> chunk_sizes;
  api::TsvFileSource::Stats stats;
};

/// The reference ingest loop over `content` (the file's bytes so far):
/// getline semantics, chunks of `chunk` parsed records, one reduce per
/// chunk, empty reductions skipped. Consumes complete lines from
/// stats.byte_offset on; a final unterminated line is taken in batch mode
/// and left (as partial_line_bytes) in tail mode.
struct OracleSource {
  bool dns = false;
  const logs::DhcpTable* leases = nullptr;
  logs::ProxyReductionConfig proxy;
  logs::DnsReductionConfig dns_config;
  std::size_t chunk = 4096;
  bool tail = false;

  void poll(const std::string& content, Drained& out) const {
    api::TsvFileSource::Stats& s = out.stats;
    std::size_t pos = static_cast<std::size_t>(s.byte_offset);
    while (true) {
      std::vector<logs::DnsRecord> dns_records;
      std::vector<logs::ProxyRecord> proxy_records;
      std::size_t parsed = 0;
      while (parsed < chunk && pos < content.size()) {
        const std::size_t newline = content.find('\n', pos);
        std::string line;
        if (newline == std::string::npos) {
          line = content.substr(pos);
          if (tail) {
            s.partial_line_bytes = line.size();
            break;
          }
          pos = content.size();
          s.byte_offset += line.size();
        } else {
          line = content.substr(pos, newline - pos);
          pos = newline + 1;
          s.byte_offset += line.size() + 1;
          s.partial_line_bytes = 0;
        }
        if (line.empty()) continue;
        ++s.lines;
        if (dns) {
          if (auto rec = oracle_dns_line(line)) {
            dns_records.push_back(std::move(*rec));
            ++parsed;
            ++s.parsed;
          } else {
            ++s.malformed;
          }
        } else if (auto rec = oracle_proxy_line(line)) {
          proxy_records.push_back(std::move(*rec));
          ++parsed;
          ++s.parsed;
        } else {
          ++s.malformed;
        }
      }
      if (parsed == 0) return;
      const std::vector<logs::ConnEvent> events =
          dns ? oracle_reduce_dns(dns_records, dns_config)
              : oracle_reduce_proxy(proxy_records, *leases, proxy);
      if (!events.empty()) {
        out.chunk_sizes.push_back(events.size());
        out.events.insert(out.events.end(), events.begin(), events.end());
        s.events += events.size();
      }
    }
  }
};

// ---- The corpus ----

/// Domains that stress folding and the IP-literal rule.
const std::vector<std::string>& tricky_domains() {
  static const std::vector<std::string> domains = {
      "10.1.2.3",        "1.2.3.256",         "01.2.3.4",
      "WWW.EXAMPLE.COM", "News.BBC.co.uk",    "news.bbc.co.uk",
      "NEWS.BBC.CO.UK",  "deep.sub.bbc.co.uk", "co.uk",
      "x.co.uk.",        ".lead.dot.example", "trail.dot.example.",
      "a..b.c",          "a...b",             "..",
      ".",               "a.b.c.d.e.f.g",     "x.y.z.c3",
      "srv.corp.internal", "CORP.INTERNAL",   "lanl",
      "mail.lanl",       "-",                 "a.-.b",
      "Xn--BCHER-KVA.example", "uk",          "co.uk.evil.com",
  };
  return domains;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += '\t';
    line += fields[i];
  }
  return line;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  for (const auto field : util::split(line, '\t')) out.emplace_back(field);
  return out;
}

/// One mutant of `line` (a formatted record with `n_fields` fields, the
/// domain at `domain_field`, numbers at `number_fields`, an address at
/// `ip_field`). About a quarter of the lines stay valid.
std::string mutate(util::Rng& rng, const std::string& line,
                   std::size_t domain_field, std::size_t ip_field,
                   const std::vector<std::size_t>& number_fields) {
  static const char* kNumbers[] = {
      "99999999999999999999", "-5", "+5", " 5", "5x", "", "-",
      "9223372036854775807", "-9223372036854775808", "2147483648", "0x10",
      "007"};
  static const char* kAddresses[] = {
      "1.2.3.256", "01.2.3.4", "1.2.3", "1.2.3.4.5", "", "-", "0001.2.3.4",
      "1..2.3", "255.255.255.255", "0.0.0.0", "1.2.3.4 ", "a.b.c.d"};
  std::vector<std::string> fields = split_fields(line);
  const std::uint64_t kind = rng.uniform(14);
  switch (kind) {
    case 0:  // dropped field
      fields.erase(fields.begin() +
                   static_cast<std::ptrdiff_t>(rng.uniform(fields.size())));
      break;
    case 1:  // extra field
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(
                                         rng.uniform(fields.size() + 1)),
                    rng.uniform(2) == 0 ? "-" : "extra");
      break;
    case 2:
    case 3: {  // stray tab, CR or NUL byte
      static const char kStray[] = {'\t', '\r', '\0'};
      std::string mutated = join_fields(fields);
      mutated.insert(rng.uniform(mutated.size() + 1), 1,
                     kStray[rng.uniform(3)]);
      return mutated;
    }
    case 4:  // overlong, negative or otherwise odd number
      fields[number_fields[rng.uniform(number_fields.size())]] =
          kNumbers[rng.uniform(std::size(kNumbers))];
      break;
    case 5:  // bad or edge-case dotted quad
      fields[ip_field] = kAddresses[rng.uniform(std::size(kAddresses))];
      break;
    case 6:  // "-" in any field
      fields[rng.uniform(fields.size())] = "-";
      break;
    case 7:
    case 8:
    case 9:  // a domain that stresses folding
      fields[domain_field] =
          tricky_domains()[rng.uniform(tricky_domains().size())];
      break;
    case 10:  // trailing CR, as a CRLF file has
      return join_fields(fields) + '\r';
    default:
      break;  // unchanged
  }
  return join_fields(fields);
}

/// Mutated lines joined into a file body: some empty lines, and a final
/// newline only sometimes.
std::string file_body(util::Rng& rng, const std::vector<std::string>& lines) {
  std::string body;
  for (const std::string& line : lines) {
    if (rng.uniform(25) == 0) body += '\n';
    body += line;
    body += '\n';
  }
  if (rng.uniform(2) == 0 && !body.empty()) body.pop_back();
  return body;
}

class TsvFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-tsv-fuzz-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    for (const bool dns : {false, true}) {
      sim::SimConfig config;
      config.flavor = dns ? sim::Flavor::Dns : sim::Flavor::Proxy;
      config.seed = 11;
      config.day0 = util::make_day(2014, 1, 1);
      config.n_hosts = 30;
      config.n_popular = 20;
      config.tail_per_day = 10;
      config.automated_tail_per_day = 2;
      config.grayware_per_day = 1;
      sim::EnterpriseSimulator simulator(config, {});
      const sim::DayLogs day = simulator.simulate_day(config.day0);
      if (dns) {
        for (const auto& rec : day.dns) {
          dns_lines_.push_back(logs::format_dns_line(rec));
        }
        dns_config_ = simulator.dns_reduction_config();
      } else {
        for (const auto& rec : day.proxy) {
          proxy_lines_.push_back(logs::format_proxy_line(rec));
        }
        simulator.dhcp().for_each_lease(
            [this](const logs::DhcpLease& lease) { leases_.add_lease(lease); });
        proxy_config_ = simulator.proxy_reduction_config();
      }
    }
    // Later duplicates of a collector id must lose, as in a map built
    // from the list.
    if (!proxy_config_.collector_utc_offsets.empty()) {
      proxy_config_.collector_utc_offsets.emplace_back(
          proxy_config_.collector_utc_offsets.front().first, 12345);
    }
    dns_config_.internal_suffixes.push_back("lanl");
    dns_config_.internal_servers.insert("-");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string corpus(util::Rng& rng, bool dns, std::size_t n) const {
    const std::vector<std::string>& base = dns ? dns_lines_ : proxy_lines_;
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& line = base[rng.uniform(base.size())];
      lines.push_back(dns ? mutate(rng, line, 2, 4, {0})
                          : mutate(rng, line, 4, 5, {0, 8}));
    }
    return file_body(rng, lines);
  }

  api::TsvFileSource make_source(const std::filesystem::path& path,
                                 const OracleSource& oracle) const {
    return oracle.dns
               ? api::TsvFileSource(path, 9, oracle.dns_config, oracle.chunk)
               : api::TsvFileSource(path, 9, leases_, oracle.proxy,
                                    oracle.chunk);
  }

  OracleSource oracle_for(util::Rng& rng, bool dns) const {
    static const std::size_t kChunks[] = {1, 2, 7, 64, 4096};
    OracleSource oracle;
    oracle.dns = dns;
    oracle.leases = &leases_;
    oracle.proxy = proxy_config_;
    oracle.proxy.keep_unresolved_sources = rng.uniform(3) != 0;
    oracle.proxy.fold_level = rng.uniform(2) == 0 ? logs::FoldLevel::SecondLevel
                                                  : logs::FoldLevel::ThirdLevel;
    oracle.dns_config = dns_config_;
    oracle.dns_config.fold_level = rng.uniform(2) == 0
                                       ? logs::FoldLevel::SecondLevel
                                       : logs::FoldLevel::ThirdLevel;
    oracle.chunk = kChunks[rng.uniform(std::size(kChunks))];
    return oracle;
  }

  std::filesystem::path dir_;
  std::vector<std::string> proxy_lines_;
  std::vector<std::string> dns_lines_;
  logs::DhcpTable leases_;
  logs::ProxyReductionConfig proxy_config_;
  logs::DnsReductionConfig dns_config_;
};

void expect_same(const Drained& expected, const Drained& actual,
                 const std::string& label) {
  const auto& e = expected.stats;
  const auto& a = actual.stats;
  EXPECT_EQ(a.lines, e.lines) << label;
  EXPECT_EQ(a.parsed, e.parsed) << label;
  EXPECT_EQ(a.malformed, e.malformed) << label;
  EXPECT_EQ(a.events, e.events) << label;
  EXPECT_EQ(a.byte_offset, e.byte_offset) << label;
  EXPECT_EQ(a.partial_line_bytes, e.partial_line_bytes) << label;
  EXPECT_EQ(actual.chunk_sizes, expected.chunk_sizes) << label;
  ASSERT_EQ(actual.events.size(), expected.events.size()) << label;
  for (std::size_t i = 0; i < expected.events.size(); ++i) {
    const logs::ConnEvent& x = expected.events[i];
    const logs::ConnEvent& y = actual.events[i];
    ASSERT_TRUE(x.ts == y.ts && x.host == y.host && x.domain == y.domain &&
                x.dest_ip == y.dest_ip && x.user_agent == y.user_agent &&
                x.has_referer == y.has_referer &&
                x.has_http_context == y.has_http_context)
        << label << " event " << i << ": expected " << x.ts << ' ' << x.host
        << ' ' << x.domain << ", got " << y.ts << ' ' << y.host << ' '
        << y.domain;
  }
}

/// Drain one poll's worth of chunks (until "nothing more").
void drain_poll(api::TsvFileSource& source, Drained& out) {
  while (auto chunk = source.next_chunk()) {
    if (chunk->events.empty()) continue;  // empty-day marker
    out.chunk_sizes.push_back(chunk->events.size());
    out.events.insert(out.events.end(), chunk->events.begin(),
                      chunk->events.end());
  }
  out.stats = source.stats();
}

TEST_F(TsvFuzzTest, LineParsersAndFoldMatchTheOracle) {
  util::Rng rng(0xF0221);
  for (int i = 0; i < 4000; ++i) {
    const bool dns = i % 2 == 1;
    const std::string body = corpus(rng, dns, 1);
    const std::string line = body.substr(0, body.find('\n'));
    if (dns) {
      const auto expected = oracle_dns_line(line);
      const auto actual = logs::parse_dns_line(line);
      ASSERT_EQ(actual.has_value(), expected.has_value()) << line;
      if (!expected) continue;
      EXPECT_EQ(actual->ts, expected->ts);
      EXPECT_EQ(actual->src, expected->src);
      EXPECT_EQ(actual->domain, expected->domain);
      EXPECT_EQ(actual->type, expected->type);
      EXPECT_EQ(actual->response_ip, expected->response_ip);
    } else {
      const auto expected = oracle_proxy_line(line);
      const auto actual = logs::parse_proxy_line(line);
      ASSERT_EQ(actual.has_value(), expected.has_value()) << line;
      if (!expected) continue;
      EXPECT_EQ(actual->ts, expected->ts);
      EXPECT_EQ(actual->collector, expected->collector);
      EXPECT_EQ(actual->src_ip, expected->src_ip);
      EXPECT_EQ(actual->hostname, expected->hostname);
      EXPECT_EQ(actual->domain, expected->domain);
      EXPECT_EQ(actual->dest_ip, expected->dest_ip);
      EXPECT_EQ(actual->url_path, expected->url_path);
      EXPECT_EQ(actual->method, expected->method);
      EXPECT_EQ(actual->status, expected->status);
      EXPECT_EQ(actual->user_agent, expected->user_agent);
      EXPECT_EQ(actual->referer, expected->referer);
    }
  }
  for (const std::string& domain : tricky_domains()) {
    EXPECT_EQ(util::parse_ipv4(domain), oracle_ipv4(domain)) << domain;
    EXPECT_EQ(logs::has_two_label_public_suffix(domain),
              oracle_two_label_suffix(domain))
        << domain;
    for (const auto level :
         {logs::FoldLevel::SecondLevel, logs::FoldLevel::ThirdLevel}) {
      EXPECT_EQ(logs::fold_domain(domain, level), oracle_fold(domain, level))
          << domain;
    }
  }
}

TEST_F(TsvFuzzTest, BatchDrainMatchesTheOracle) {
  util::Rng rng(0xBA7C4);
  for (int round = 0; round < 40; ++round) {
    const bool dns = round % 2 == 1;
    const OracleSource oracle = oracle_for(rng, dns);
    const std::string body = corpus(rng, dns, 150);
    const auto path = dir_ / "batch.tsv";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << body;
    }
    Drained expected;
    oracle.poll(body, expected);
    api::TsvFileSource source = make_source(path, oracle);
    Drained actual;
    drain_poll(source, actual);
    expect_same(expected, actual,
                "batch round " + std::to_string(round) +
                    (dns ? " dns" : " proxy") + " chunk " +
                    std::to_string(oracle.chunk));
  }
}

TEST_F(TsvFuzzTest, LinesStraddleReadBlocksAndOutgrowThem) {
  // Files several read blocks long, with lines longer than a whole block
  // (a huge user agent or domain), in batch and in tail mode.
  util::Rng rng(0xB10C);
  for (int round = 0; round < 4; ++round) {
    const bool dns = round % 2 == 1;
    OracleSource oracle = oracle_for(rng, dns);
    std::string body = corpus(rng, dns, 2500);
    const std::string huge(300 * 1024 + round, round < 2 ? 'a' : '.');
    for (int k = 0; k < 2; ++k) {
      const std::size_t at = body.find('\n', rng.uniform(body.size()));
      if (at == std::string::npos) continue;
      std::string line =
          dns ? "1391212800\th1\t" + huge + ".example.com\tA\t-"
              : "1391212800\tc0\t10.0.0.1\t-\t" + huge +
                    ".example.com\t-\t/\tGET\t200\t" + huge + "\t-";
      body.insert(at + 1, line + '\n');
    }
    const auto path = dir_ / "blocks.tsv";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << body;
    }
    Drained expected;
    oracle.poll(body, expected);
    api::TsvFileSource batch = make_source(path, oracle);
    Drained actual;
    drain_poll(batch, actual);
    expect_same(expected, actual, "blocks round " + std::to_string(round));

    oracle.tail = true;
    std::filesystem::remove(path);
    api::TsvFileSource tail = make_source(path, oracle);
    tail.set_tail(true);
    Drained expected_tail;
    Drained actual_tail;
    for (std::size_t written = 0; written < body.size();) {
      const std::size_t piece = std::min<std::size_t>(
          body.size() - written, 1 + rng.uniform(400 * 1024));
      {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << body.substr(written, piece);
      }
      written += piece;
      oracle.poll(body.substr(0, written), expected_tail);
      drain_poll(tail, actual_tail);
      expect_same(expected_tail, actual_tail,
                  "blocks tail round " + std::to_string(round));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(TsvFuzzTest, TailDrainMatchesTheOracleAtRandomAppendPoints) {
  util::Rng rng(0x7A11);
  for (int round = 0; round < 30; ++round) {
    const bool dns = round % 2 == 0;
    OracleSource oracle = oracle_for(rng, dns);
    oracle.tail = true;
    const std::string body = corpus(rng, dns, 120);
    const auto path = dir_ / "tail.tsv";
    std::filesystem::remove(path);
    api::TsvFileSource source = make_source(path, oracle);
    source.set_tail(true);
    Drained expected;
    Drained actual;
    std::size_t written = 0;
    while (written < body.size()) {
      // Append a random piece — often mid-line, sometimes mid-field.
      const std::size_t piece =
          std::min<std::size_t>(body.size() - written, 1 + rng.uniform(900));
      {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << body.substr(written, piece);
      }
      written += piece;
      oracle.poll(body.substr(0, written), expected);
      drain_poll(source, actual);
      const std::string label = "tail round " + std::to_string(round) +
                                " at byte " + std::to_string(written);
      expect_same(expected, actual, label);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace eid
