#include "sim/enterprise.h"

#include <algorithm>
#include <cstdio>

#include "sim/names.h"

namespace eid::sim {
namespace {

constexpr util::TimePoint kWorkStart = 8 * util::kSecondsPerHour;
constexpr util::TimePoint kWorkEnd = 18 * util::kSecondsPerHour;

std::string campaign_url(CampaignNameStyle style, util::Rng& rng) {
  switch (style) {
    case CampaignNameStyle::ShortDga:
      return "/tan2.html";
    case CampaignNameStyle::LongDga:
      return "/logo.gif?" + syllable_word(rng, 2);
    case CampaignNameStyle::RuCc:
      return "/gate.php?id=" + std::to_string(rng.uniform(100000));
    default:
      return "/" + syllable_word(rng, 2) + ".php";
  }
}

}  // namespace

EnterpriseSimulator::EnterpriseSimulator(SimConfig config,
                                         std::vector<CampaignSpec> campaigns)
    : config_(std::move(config)), world_rng_(config_.seed) {
  collector_offsets_ = {{"px-us", 0}, {"px-eu", 3600}, {"px-ap", -7200}};
  build_hosts();
  build_popular();
  for (std::size_t i = 0; i < config_.n_internal_domains; ++i) {
    internal_domains_.push_back(syllable_word(world_rng_, 2) + "." +
                                config_.internal_suffix);
  }
  for (const CampaignSpec& spec : campaigns) build_campaign(spec);
}

void EnterpriseSimulator::build_hosts() {
  // A homogeneous common-UA population (§IV-C: most UA strings are employed
  // by a large number of users).
  const std::size_t n_common = 30;
  for (std::size_t i = 0; i < n_common; ++i) {
    common_uas_.push_back(browser_ua(world_rng_));
  }
  // A small pool of service UAs (updaters, sync clients) reused across the
  // fleet — legitimate automated software is as homogeneous as browsers in
  // an enterprise, which is what makes RareUA informative (§IV-C).
  for (std::size_t i = 0; i < 6; ++i) {
    service_uas_.push_back(rare_ua(world_rng_));
  }
  hosts_.reserve(config_.n_hosts);
  for (std::size_t h = 0; h < config_.n_hosts; ++h) {
    HostProfile host;
    host.name = config_.flavor == Flavor::Dns ? lanl_host_name(world_rng_)
                                              : workstation_name(h);
    const std::size_t n_uas = 5 + world_rng_.index(5);  // 5-9 UAs per user
    for (const std::size_t idx : world_rng_.sample_indices(n_common, n_uas)) {
      host.browser_uas.push_back(common_uas_[idx]);
    }
    if (world_rng_.chance(0.06)) host.niche_ua = rare_ua(world_rng_);
    host.activity = world_rng_.uniform_double(0.4, 1.8);
    host.collector = h % collector_offsets_.size();
    host.dhcp = world_rng_.chance(config_.dhcp_fraction);
    if (!host.dhcp) {
      char buf[20];
      std::snprintf(buf, sizeof(buf), "172.16.%zu.%zu", (h >> 8) & 0xff, h & 0xff);
      host.static_ip = buf;
    }
    hosts_.push_back(std::move(host));
  }
  for (std::size_t s = 0; s < config_.n_servers; ++s) {
    server_names_.push_back(config_.flavor == Flavor::Dns
                                ? lanl_host_name(world_rng_)
                                : "srv-" + std::to_string(s) + ".corp");
  }
}

void EnterpriseSimulator::build_popular() {
  popular_.reserve(config_.n_popular);
  for (std::size_t i = 0; i < config_.n_popular; ++i) {
    PopularDomain dom;
    do {
      dom.name = config_.flavor == Flavor::Dns ? lanl_domain(world_rng_)
                                               : benign_domain(world_rng_);
    } while (whois_.is_registered(dom.name));
    dom.ip = random_public_ip(world_rng_);
    dom.has_subdomains = world_rng_.chance(0.4);
    // Popular sites are long-registered with long validity.
    whois_.add_aged(dom.name, config_.day0,
                    world_rng_.uniform_int(400, 6000),
                    world_rng_.uniform_int(365, 3000));
    popular_.push_back(std::move(dom));
  }
}

void EnterpriseSimulator::build_campaign(const CampaignSpec& spec) {
  CampaignState state;
  state.spec = spec;
  util::Rng rng = world_rng_.fork(0xca400000ULL + static_cast<std::uint64_t>(spec.id));
  if (!spec.malware_empty_ua) state.malware_ua = rare_ua(rng);

  // Attacker infrastructure is co-located: one /24 base, with ~30% of the
  // domains placed in a sibling /24 of the same /16 (§IV-D, [19], [26]).
  const std::uint32_t base24 = (random_public_ip(rng).value >> 8) << 8;
  const std::uint32_t sibling24 = (base24 & 0xffff0000u) |
                                  ((base24 + 0x100u) & 0x0000ff00u);

  const auto make_name = [&rng, &spec, this]() {
    std::string name;
    do {
      switch (spec.name_style) {
        case CampaignNameStyle::Benign: name = benign_domain(rng); break;
        case CampaignNameStyle::ShortDga: name = short_dga_domain(rng); break;
        case CampaignNameStyle::LongDga: name = long_dga_domain(rng); break;
        case CampaignNameStyle::RuCc: name = ru_cc_domain(rng); break;
        case CampaignNameStyle::Lanl: name = lanl_domain(rng); break;
      }
    } while (whois_.is_registered(name));
    return name;
  };

  CampaignTruth truth;
  truth.id = spec.id;
  truth.start_day = spec.start_day;
  truth.duration_days = spec.duration_days;

  const std::size_t total =
      spec.delivery_chain + spec.n_cc + spec.second_stage;
  for (std::size_t i = 0; i < total; ++i) {
    CampaignDomain dom;
    dom.name = make_name();
    const std::uint32_t net = rng.chance(0.7) ? base24 : sibling24;
    dom.ip = util::Ipv4{net | static_cast<std::uint32_t>(1 + rng.uniform(250))};
    if (i < spec.delivery_chain) {
      dom.role = CampaignDomain::Role::Delivery;
    } else if (i < spec.delivery_chain + spec.n_cc) {
      dom.role = CampaignDomain::Role::CandC;
      truth.cc_domains.push_back(dom.name);
    } else {
      dom.role = CampaignDomain::Role::SecondStage;
    }
    // Recently registered, short validity; DGA campaigns register only a
    // fraction, sometimes only after the campaign is already active.
    const bool registered =
        dom.role == CampaignDomain::Role::CandC || rng.chance(spec.registered_fraction);
    if (registered) {
      if (spec.late_registration && rng.chance(0.4)) {
        whois_.add(dom.name, spec.start_day + rng.uniform_int(2, 8),
                   spec.start_day + rng.uniform_int(40, 200));
      } else {
        whois_.add(dom.name, spec.start_day - rng.uniform_int(1, 25),
                   spec.start_day + rng.uniform_int(30, 365));
      }
    }
    truth_.set_label(dom.name, TruthLabel::Malicious, spec.id);
    truth.domains.push_back(dom.name);
    state.domains.push_back(std::move(dom));
  }

  for (const std::size_t v : rng.sample_indices(hosts_.size(), spec.n_victims)) {
    state.victims.push_back(v);
    truth.victims.push_back(hosts_[v].name);
  }
  truth_.add_campaign(std::move(truth));
  campaigns_.push_back(std::move(state));
}

util::Ipv4 EnterpriseSimulator::random_public_ip(util::Rng& rng) const {
  // First octet in 11..220, skipping the private 172.16/12 and 192.168/16
  // ranges closely enough for simulation purposes.
  std::uint32_t a = 11 + static_cast<std::uint32_t>(rng.uniform(210));
  if (a == 172 || a == 192 || a == 10) a = 53;
  return util::Ipv4::from_octets(a, static_cast<std::uint32_t>(rng.uniform(256)),
                                 static_cast<std::uint32_t>(rng.uniform(256)),
                                 static_cast<std::uint32_t>(1 + rng.uniform(254)));
}

std::string EnterpriseSimulator::pick_browser_ua(std::size_t host,
                                                 util::Rng& rng) const {
  const auto& uas = hosts_[host].browser_uas;
  return uas[rng.index(uas.size())];
}

void EnterpriseSimulator::assign_dhcp(util::Day day) {
  if (day == dhcp_day_) return;
  dhcp_day_ = day;
  day_ips_.assign(hosts_.size(), {});
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    if (!hosts_[h].dhcp) {
      day_ips_[h] = hosts_[h].static_ip;
      continue;
    }
    // Rotate the pool daily so the same address maps to different hosts on
    // different days — resolving naively by IP would cross-contaminate.
    const std::size_t slot = (h + static_cast<std::size_t>(day) * 131) % 65000;
    char buf[20];
    std::snprintf(buf, sizeof(buf), "10.%zu.%zu.%zu", 1 + slot / 16000,
                  (slot / 250) % 250, 1 + slot % 250);
    day_ips_[h] = buf;
    logs::DhcpLease lease;
    lease.ip = day_ips_[h];
    lease.start = util::day_start(day);
    lease.end = util::day_start(day + 1);
    lease.hostname = hosts_[h].name;
    dhcp_.add_lease(std::move(lease));
  }
}

std::string EnterpriseSimulator::source_ip_for(std::size_t host,
                                               util::Day /*day*/) const {
  return day_ips_[host];
}

void EnterpriseSimulator::emit(DayLogs& sink, const Request& req, util::Rng& rng) {
  if (config_.flavor == Flavor::Dns) {
    logs::DnsRecord rec;
    rec.ts = req.ts;
    rec.src = hosts_[req.host].name;
    rec.domain = req.domain;
    rec.type = logs::DnsType::A;
    rec.response_ip = req.ip;
    sink.dns.push_back(rec);
    if (rng.chance(config_.dns_extra_record_fraction)) {
      rec.type = rng.chance(0.6) ? logs::DnsType::AAAA : logs::DnsType::TXT;
      rec.response_ip = std::nullopt;
      sink.dns.push_back(std::move(rec));
    }
    return;
  }
  const HostProfile& host = hosts_[req.host];
  logs::ProxyRecord rec;
  const auto& [collector, offset] = collector_offsets_[host.collector];
  rec.collector = collector;
  rec.ts = req.ts + offset;  // collector-local timestamp
  rec.src_ip = source_ip_for(req.host, util::day_of(req.ts));
  rec.hostname = host.dhcp ? std::string() : host.name;
  rec.domain = req.domain;
  rec.dest_ip = req.ip;
  rec.url_path = req.url.empty() ? "/" : req.url;
  rec.method = rng.chance(0.85) ? logs::HttpMethod::Get : logs::HttpMethod::Post;
  rec.status = req.status;
  rec.user_agent = req.ua;
  rec.referer = req.referer;
  sink.proxy.push_back(std::move(rec));
}

void EnterpriseSimulator::emit_browsing(DayLogs& sink, util::Day day,
                                        util::Rng& rng) {
  const util::TimePoint base = util::day_start(day);
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    util::Rng host_rng = rng.fork(0xb0000000ULL + h);
    const double mean = config_.sessions_per_host * hosts_[h].activity;
    const auto sessions = static_cast<std::size_t>(host_rng.exponential(mean));
    for (std::size_t s = 0; s < sessions; ++s) {
      util::TimePoint t =
          base + host_rng.uniform_int(kWorkStart, kWorkEnd - 1);
      const std::size_t n_requests = host_rng.uniform_int(
          static_cast<std::int64_t>(config_.session_requests_min),
          static_cast<std::int64_t>(config_.session_requests_max));
      std::string prev_domain;
      const std::string ua = pick_browser_ua(h, host_rng);
      for (std::size_t r = 0; r < n_requests; ++r) {
        const std::size_t rank = host_rng.zipf(popular_.size(), 1.1) - 1;
        const PopularDomain& dom = popular_[rank];
        Request req;
        req.ts = t;
        req.host = h;
        req.domain = dom.has_subdomains && host_rng.chance(0.5)
                         ? "www." + dom.name
                         : dom.name;
        req.ip = dom.ip;
        req.ua = ua;
        if (!prev_domain.empty() && !host_rng.chance(config_.no_referer_fraction)) {
          req.referer = prev_domain;
        }
        req.url = "/" + syllable_word(host_rng, 1 + host_rng.index(3));
        emit(sink, req, host_rng);
        prev_domain = dom.name;
        t += 1 + static_cast<util::TimePoint>(host_rng.exponential(20.0));
      }
    }
  }
}

void EnterpriseSimulator::emit_tail(DayLogs& sink, util::Day day, util::Rng& rng) {
  const util::TimePoint base = util::day_start(day);
  for (std::size_t i = 0; i < config_.tail_per_day; ++i) {
    std::string name;
    do {
      name = config_.flavor == Flavor::Dns ? lanl_domain(rng) : benign_domain(rng);
    } while (whois_.is_registered(name));
    // Mostly long-registered niche sites; ~10% are genuinely young domains,
    // which makes DomAge informative rather than a perfect separator.
    if (rng.chance(0.9)) {
      whois_.add_aged(name, day, rng.uniform_int(60, 3000),
                      rng.uniform_int(30, 1100));
    } else {
      whois_.add_aged(name, day, rng.uniform_int(1, 30), rng.uniform_int(30, 400));
    }
    const util::Ipv4 ip = random_public_ip(rng);
    const std::size_t n_visitors = 1 + rng.index(3);
    for (const std::size_t h : rng.sample_indices(hosts_.size(), n_visitors)) {
      util::TimePoint t = base + rng.uniform_int(kWorkStart, kWorkEnd - 1);
      const std::size_t n_requests = 1 + rng.index(4);
      for (std::size_t r = 0; r < n_requests; ++r) {
        Request req;
        req.ts = t;
        req.host = h;
        req.domain = name;
        req.ip = ip;
        req.ua = pick_browser_ua(h, rng);
        if (r > 0 || rng.chance(0.7)) {
          req.referer = popular_[rng.zipf(popular_.size(), 1.1) - 1].name;
        }
        req.url = "/" + syllable_word(rng, 2);
        emit(sink, req, rng);
        t += 1 + static_cast<util::TimePoint>(rng.exponential(30.0));
      }
    }
  }
}

void EnterpriseSimulator::emit_automated_tail(DayLogs& sink, util::Day day,
                                              util::Rng& rng) {
  static constexpr double kPeriods[] = {300, 600, 900, 1800, 3600};
  const util::TimePoint base = util::day_start(day);
  for (std::size_t i = 0; i < config_.automated_tail_per_day; ++i) {
    std::string name;
    do {
      name = config_.flavor == Flavor::Dns ? lanl_domain(rng) : benign_domain(rng);
    } while (whois_.is_registered(name));
    // Legitimate services are mostly mature registrations; a minority are
    // young (fresh CDN endpoints), which is what costs the detector its
    // false positives in Fig. 5.
    if (rng.chance(0.9)) {
      whois_.add_aged(name, day, rng.uniform_int(200, 2500),
                      rng.uniform_int(60, 1500));
    } else {
      whois_.add_aged(name, day, rng.uniform_int(5, 60), rng.uniform_int(30, 400));
    }
    const util::Ipv4 ip = random_public_ip(rng);
    const std::size_t n_subs = rng.chance(0.75) ? 1 : 2 + rng.index(2);
    // Most legit services use one of the fleet-wide service UAs (popular in
    // the UA history); a minority run truly niche software.
    const double ua_kind = rng.uniform_double();
    for (const std::size_t h : rng.sample_indices(hosts_.size(), n_subs)) {
      const double period = kPeriods[rng.index(std::size(kPeriods))];
      util::TimePoint t = base + rng.uniform_int(0, 6 * util::kSecondsPerHour);
      const util::TimePoint until =
          base + util::kSecondsPerDay - rng.uniform_int(0, 4 * util::kSecondsPerHour);
      const std::string ua =
          ua_kind < 0.7 ? service_uas_[rng.index(service_uas_.size())]
                        : (ua_kind < 0.85 ? pick_browser_ua(h, rng)
                                          : rare_ua(rng));
      while (t < until) {
        Request req;
        req.ts = t;
        req.host = h;
        req.domain = name;
        req.ip = ip;
        req.ua = ua;
        req.url = "/ping";
        emit(sink, req, rng);
        t += static_cast<util::TimePoint>(period + rng.normal(0.0, 1.5));
      }
    }
  }
}

void EnterpriseSimulator::emit_grayware(DayLogs& sink, util::Day day,
                                        util::Rng& rng) {
  static constexpr double kPeriods[] = {600, 1200, 1800, 3600};
  const util::TimePoint base = util::day_start(day);
  for (std::size_t i = 0; i < config_.grayware_per_day; ++i) {
    std::string name;
    do {
      name = config_.flavor == Flavor::Dns ? lanl_domain(rng) : benign_domain(rng);
    } while (whois_.is_registered(name));
    // Grayware sits between C&C and benign: somewhat young registrations,
    // a mix of UA behaviours, and only half of it truly periodic — adware
    // check-ins often piggyback on browsing sessions.
    whois_.add_aged(name, day, rng.uniform_int(20, 400), rng.uniform_int(30, 365));
    truth_.set_label(name, TruthLabel::Grayware);
    const util::Ipv4 ip = random_public_ip(rng);
    const bool beacons = rng.chance(0.5);
    const std::size_t n_subs = 1 + rng.index(4);
    for (const std::size_t h : rng.sample_indices(hosts_.size(), n_subs)) {
      const double ua_kind = rng.uniform_double();
      const std::string ua = ua_kind < 0.4
                                 ? (hosts_[h].niche_ua.empty()
                                        ? rare_ua(rng)
                                        : hosts_[h].niche_ua)
                                 : (ua_kind < 0.5 ? std::string()
                                                  : pick_browser_ua(h, rng));
      if (beacons) {
        const double period = kPeriods[rng.index(std::size(kPeriods))];
        util::TimePoint t = base + rng.uniform_int(kWorkStart, kWorkEnd - 1);
        const util::TimePoint until = base + util::kSecondsPerDay -
                                      rng.uniform_int(0, 6 * util::kSecondsPerHour);
        while (t < until) {
          Request req;
          req.ts = t;
          req.host = h;
          req.domain = name;
          req.ip = ip;
          req.ua = ua;
          req.referer = rng.chance(0.35) ? popular_[rng.index(popular_.size())].name
                                         : std::string();
          req.url = "/track?u=" + std::to_string(rng.uniform(100000));
          emit(sink, req, rng);
          t += static_cast<util::TimePoint>(period + rng.normal(0.0, 2.5));
        }
      } else {
        util::TimePoint t = base + rng.uniform_int(kWorkStart, kWorkEnd - 1);
        const std::size_t n_requests = 2 + rng.index(5);
        for (std::size_t r = 0; r < n_requests; ++r) {
          Request req;
          req.ts = t;
          req.host = h;
          req.domain = name;
          req.ip = ip;
          req.ua = ua;
          req.url = "/offer";
          emit(sink, req, rng);
          t += 1 + static_cast<util::TimePoint>(rng.exponential(120.0));
        }
      }
    }
  }
}

void EnterpriseSimulator::emit_internal(DayLogs& sink, util::Day day,
                                        util::Rng& rng) {
  if (config_.flavor != Flavor::Dns) return;
  const util::TimePoint base = util::day_start(day);
  // Workstation queries for internal resources (filtered by reduction).
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    const std::size_t n = 2 + rng.index(4);
    for (std::size_t i = 0; i < n; ++i) {
      logs::DnsRecord rec;
      rec.ts = base + rng.uniform_int(0, util::kSecondsPerDay - 1);
      rec.src = hosts_[h].name;
      rec.domain = internal_domains_[rng.index(internal_domains_.size())];
      rec.type = logs::DnsType::A;
      rec.response_ip = util::Ipv4::from_octets(
          10, 10, static_cast<std::uint32_t>(rng.uniform(256)),
          static_cast<std::uint32_t>(1 + rng.uniform(254)));
      sink.dns.push_back(std::move(rec));
    }
  }
  // Internal servers resolve their own set of destinations (mail relays,
  // mirrors, telemetry); the server filter strips these (Fig. 2).
  for (const std::string& server : server_names_) {
    const std::size_t n_tail = config_.server_tail_per_day / server_names_.size();
    for (std::size_t i = 0; i < n_tail; ++i) {
      std::string name;
      do {
        name = config_.flavor == Flavor::Dns ? lanl_domain(rng)
                                             : benign_domain(rng);
      } while (whois_.is_registered(name));
      whois_.add_aged(name, day, rng.uniform_int(100, 4000),
                      rng.uniform_int(100, 2000));
      logs::DnsRecord rec;
      rec.ts = base + rng.uniform_int(0, util::kSecondsPerDay - 1);
      rec.src = server;
      rec.domain = name;
      rec.type = logs::DnsType::A;
      rec.response_ip = random_public_ip(rng);
      sink.dns.push_back(std::move(rec));
    }
    // Servers also query popular destinations heavily.
    const std::size_t n_popular_queries = 40 + rng.index(40);
    for (std::size_t i = 0; i < n_popular_queries; ++i) {
      const PopularDomain& dom = popular_[rng.zipf(popular_.size(), 1.1) - 1];
      logs::DnsRecord rec;
      rec.ts = base + rng.uniform_int(0, util::kSecondsPerDay - 1);
      rec.src = server;
      rec.domain = dom.name;
      rec.type = logs::DnsType::A;
      rec.response_ip = dom.ip;
      sink.dns.push_back(std::move(rec));
    }
  }
}

void EnterpriseSimulator::emit_beacons(DayLogs& sink, const CampaignState& campaign,
                                       const CampaignDomain& cc, std::size_t victim,
                                       util::TimePoint from, util::TimePoint to,
                                       util::Rng& rng) {
  const CampaignSpec& spec = campaign.spec;
  util::TimePoint t = from;
  while (t < to) {
    if (!rng.chance(spec.outlier_prob)) {
      Request req;
      req.ts = t;
      req.host = victim;
      req.domain = cc.name;
      req.ip = cc.ip;
      req.ua = campaign.malware_ua;  // "" when the backdoor sends no UA
      req.url = campaign_url(spec.name_style, rng);
      emit(sink, req, rng);
    }
    t += static_cast<util::TimePoint>(spec.cc_period_seconds +
                                      rng.normal(0.0, spec.jitter_seconds));
  }
}

void EnterpriseSimulator::emit_campaigns(DayLogs& sink, util::Day day,
                                         util::Rng& rng) {
  const util::TimePoint base = util::day_start(day);
  for (const CampaignState& campaign : campaigns_) {
    const CampaignSpec& spec = campaign.spec;
    if (day < spec.start_day || day >= spec.start_day + spec.duration_days) {
      continue;
    }
    util::Rng crng = rng.fork(0xcc000000ULL + static_cast<std::uint64_t>(spec.id));
    std::vector<const CampaignDomain*> delivery;
    std::vector<const CampaignDomain*> ccs;
    std::vector<const CampaignDomain*> second;
    for (const CampaignDomain& dom : campaign.domains) {
      switch (dom.role) {
        case CampaignDomain::Role::Delivery: delivery.push_back(&dom); break;
        case CampaignDomain::Role::CandC: ccs.push_back(&dom); break;
        case CampaignDomain::Role::SecondStage: second.push_back(&dom); break;
      }
    }
    for (const std::size_t victim : campaign.victims) {
      if (day == spec.start_day) {
        // Delivery chain: the victim hits the attacker domains within a
        // short window (Fig. 3: most malicious-pair gaps are << benign).
        util::TimePoint t =
            base + crng.uniform_int(9 * util::kSecondsPerHour,
                                    16 * util::kSecondsPerHour);
        std::string prev;
        for (const CampaignDomain* dom : delivery) {
          Request req;
          req.ts = t;
          req.host = victim;
          req.domain = dom->name;
          req.ip = dom->ip;
          req.ua = pick_browser_ua(victim, crng);  // user-driven stage
          if (!prev.empty() && crng.chance(0.5)) req.referer = prev;
          req.url = "/" + syllable_word(crng, 2) + ".html";
          emit(sink, req, crng);
          prev = dom->name;
          t += crng.uniform_int(2, 120);
        }
        // Foothold established; beaconing starts shortly after.
        const util::TimePoint start = t + crng.uniform_int(60, 600);
        for (const CampaignDomain* cc : ccs) {
          emit_beacons(sink, campaign, *cc, victim, start,
                       base + util::kSecondsPerDay, crng);
        }
      } else {
        for (const CampaignDomain* cc : ccs) {
          const util::TimePoint start =
              base + crng.uniform_int(
                         0, static_cast<util::TimePoint>(spec.cc_period_seconds) + 1);
          emit_beacons(sink, campaign, *cc, victim, start,
                       base + util::kSecondsPerDay, crng);
        }
        // Occasional second-stage payload pulls, close in time to a beacon.
        if (!second.empty() && crng.chance(0.3)) {
          const CampaignDomain* dom = second[crng.index(second.size())];
          const util::TimePoint t =
              base + crng.uniform_int(kWorkStart, kWorkEnd - 1);
          Request req;
          req.ts = t;
          req.host = victim;
          req.domain = dom->name;
          req.ip = dom->ip;
          req.ua = campaign.malware_ua;
          req.url = "/stage2.bin";
          emit(sink, req, crng);
          // And a paired C&C check-in moments later (timing correlation).
          Request checkin;
          checkin.ts = t + crng.uniform_int(5, 60);
          checkin.host = victim;
          checkin.domain = ccs.front()->name;
          checkin.ip = ccs.front()->ip;
          checkin.ua = campaign.malware_ua;
          checkin.url = campaign_url(spec.name_style, crng);
          emit(sink, checkin, crng);
        }
      }
    }
  }
}

DayLogs EnterpriseSimulator::simulate_day(util::Day day) {
  DayLogs out;
  util::Rng rng = world_rng_.fork(0xdadULL * 0x10000ULL +
                                  static_cast<std::uint64_t>(day - config_.day0));
  if (config_.flavor == Flavor::Proxy) assign_dhcp(day);
  emit_browsing(out, day, rng);
  emit_tail(out, day, rng);
  emit_automated_tail(out, day, rng);
  if (config_.flavor == Flavor::Proxy) emit_grayware(out, day, rng);
  emit_internal(out, day, rng);
  emit_campaigns(out, day, rng);
  const auto by_ts = [](const auto& a, const auto& b) { return a.ts < b.ts; };
  std::stable_sort(out.dns.begin(), out.dns.end(), by_ts);
  std::stable_sort(out.proxy.begin(), out.proxy.end(), by_ts);
  return out;
}

logs::DnsReductionConfig EnterpriseSimulator::dns_reduction_config() const {
  logs::DnsReductionConfig cfg;
  cfg.internal_suffixes.push_back(config_.internal_suffix);
  cfg.internal_servers.insert(server_names_.begin(), server_names_.end());
  cfg.fold_level = logs::FoldLevel::ThirdLevel;
  return cfg;
}

logs::ProxyReductionConfig EnterpriseSimulator::proxy_reduction_config() const {
  logs::ProxyReductionConfig cfg;
  cfg.collector_utc_offsets = collector_offsets_;
  cfg.fold_level = logs::FoldLevel::SecondLevel;
  return cfg;
}

std::vector<logs::ConnEvent> EnterpriseSimulator::reduced_day(
    util::Day day, logs::DnsReductionStats* dns_stats,
    logs::ProxyReductionStats* proxy_stats) {
  const DayLogs raw = simulate_day(day);
  if (config_.flavor == Flavor::Dns) {
    return logs::reduce_dns(raw.dns, dns_reduction_config(), dns_stats);
  }
  return logs::reduce_proxy(raw.proxy, dhcp_, proxy_reduction_config(),
                            proxy_stats);
}

}  // namespace eid::sim
