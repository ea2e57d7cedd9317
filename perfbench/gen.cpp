// Dataset generator of the end-to-end benchmark. Runs in its own process,
// before and outside the measured one, and writes everything a workload
// reads (see common.h for the layout):
//
//   perfbench_gen --seed <n> --out <dir>
//
// The world is the AC proxy scenario at its default scale (sim::AcConfig{},
// 1,500 hosts) with the given seed. January is written as the bootstrap +
// labeled training month and the first kOperationDays days of February as
// operation days. The generator then trains once from those files to write
// the post-training checkpoint, pads a copy of it to month-scale history
// for restart_longlived, and computes the threads=1 reference digests.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common.h"
#include "eval/metrics.h"
#include "logs/files.h"
#include "logs/folding.h"
#include "sim/ac.h"
#include "util/ipv4.h"

namespace {

using namespace perfbench;

// Padding shape: bench_state_io's month-scale corpus (~20k domains, ~150k UA
// entries over ~6k hosts). Every padded name carries a label the simulator
// never produces, so padding cannot change a report.
constexpr std::size_t kPadDomains = 20000;
constexpr std::size_t kPadUas = 150000;
constexpr std::size_t kPadHosts = 6000;

struct DayProps {
  util::Day day = 0;
  std::size_t records = 0;
  std::size_t events = 0;
  std::uintmax_t bytes = 0;
  std::size_t hosts = 0;
  std::size_t domains = 0;
};

bool write_lines(const std::filesystem::path& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
  out.flush();
  return static_cast<bool>(out);
}

/// Pad the trained state's histories through the replica-path absorb calls.
void pad_histories(api::Detector& detector) {
  core::Pipeline& pipeline = detector.pipeline();
  const std::size_t have = pipeline.domain_history().size();
  std::vector<std::string> domains;
  for (std::size_t d = 0; have + domains.size() < kPadDomains; ++d) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), "site-%06zu.history-pad.invalid", d);
    domains.emplace_back(buf);
  }
  pipeline.absorb_domain_delta(domains,
                               pipeline.domain_history().days_ingested());

  std::vector<std::string> hosts;
  hosts.reserve(kPadHosts);
  for (std::size_t h = 0; h < kPadHosts; ++h) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "pad-workstation-%05zu.history-pad.invalid",
                  h);
    hosts.emplace_back(buf);
  }
  util::Rng rng(42);
  const std::size_t have_uas = pipeline.ua_history().distinct_uas();
  std::vector<std::string_view> ua_hosts;
  for (std::size_t u = 0; have_uas + u < kPadUas; ++u) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
                  "HistoryPadApp-%06zu/%zu.%zu",
                  u, 1 + u % 7, u % 10);
    if (u % 10 == 0) {
      pipeline.absorb_ua_entry(buf, true, {});
      continue;
    }
    const std::size_t n = 6 + rng.uniform(4);
    ua_hosts.clear();
    for (std::size_t i = 0; i < n; ++i) {
      ua_hosts.push_back(hosts[rng.uniform(kPadHosts)]);
    }
    pipeline.absorb_ua_entry(buf, false, {ua_hosts.data(), ua_hosts.size()});
  }
}

/// The training of train_from_disk, with each day's log parsed ahead on up
/// to `threads` worker threads; the detector still ingests the days in
/// order. It yields the checkpoint a from-disk training makes: every
/// batch_proxy run trains from disk and checks its reports against the
/// digests computed from this one.
void train_parsing_ahead(api::Detector& detector, const Dataset& data,
                         std::size_t threads) {
  const auto parse = [&data](util::Day day) {
    api::TsvFileSource file(data.proxy_file(day), day, data.leases,
                            data.reduction);
    std::vector<logs::ConnEvent> events;
    while (auto chunk = file.next_chunk()) {
      events.insert(events.end(), chunk->events.begin(), chunk->events.end());
    }
    return events;
  };
  const core::LabelFn intel = data.intel_fn();
  std::deque<std::future<std::vector<logs::ConnEvent>>> ahead;
  util::Day next = training_begin();
  for (util::Day day = training_begin(); day <= training_end(); ++day) {
    while (next <= training_end() && ahead.size() < threads) {
      ahead.push_back(std::async(std::launch::async, parse, next++));
    }
    api::VectorSource source(day, ahead.front().get());
    ahead.pop_front();
    if (day < labeled_begin()) {
      detector.ingest(source);
    } else {
      detector.ingest(source, intel);
    }
  }
  detector.finalize_training();
  detector.set_intel_domains(data.seeds.domains);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_gen --seed <n> --out <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::filesystem::path out;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = argv[i + 1];
    } else {
      return usage();
    }
  }
  if (!have_seed || out.empty() || argc % 2 == 0) return usage();
  std::error_code ec;
  std::filesystem::remove(out / "COMPLETE", ec);
  std::filesystem::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench_gen: cannot create %s\n", out.c_str());
    return 1;
  }
  const auto start = Clock::now();
  const std::size_t threads = nproc();

  // ---- Logs ----
  // The simulator runs on this thread. Each day's file is written, and its
  // destination names collected, on a writer thread while the next day is
  // simulated. Only operation days are reduced here, for their per-day
  // properties and first contacts: reduction reads the DHCP table, which the
  // simulator keeps changing. The WHOIS and intel files cover every folded
  // destination in the logs, a superset of the reduced events' domains.
  sim::AcConfig world;
  world.seed = seed;
  sim::AcScenario scenario(world);
  sim::EnterpriseSimulator& simulator = scenario.simulator();
  const logs::ProxyReductionConfig& reduction =
      simulator.proxy_reduction_config();
  const util::Day last = operation_begin() + kOperationDays - 1;
  std::vector<std::string> first_seen;
  std::vector<DayProps> props;
  std::unordered_set<std::string> raw_domains;  // the writer's until joined
  bool write_failed = false;                    // the writer's until joined
  std::thread writer;
  for (util::Day day = training_begin(); day <= last; ++day) {
    const auto raw = std::make_shared<const sim::DayLogs>(
        simulator.simulate_day(day));
    if (writer.joinable()) writer.join();
    writer = std::thread([raw, &raw_domains, &write_failed,
                          path = out / ("proxy-" + util::format_day(day) +
                                        ".tsv")] {
      write_failed = !logs::write_proxy_file(path, raw->proxy) || write_failed;
      for (const logs::ProxyRecord& record : raw->proxy) {
        raw_domains.insert(record.domain);
      }
    });
    DayProps& p = props.emplace_back();
    p.day = day;
    p.records = raw->proxy.size();
    if (day < operation_begin()) continue;
    const std::vector<logs::ConnEvent> events =
        logs::reduce_proxy(raw->proxy, simulator.dhcp(), reduction);
    std::unordered_map<std::string, util::TimePoint> firsts;
    std::unordered_set<std::string> hosts;
    for (const logs::ConnEvent& event : events) {
      const auto [it, fresh] = firsts.emplace(event.domain, event.ts);
      if (!fresh) it->second = std::min(it->second, event.ts);
      hosts.insert(event.host);
    }
    for (const auto& [domain, ts] : firsts) {
      first_seen.push_back(std::to_string(day) + '\t' + domain + '\t' +
                           std::to_string(ts));
    }
    p.events = events.size();
    p.hosts = hosts.size();
    p.domains = firsts.size();
  }
  writer.join();
  if (write_failed) {
    std::fprintf(stderr, "perfbench_gen: cannot write the logs to %s\n",
                 out.c_str());
    return 1;
  }
  for (DayProps& p : props) {
    p.bytes = std::filesystem::file_size(
        out / ("proxy-" + util::format_day(p.day) + ".tsv"));
  }
  std::set<std::string> domains;
  for (const std::string& name : raw_domains) {
    if (!name.empty() && !util::parse_ipv4(name)) {
      domains.insert(logs::fold_domain(name, reduction.fold_level));
    }
  }
  std::sort(first_seen.begin(), first_seen.end());

  std::vector<logs::DhcpLease> leases;
  simulator.dhcp().for_each_lease(
      [&leases](const logs::DhcpLease& lease) { leases.push_back(lease); });
  std::vector<std::string> collectors;
  for (const auto& [id, offset] : reduction.collector_utc_offsets) {
    collectors.push_back(id + '\t' + std::to_string(offset));
  }
  std::vector<std::string> whois;
  std::vector<std::string> intel;
  std::vector<std::string> labels;
  const sim::IntelOracle& oracle = scenario.oracle();
  for (const std::string& domain : domains) {
    if (const auto info = simulator.whois().lookup(domain)) {
      whois.push_back(domain + '\t' + std::to_string(info->registered) + '\t' +
                      std::to_string(info->expires));
    }
    if (oracle.vt_reported(domain)) intel.push_back(domain);
    const eval::ValidationCategory category =
        eval::classify_detection(domain, oracle);
    if (category != eval::ValidationCategory::Legitimate) {
      labels.push_back(domain + '\t' +
                       eval::validation_category_name(category));
    }
  }
  if (!logs::write_dhcp_file(out / "dhcp.tsv", leases) ||
      !write_lines(out / "collectors.tsv", collectors) ||
      !write_lines(out / "whois.tsv", whois) ||
      !write_lines(out / "intel.txt", intel) ||
      !write_lines(out / "ioc.txt", scenario.ioc_seeds()) ||
      !write_lines(out / "labels.tsv", labels) ||
      !write_lines(out / "first_seen.tsv", first_seen)) {
    std::fprintf(stderr, "perfbench_gen: cannot write inputs to %s\n",
                 out.c_str());
    return 1;
  }
  const double logs_s = seconds_since(start);

  // ---- Checkpoints, from the files just written ----
  Dataset data;
  if (!data.load(out, /*with_reference=*/false)) return 1;
  storage::LoadStatus status;
  std::size_t history_domains = 0;
  std::size_t history_uas = 0;
  {
    api::Detector detector(pipeline_config(threads), data.whois);
    train_parsing_ahead(detector, data, threads);
    history_domains = detector.pipeline().domain_history().size();
    history_uas = detector.pipeline().ua_history().distinct_uas();
    if (!detector.save_state(data.trained_state(), &status)) {
      std::fprintf(stderr, "perfbench_gen: save trained: %s\n",
                   status.detail.c_str());
      return 1;
    }
  }
  const double train_s = seconds_since(start) - logs_s;

  // ---- Padded checkpoint and threads=1 reference ----
  // The rt reference replays the cross-day window and dominates; it runs on
  // its own thread next to the padding and the batch reference.
  std::string rt_error;
  std::string rt_line;
  std::vector<core::DayReport> rt_days;
  double rt_ref_s = 0.0;
  const auto rt_reference_body = [&] {
    const auto rt_start = Clock::now();
    api::Detector detector(pipeline_config(1), data.whois);
    storage::LoadStatus rt_status;
    if (!detector.load_state(data.trained_state(), &rt_status)) {
      rt_error = "load trained: " + rt_status.detail;
      return;
    }
    detector.set_parallelism(pipeline_config(1).parallelism);
    const RtPass pass = run_rt_pass(detector, data);
    char line[96];
    std::snprintf(
        line, sizeof(line), "rt\t%zu\t%016llx", pass.report.emissions.size(),
        static_cast<unsigned long long>(emissions_digest(pass.report.emissions)));
    rt_line = line;
    rt_days = pass.report.days;
    rt_ref_s = seconds_since(rt_start);
  };
  std::thread rt_reference([&] {
    try {
      rt_reference_body();
    } catch (const std::exception& error) {
      rt_error = error.what();
    }
  });

  std::size_t padded_domains = 0;
  std::size_t padded_uas = 0;
  std::size_t padded_hosts = 0;
  bool ok = true;
  {
    api::Detector detector(pipeline_config(threads), data.whois);
    ok = detector.load_state(data.trained_state(), &status);
    if (ok) {
      pad_histories(detector);
      const core::Pipeline& pipeline = detector.pipeline();
      padded_domains = pipeline.domain_history().size();
      padded_uas = pipeline.ua_history().distinct_uas();
      padded_hosts = pipeline.ua_history().distinct_hosts();
      ok = detector.save_state(data.padded_state(), &status);
    }
  }
  std::vector<std::string> reference;
  std::map<util::Day, std::uint64_t> digests;
  if (ok) {
    api::Detector detector(pipeline_config(1), data.whois);
    ok = detector.load_state(data.trained_state(), &status);
    detector.set_parallelism(pipeline_config(1).parallelism);
    for (util::Day day = operation_begin(); ok && day <= last; ++day) {
      api::TsvFileSource source(data.proxy_file(day), day, data.leases,
                                data.reduction);
      const core::DayReport report = detector.run_day(source, day, data.seeds);
      digests[day] = report_digest(report);
      char line[96];
      std::snprintf(line, sizeof(line), "day\t%lld\t%016llx",
                    static_cast<long long>(day),
                    static_cast<unsigned long long>(digests[day]));
      reference.emplace_back(line);
    }
  }
  rt_reference.join();
  if (!ok || !rt_error.empty()) {
    std::fprintf(stderr, "perfbench_gen: checkpoints: %s%s\n",
                 status.detail.c_str(), rt_error.c_str());
    return 1;
  }
  for (const core::DayReport& report : rt_days) {
    if (report_digest(report) != digests[report.day]) {
      std::fprintf(stderr,
                   "perfbench_gen: rt day-close report of %s differs from "
                   "the batch report\n",
                   util::format_day(report.day).c_str());
      return 1;
    }
  }
  reference.push_back(rt_line);
  const double reference_s = seconds_since(start) - logs_s - train_s;
  if (!write_lines(out / "reference.tsv", reference)) return 1;

  // ---- Input properties ----
  {
    std::ofstream json(out / "properties.json", std::ios::trunc);
    json << "{\"seed\": " << seed << ", \"hosts_configured\": "
         << world.n_hosts << ",\n \"days\": [";
    for (std::size_t i = 0; i < props.size(); ++i) {
      const DayProps& p = props[i];
      json << (i ? ",\n  " : "\n  ") << "{\"day\": \""
           << util::format_day(p.day) << "\", \"records\": " << p.records
           << ", \"mb\": " << static_cast<double>(p.bytes) / 1e6;
      if (p.day >= operation_begin()) {
        json << ", \"events\": " << p.events << ", \"hosts\": " << p.hosts
             << ", \"domains\": " << p.domains;
      }
      json << "}";
    }
    json << "],\n \"distinct_domains\": " << domains.size()
         << ", \"whois_records\": " << whois.size()
         << ", \"intel_domains\": " << intel.size()
         << ", \"ioc_domains\": " << data.seeds.domains.size()
         << ", \"nonlegit_domains\": " << labels.size()
         << ",\n \"trained_history_domains\": " << history_domains
         << ", \"trained_history_uas\": " << history_uas
         << ", \"trained_state_bytes\": "
         << std::filesystem::file_size(data.trained_state())
         << ",\n \"padded_history_domains\": " << padded_domains
         << ", \"padded_history_uas\": " << padded_uas
         << ", \"padded_history_hosts\": " << padded_hosts
         << ", \"padded_state_bytes\": "
         << std::filesystem::file_size(data.padded_state())
         << ",\n \"generate_seconds\": {\"logs\": " << logs_s
         << ", \"train\": " << train_s
         << ", \"pad_and_reference\": " << reference_s
         << ", \"rt_reference\": " << rt_ref_s << "}}\n";
  }
  std::ofstream(out / "COMPLETE", std::ios::trunc) << "ok\n";
  std::printf("perfbench_gen: seed %llu -> %s (logs %.1fs, train %.1fs, "
              "pad + references %.1fs, of which rt reference %.1fs)\n",
              static_cast<unsigned long long>(seed), out.c_str(), logs_s,
              train_s, reference_s, rt_ref_s);
  return 0;
}
