#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/report_json.h"
#include "logs/files.h"

namespace perfbench {

util::Day training_begin() { return util::make_day(2014, 1, 1); }
util::Day training_end() { return util::make_day(2014, 1, 31); }
util::Day labeled_begin() { return training_end() - kLabeledDays + 1; }
util::Day operation_begin() { return util::make_day(2014, 2, 1); }

std::optional<features::WhoisInfo> FileWhois::lookup(
    const std::string& domain) const {
  const auto it = records_.find(domain);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::filesystem::path Dataset::proxy_file(util::Day day) const {
  return dir / ("proxy-" + util::format_day(day) + ".tsv");
}

core::LabelFn Dataset::intel_fn() const {
  return [this](const std::string& domain) {
    return std::binary_search(intel.begin(), intel.end(), domain);
  };
}

namespace {

bool fail(const std::filesystem::path& path, const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), what);
  return false;
}

/// Reads a TSV file line by line into `row`; false when it cannot be opened
/// or a row callback rejects a line.
template <typename Fn>
bool read_tsv(const std::filesystem::path& path, Fn&& row) {
  std::ifstream in(path);
  if (!in) return fail(path, "cannot open");
  std::string line;
  std::vector<std::string> fields;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    fields.clear();
    std::size_t start = 0;
    while (true) {
      const std::size_t tab = line.find('\t', start);
      fields.push_back(line.substr(start, tab - start));
      if (tab == std::string::npos) break;
      start = tab + 1;
    }
    if (!row(fields)) return fail(path, "malformed line");
  }
  return true;
}

bool to_int(const std::string& text, std::int64_t& out) {
  char* end = nullptr;
  out = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end == text.c_str() + text.size();
}

bool to_u64(const std::string& text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 16);
  return !text.empty() && end == text.c_str() + text.size();
}

}  // namespace

bool Dataset::load(const std::filesystem::path& directory, bool with_reference) {
  dir = directory;
  logs::FileReadStats dhcp_stats;
  for (auto& lease : logs::read_dhcp_file(dir / "dhcp.tsv", &dhcp_stats)) {
    leases.add_lease(std::move(lease));
  }
  if (!dhcp_stats.opened || dhcp_stats.malformed > 0) {
    return fail(dir / "dhcp.tsv", "unreadable lease file");
  }
  reduction = logs::ProxyReductionConfig{};
  if (!read_tsv(dir / "collectors.tsv", [this](const auto& f) {
        std::int64_t offset = 0;
        if (f.size() != 2 || !to_int(f[1], offset)) return false;
        reduction.collector_utc_offsets.emplace_back(f[0],
                                                     static_cast<int>(offset));
        return true;
      })) {
    return false;
  }
  if (!read_tsv(dir / "whois.tsv", [this](const auto& f) {
        std::int64_t registered = 0;
        std::int64_t expires = 0;
        if (f.size() != 3 || !to_int(f[1], registered) ||
            !to_int(f[2], expires)) {
          return false;
        }
        whois.add(f[0], features::WhoisInfo{registered, expires});
        return true;
      })) {
    return false;
  }
  const auto read_list = [](const std::filesystem::path& path,
                            std::vector<std::string>& out) {
    return read_tsv(path, [&out](const auto& f) {
      if (f.size() != 1) return false;
      out.push_back(f[0]);
      return true;
    });
  };
  if (!read_list(dir / "intel.txt", intel) ||
      !read_list(dir / "ioc.txt", seeds.domains)) {
    return false;
  }
  std::sort(intel.begin(), intel.end());
  intel.erase(std::unique(intel.begin(), intel.end()), intel.end());
  if (!read_tsv(dir / "labels.tsv", [this](const auto& f) {
        if (f.size() != 2) return false;
        labels.emplace(f[0], f[1]);
        return true;
      })) {
    return false;
  }
  if (!read_tsv(dir / "first_seen.tsv", [this](const auto& f) {
        std::int64_t day = 0;
        std::int64_t ts = 0;
        if (f.size() != 3 || !to_int(f[0], day) || !to_int(f[2], ts)) {
          return false;
        }
        first_seen.emplace(std::make_pair(day, f[1]), ts);
        return true;
      })) {
    return false;
  }
  if (!with_reference) return true;
  bool have_rt = false;
  if (!read_tsv(dir / "reference.tsv", [&](const auto& f) {
        std::uint64_t digest = 0;
        std::int64_t key = 0;
        if (f.size() != 3 || !to_u64(f[2], digest) || !to_int(f[1], key)) {
          return false;
        }
        if (f[0] == "day") {
          reference.day_digest[key] = digest;
        } else if (f[0] == "rt") {
          reference.rt_emission_count = static_cast<std::size_t>(key);
          reference.rt_emissions = digest;
          have_rt = true;
        } else {
          return false;
        }
        return true;
      })) {
    return false;
  }
  if (!have_rt ||
      reference.day_digest.size() != static_cast<std::size_t>(kOperationDays)) {
    return fail(dir / "reference.tsv", "incomplete reference");
  }
  return true;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t report_digest(const core::DayReport& report) {
  return fnv1a(core::day_report_to_json(report));
}

std::uint64_t emissions_digest(
    std::span<const rt::IncidentEmission> emissions) {
  std::ostringstream out;
  for (const rt::IncidentEmission& emission : emissions) {
    out << (emission.provisional ? 'P' : 'F') << ' ' << emission.incident_id
        << ' ' << emission.new_incident << ' ' << emission.day << ' '
        << emission.event_time << ' ' << emission.emission_time << ' '
        << emission.latency_seconds << " d";
    for (const auto& domain : emission.domains) out << ' ' << domain;
    out << " h";
    for (const auto& host : emission.hosts) out << ' ' << host;
    out << '\n';
  }
  return fnv1a(out.str());
}

std::optional<api::EventChunk> TimedSource::next_chunk() {
  const auto start = Clock::now();
  auto chunk = inner_.next_chunk();
  totals_.busy_seconds += seconds_since(start);
  if (chunk) totals_.events += chunk->events.size();
  return chunk;
}

std::vector<std::vector<logs::ConnEvent>> tick_chunks(
    api::EventSource& source, std::size_t max_ticks) {
  std::vector<std::vector<logs::ConnEvent>> chunks;
  std::int64_t tick = 0;
  while (chunks.size() <= max_ticks) {
    auto chunk = source.next_chunk();
    if (!chunk) break;
    for (const logs::ConnEvent& event : chunk->events) {
      const std::int64_t event_tick =
          event.ts >= 0 ? event.ts / kTickSeconds
                        : (event.ts - (kTickSeconds - 1)) / kTickSeconds;
      if (chunks.empty() || event_tick > tick) {
        chunks.emplace_back();
        tick = event_tick;
      }
      chunks.back().push_back(event);
    }
  }
  if (chunks.size() > max_ticks) chunks.resize(max_ticks);
  return chunks;
}

RtPass run_rt_pass(api::Detector& detector, const Dataset& data) {
  rt::EngineConfig config;
  config.window.tick_seconds = kTickSeconds;
  config.seeds = data.seeds;
  rt::ReplayClock clock;
  rt::ContinuousEngine engine(detector, clock, config);
  RtPass pass;
  const auto start = Clock::now();
  for (int i = 0; i < 2; ++i) {
    const util::Day day = operation_begin() + i;
    RtPass::Day& record = pass.days.emplace_back();
    const auto day_start = Clock::now();
    api::TsvFileSource file(data.proxy_file(day), day, data.leases,
                            data.reduction);
    TimedSource timed(file, record.parse);
    const std::vector<std::vector<logs::ConnEvent>> chunks =
        tick_chunks(timed, i == 0 ? SIZE_MAX : kRtExpiryTicks);
    record.lines = file.stats().lines;
    record.bytes = file.stats().byte_offset;
    for (const auto& events : chunks) {
      api::VectorSource chunk(day, &events, events.size());
      const auto poll_start = Clock::now();
      pass.events += engine.poll(chunk);
      const double seconds = seconds_since(poll_start);
      record.poll_seconds += seconds;
      if (i > 0) pass.tick_seconds.push_back(seconds);
    }
    record.stats = engine.stats();
    record.wall_seconds = seconds_since(day_start);
  }
  pass.wall_seconds = seconds_since(start);
  pass.report = engine.take_report();
  return pass;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank =
      static_cast<std::size_t>(std::max(0.0, std::ceil(q * n) - 1.0));
  return values[std::min(rank, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t nproc() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus)));
}

core::PipelineConfig pipeline_config(std::size_t threads) {
  core::PipelineConfig config;
  config.parallelism = core::Parallelism{threads, threads, 1};
  return config;
}

void train_from_disk(api::Detector& detector, const Dataset& data,
                     TrainTimes* times) {
  TrainTimes local;
  TrainTimes& t = times != nullptr ? *times : local;
  const core::LabelFn intel = data.intel_fn();
  for (util::Day day = training_begin(); day <= training_end(); ++day) {
    api::TsvFileSource file(data.proxy_file(day), day, data.leases,
                            data.reduction);
    TimedSource source(file, t.parse);
    const auto start = Clock::now();
    if (day < labeled_begin()) {
      detector.ingest(source);
      t.profile_seconds += seconds_since(start);
    } else {
      detector.ingest(source, intel);
      t.train_seconds += seconds_since(start);
    }
    t.lines += file.stats().lines;
    t.bytes += file.stats().byte_offset;
  }
  const auto start = Clock::now();
  detector.finalize_training();
  t.train_seconds += seconds_since(start);
  detector.set_intel_domains(data.seeds.domains);
}

}  // namespace perfbench
