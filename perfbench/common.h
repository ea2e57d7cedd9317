// Shared pieces of the end-to-end benchmark: the on-disk dataset layout the
// generator writes and the measured program reads, the file-backed WHOIS
// source, report digests and small timing/statistics helpers.
//
// Dataset layout (one directory per seed):
//   proxy-YYYY-MM-DD.tsv   raw proxy log, one file per day (logs/io.h format)
//   dhcp.tsv               DHCP leases over the whole range
//   collectors.tsv         proxy collector id -> UTC offset (seconds)
//   whois.tsv              domain -> registered, expires (days)
//   intel.txt              domains the intelligence feed reports (labels)
//   ioc.txt                SOC IOC seed domains (hints-mode BP seeds)
//   labels.tsv             oracle category of every non-legitimate domain
//   first_seen.tsv         day, domain, first contact time (operation days)
//   trained.state          post-training checkpoint
//   padded.state           trained checkpoint padded to month-scale history
//   reference.tsv          threads=1 digests of reports and rt emissions
//   properties.json        input properties of the dataset
//   COMPLETE               written last; the dataset is usable only with it
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/detector.h"
#include "api/sources.h"
#include "core/pipeline.h"
#include "features/whois_source.h"
#include "logs/dhcp.h"
#include "logs/reduction.h"
#include "rt/engine.h"

namespace perfbench {

using namespace eid;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calendar of the AC scenario as the benchmark uses it: January is the
/// bootstrap + labeled training month, the first `kOperationDays` days of
/// February are the operation days every workload replays.
inline constexpr int kLabeledDays = 14;
inline constexpr int kOperationDays = 7;
/// An rt_replay pass replays the first operation day, which only fills the
/// sliding window, then the first kRtExpiryTicks ticks of the second, where
/// every tick expires the window's oldest bucket. Every such tick costs about
/// the same (a full window), so a slice of the day measures the same tick
/// cost as the whole day at a fraction of the run time.
inline constexpr int kRtExpiryTicks = 12;
inline constexpr int kTickSeconds = 300;

util::Day training_begin();
util::Day training_end();
util::Day labeled_begin();
util::Day operation_begin();

/// WHOIS answers recorded by the generator: the registry lookups of every
/// domain in the logs, replayed from a file.
class FileWhois final : public features::WhoisSource {
 public:
  std::optional<features::WhoisInfo> lookup(
      const std::string& domain) const override;
  void add(std::string domain, features::WhoisInfo info) {
    records_.emplace(std::move(domain), info);
  }
  std::size_t size() const { return records_.size(); }

 private:
  std::unordered_map<std::string, features::WhoisInfo> records_;
};

/// Threads=1 reference: digest of each operation day's day_report_to_json,
/// and of the rt emission sequence of one rt_replay pass.
struct Reference {
  std::map<util::Day, std::uint64_t> day_digest;
  std::uint64_t rt_emissions = 0;
  std::size_t rt_emission_count = 0;
};

/// Everything the measured program reads from a dataset directory.
struct Dataset {
  std::filesystem::path dir;
  logs::DhcpTable leases;
  logs::ProxyReductionConfig reduction;
  FileWhois whois;
  std::vector<std::string> intel;  ///< sorted, unique
  core::SocSeeds seeds;
  std::unordered_map<std::string, std::string> labels;  ///< non-legitimate
  /// (day, domain) -> first contact of the day, for batch emission latency.
  std::map<std::pair<util::Day, std::string>, util::TimePoint> first_seen;
  Reference reference;

  std::filesystem::path proxy_file(util::Day day) const;
  std::filesystem::path trained_state() const { return dir / "trained.state"; }
  std::filesystem::path padded_state() const { return dir / "padded.state"; }
  core::LabelFn intel_fn() const;

  /// Reads every input file; false (with a message on stderr) when one is
  /// missing or malformed. `with_reference` also reads reference.tsv.
  /// Completeness (the COMPLETE marker) is the caller's check.
  bool load(const std::filesystem::path& directory, bool with_reference);
};

/// 64-bit FNV-1a, folded over successive strings.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

std::uint64_t report_digest(const core::DayReport& report);

/// Digest of an rt emission sequence: one line per emission (kind, incident,
/// day, event and emission time, latency, domains, hosts), in order.
std::uint64_t emissions_digest(std::span<const rt::IncidentEmission> emissions);

/// EventSource decorator that adds the wall time spent inside the inner
/// source's next_chunk (parse + reduce) to `busy` and counts what it hands
/// out — the api.source layer, timed from outside.
class TimedSource final : public api::EventSource {
 public:
  struct Totals {
    double busy_seconds = 0.0;
    std::size_t events = 0;
  };
  TimedSource(api::EventSource& inner, Totals& totals)
      : inner_(inner), totals_(totals) {}
  std::optional<api::EventChunk> next_chunk() override;
  bool reset() override { return inner_.reset(); }
  bool concurrent_pull_safe() const override {
    return inner_.concurrent_pull_safe();
  }

 private:
  api::EventSource& inner_;
  Totals& totals_;
};

/// Pull one day's source and cut the stream into tick-aligned chunks, the
/// way a live tail of the collector delivers them: events in arrival order,
/// a new chunk whenever an event's tick is past the current chunk's tick.
/// Stops pulling once `max_ticks` chunks are complete.
std::vector<std::vector<logs::ConnEvent>> tick_chunks(
    api::EventSource& source, std::size_t max_ticks = SIZE_MAX);

/// One rt_replay pass: a ContinuousEngine (ReplayClock, tick=300, one-day
/// window) over the first operation day and kRtExpiryTicks ticks of the
/// second, fed tick-aligned chunks one poll at a time. The pass ends without
/// finish(): its report holds the first day's close (made by the second
/// day's first poll) and every emission so far. The detector must hold the
/// post-training state.
struct RtPass {
  struct Day {
    double wall_seconds = 0.0;  ///< parse + polls
    double poll_seconds = 0.0;  ///< polls
    TimedSource::Totals parse;  ///< TsvFileSource::next_chunk
    std::size_t lines = 0;      ///< log lines read
    std::uint64_t bytes = 0;    ///< log bytes read
    rt::EngineStats stats;      ///< cumulative, after the day's last poll
  };
  rt::ContinuousReport report;
  std::vector<Day> days;
  /// Wall seconds of each poll on the second day — a tick's evaluation
  /// plus ingest of the chunk that closed it.
  std::vector<double> tick_seconds;
  std::size_t events = 0;
  double wall_seconds = 0.0;
};
RtPass run_rt_pass(api::Detector& detector, const Dataset& data);

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// CPUs this process may run on (sched_getaffinity): the thread and shard
/// count of the generator and of a traced run's wide phase.
std::size_t nproc();

/// Thread and shard count of every workload: enterprise_monitor's default.
/// On a few shared vCPUs the parallel paths bought no speed on any workload
/// and made run-to-run times spread far more (README, "Threads").
inline constexpr std::size_t kThreads = 1;

core::PipelineConfig pipeline_config(std::size_t threads);

/// Seconds spent in each call family of train_from_disk.
struct TrainTimes {
  double profile_seconds = 0.0;  ///< Detector::ingest of the bootstrap days
  /// Detector::ingest(source, intel) of the labeled days + finalize_training.
  double train_seconds = 0.0;
  TimedSource::Totals parse;     ///< TsvFileSource::next_chunk inside ingest
  std::size_t lines = 0;         ///< log lines read
  std::uint64_t bytes = 0;       ///< log bytes read
};

/// Bootstrap + labeled training month from disk, then finalize_training and
/// the SOC intel list — the set-up of the nightly batch job. `times`
/// (optional) receives the per-call split.
void train_from_disk(api::Detector& detector, const Dataset& data,
                     TrainTimes* times = nullptr);

}  // namespace perfbench
