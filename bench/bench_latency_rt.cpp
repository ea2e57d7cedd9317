// Real-time continuous detection: event→emission latency and tick
// throughput (rt/engine.h). The batch system's detection latency floor is
// one full day — an infection at 09:00 surfaces at midnight. The
// continuous engine re-scores a sliding window every tick and announces
// never-seen-before domains as provisional incidents, so its floor is
// detection lag + one tick. This bench replays one operation day of the
// canonical AC world through the engine at several tick sizes, in both
// window modes — incremental (cached per-bucket partials, the default) and
// rebuild (re-ingest the window's raw events every tick, the
// WindowConfig::incremental = false escape hatch) — and records:
//
//   * provisional emission latency (sim-time, nearest-rank p50/p99/max),
//   * wall time of each mode plus rt_incremental_speedup (rebuild /
//     incremental) and the per-tick evaluation cost distribution
//     (tick_p50/p99_seconds),
//   * peak raw-event backlog of each mode — incremental seals evaluated
//     buckets into partials and drops their raw events, so its peak must
//     stay well below the day's event count (asserted below),
//   * and that both modes close the day bit-identical to run_day AND emit
//     identical provisional incident sequences — the bench fails if
//     either mode diverges.
//
// The trained detector is checkpointed once and restored per config
// (storage/state.h), so every run starts from an identical state.
//
// Pass --json[=path] to record the results as the "latency_rt" section of
// BENCH_perf.json at the repo root (run from the repo root).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "api/event_source.h"
#include "bench_common.h"
#include "core/report_json.h"
#include "eval/ac_runner.h"
#include "obs/trace.h"
#include "rt/engine.h"

namespace {

using namespace eid;

/// Nearest-rank percentile of an (unsorted) sample; 0 when empty.
double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::max<long long>(0, static_cast<long long>(p * sample.size() + 0.5) - 1));
  return sample[std::min(rank, sample.size() - 1)];
}

/// Every field of every emission, serialized for exact sequence comparison
/// between the incremental and rebuild runs.
std::string emission_fingerprint(const std::vector<rt::IncidentEmission>& es) {
  std::ostringstream out;
  for (const rt::IncidentEmission& e : es) {
    out << e.incident_id << '|' << e.provisional << '|' << e.new_incident
        << '|' << e.day << '|' << e.event_time << '|' << e.emission_time << '|'
        << e.latency_seconds << '|';
    for (const std::string& d : e.domains) out << d << ',';
    out << '|';
    for (const std::string& h : e.hosts) out << h << ',';
    out << '\n';
  }
  return out.str();
}

struct ModeResult {
  double run_seconds = 0.0;
  double tick_p50_seconds = 0.0;
  double tick_p99_seconds = 0.0;
  std::size_t peak_buffered_events = 0;
  rt::ContinuousReport report;
};

struct ConfigResult {
  std::int64_t tick_seconds = 0;
  std::size_t ticks_closed = 0;
  std::size_t evaluations = 0;
  std::size_t provisional_emissions = 0;
  std::size_t finalized_emissions = 0;
  rt::LatencySummary latency{};
  ModeResult incremental;
  ModeResult rebuild;
  double speedup = 0.0;
  double events_per_second = 0.0;
  double ticks_per_second = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");

  bench::print_header("LATENCY-RT",
                      "continuous engine: emission latency + tick throughput");
  bench::print_note(
      "sim-time latency is deterministic; wall-time throughput and the "
      "incremental speedup vary with the machine");

  sim::AcScenario scenario(bench::ac_config());
  eval::AcRunner runner(scenario);
  std::printf("training on January...\n");
  runner.train();

  // Checkpoint the trained state once; every measured run restores it so
  // batch and continuous start bit-identical.
  const std::filesystem::path state_path =
      std::filesystem::temp_directory_path() / "eid-bench-latency-rt.state";
  if (!runner.detector().save_state(state_path)) {
    std::fprintf(stderr, "bench_latency_rt: checkpoint save failed\n");
    return 1;
  }

  const util::Day day = scenario.operation_begin();
  // The simulator is forward-only: materialize the day once and replay it
  // from memory for every config.
  const std::vector<logs::ConnEvent> events =
      scenario.simulator().reduced_day(day);
  core::SocSeeds seeds;
  seeds.domains = scenario.ioc_seeds();
  std::printf("operation day %s: %zu events, %zu IOC seeds\n",
              util::format_day(day).c_str(), events.size(),
              seeds.domains.size());

  const auto fresh_detector = [&] {
    api::Detector detector(core::PipelineConfig{},
                           scenario.simulator().whois());
    if (!detector.load_state(state_path)) {
      std::fprintf(stderr, "bench_latency_rt: checkpoint restore failed\n");
      std::exit(1);
    }
    return detector;
  };

  // Batch baseline: the report every continuous run must close with.
  double batch_seconds = 0.0;
  std::string baseline;
  {
    api::Detector detector = fresh_detector();
    api::VectorSource source(day, &events);
    const auto start = obs::Clock::now();
    const core::DayReport report = detector.run_day(source, day, seeds);
    batch_seconds = obs::seconds_since(start);
    baseline = core::day_report_to_json(report);
    std::printf("batch run_day: %.3fs, %zu C&C, %zu no-hint, %zu soc-hints\n",
                batch_seconds, report.cc_domains.size(),
                report.nohint.domains.size(), report.sochints.domains.size());
  }

  const auto run_mode = [&](std::int64_t tick, bool incremental) {
    api::Detector detector = fresh_detector();
    rt::EngineConfig config;
    config.window.tick_seconds = tick;
    config.window.incremental = incremental;
    config.seeds = seeds;
    api::VectorSource source(day, &events);
    const auto start = obs::Clock::now();
    ModeResult r;
    r.report = detector.run_continuous(source, config);
    r.run_seconds = obs::seconds_since(start);
    r.tick_p50_seconds = percentile(r.report.tick_eval_seconds, 0.50);
    r.tick_p99_seconds = percentile(r.report.tick_eval_seconds, 0.99);
    r.peak_buffered_events = r.report.stats.peak_buffered_events;
    if (r.report.days.size() != 1 ||
        core::day_report_to_json(r.report.days[0]) != baseline) {
      std::fprintf(stderr,
                   "bench_latency_rt: tick=%lld %s day-close report diverged "
                   "from batch run_day\n",
                   static_cast<long long>(tick),
                   incremental ? "incremental" : "rebuild");
      std::exit(1);
    }
    return r;
  };

  constexpr std::int64_t kTicks[] = {300, 3600, 86400};
  std::vector<ConfigResult> results;
  for (const std::int64_t tick : kTicks) {
    ConfigResult r;
    r.tick_seconds = tick;
    r.incremental = run_mode(tick, /*incremental=*/true);
    r.rebuild = run_mode(tick, /*incremental=*/false);

    // Both modes must tell the exact same detection story, tick by tick:
    // same provisional + finalized emissions, same order, every field.
    if (emission_fingerprint(r.incremental.report.emissions) !=
        emission_fingerprint(r.rebuild.report.emissions)) {
      std::fprintf(stderr,
                   "bench_latency_rt: tick=%lld incremental and rebuild "
                   "emission sequences diverged\n",
                   static_cast<long long>(tick));
      return 1;
    }
    // The seal-and-drop memory story: incremental releases raw events once
    // a bucket is evaluated, so its raw backlog peak must stay far below
    // the day's volume whenever the day spans many ticks (rebuild mode
    // holds the full window ∪ open day).
    if (tick < 86400 &&
        r.incremental.peak_buffered_events >= events.size() / 4) {
      std::fprintf(stderr,
                   "bench_latency_rt: tick=%lld incremental peak backlog %zu "
                   "too close to day volume %zu (seal-and-drop broken?)\n",
                   static_cast<long long>(tick),
                   r.incremental.peak_buffered_events, events.size());
      return 1;
    }
    // Regression floor only — the headline speedup is machine-dependent,
    // so the bench asserts "clearly faster", not the full ratio.
    r.speedup = r.incremental.run_seconds > 0
                    ? r.rebuild.run_seconds / r.incremental.run_seconds
                    : 0.0;
    if (tick == 300 && r.speedup < 1.5) {
      std::fprintf(stderr,
                   "bench_latency_rt: tick=300 incremental speedup %.2fx "
                   "below regression floor 1.5x\n",
                   r.speedup);
      return 1;
    }

    const rt::ContinuousReport& rep = r.incremental.report;
    r.ticks_closed = rep.stats.ticks_closed;
    r.evaluations = rep.stats.evaluations;
    r.provisional_emissions = rep.stats.provisional_emissions;
    r.finalized_emissions = rep.stats.finalized_emissions;
    r.latency = rt::summarize_latency(rep.emissions, /*provisional_only=*/true);
    r.events_per_second =
        r.incremental.run_seconds > 0
            ? static_cast<double>(events.size()) / r.incremental.run_seconds
            : 0;
    r.ticks_per_second =
        r.incremental.run_seconds > 0
            ? static_cast<double>(r.ticks_closed) / r.incremental.run_seconds
            : 0;
    results.push_back(std::move(r));
  }

  std::printf("\n%8s %6s %6s %10s %10s %9s %9s %8s %10s %10s %9s\n", "tick",
              "evals", "prov", "p50 lat", "p99 lat", "inc s", "rebuild s",
              "speedup", "tick p50", "tick p99", "peak buf");
  for (const ConfigResult& r : results) {
    std::printf(
        "%7llds %6zu %6zu %9.0fs %9.0fs %9.3f %9.3f %7.2fx %9.5fs %9.5fs %9zu\n",
        static_cast<long long>(r.tick_seconds), r.evaluations,
        r.provisional_emissions, r.latency.p50_seconds, r.latency.p99_seconds,
        r.incremental.run_seconds, r.rebuild.run_seconds, r.speedup,
        r.incremental.tick_p50_seconds, r.incremental.tick_p99_seconds,
        r.incremental.peak_buffered_events);
  }
  std::printf(
      "\nboth modes bit-identical to batch (day close) and to each other "
      "(emission sequences) at every tick size: ok\n");

  if (!json_path.empty()) {
    std::ostringstream body;
    body.precision(6);
    body << "{\n"
         << "    \"cpu_cores\": " << eid::bench::cpu_cores()
         << ",\n    \"day_events\": " << events.size()
         << ",\n    \"batch_seconds\": " << batch_seconds
         << ",\n    \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ConfigResult& r = results[i];
      body << "      {\"tick_seconds\": " << r.tick_seconds
           << ", \"ticks_closed\": " << r.ticks_closed
           << ", \"evaluations\": " << r.evaluations
           << ", \"provisional_emissions\": " << r.provisional_emissions
           << ", \"finalized_emissions\": " << r.finalized_emissions
           << ", \"latency_count\": " << r.latency.count
           << ", \"latency_p50_seconds\": " << r.latency.p50_seconds
           << ", \"latency_p99_seconds\": " << r.latency.p99_seconds
           << ", \"latency_max_seconds\": " << r.latency.max_seconds
           << ", \"run_seconds\": " << r.incremental.run_seconds
           << ", \"rebuild_run_seconds\": " << r.rebuild.run_seconds
           << ", \"rt_incremental_speedup\": " << r.speedup
           << ", \"tick_p50_seconds\": " << r.incremental.tick_p50_seconds
           << ", \"tick_p99_seconds\": " << r.incremental.tick_p99_seconds
           << ", \"rebuild_tick_p50_seconds\": " << r.rebuild.tick_p50_seconds
           << ", \"rebuild_tick_p99_seconds\": " << r.rebuild.tick_p99_seconds
           << ", \"rt_peak_buffered_events\": " << r.incremental.peak_buffered_events
           << ", \"rebuild_peak_buffered_events\": " << r.rebuild.peak_buffered_events
           << ", \"events_per_second\": " << r.events_per_second
           << ", \"ticks_per_second\": " << r.ticks_per_second
           << ", \"emissions_identical\": true"
           << ", \"batch_identical\": true}"
           << (i + 1 < results.size() ? ",\n" : "\n");
    }
    body << "    ]\n  }";
    if (eid::bench::write_json_section(json_path, "latency_rt", body.str())) {
      std::printf("recorded latency_rt section of %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }

  std::error_code ec;
  std::filesystem::remove(state_path, ec);
  return 0;
}
