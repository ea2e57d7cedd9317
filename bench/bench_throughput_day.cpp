// Multi-day throughput benchmark for the persistent-executor day-analysis
// engine: replays a simulated enterprise proxy workload through
// api::Detector::analyze_days — the pipelined multi-day path every
// deployment verb rides — at a sweep of (analysis threads, ingest shards,
// pipeline depth) configurations, and reports events/sec with a per-stage
// breakdown. Results are bit-identical across configurations (the
// determinism tests enforce it; this bench byte-compares the reports
// again), so the sweep measures pure performance.
//
//   bench_throughput_day [--days N] [--configs t[:s[:d]],...] [--repeat N]
//                        [--json[=path]]
//
// --repeat runs each configuration N times and reports the median run (by
// wall time) — the recommended mode on noisy shared hardware. --json
// records the "throughput" section of BENCH_perf.json at the repo root
// (bench_perf_pipeline writes the "micro" section of the same file),
// including the day-analysis speedup of the last config vs the first —
// the cross-PR perf trajectory. Defaults: 3 days, one repeat, configs
// 1:1,2:2,4:4,8:8,8:8:2 (the trailing config adds depth-2 day
// pipelining: day N's finalize/score/commit overlaps day N+1's ingest).
//
// Every stage — ingest (DayGraph::add_events), finalize, rare, automation,
// score+BP (report_day) and the history commit — is measured directly: its
// seconds are the run's delta of the library's own eid_*_seconds
// histograms, the instruments the production /metrics exposition reads.
// analysis_seconds is wall time minus score+BP — the day-analysis engine's
// share of the run, comparable across depths (with depth > 1 the stage
// sums exceed wall because they overlap; wall is what an operator waits
// for).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "core/report_json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/enterprise.h"

namespace {

using namespace eid;

struct ConfigResult {
  core::Parallelism parallelism;
  double wall = 0.0;  ///< the full analyze_days run
  // Stage seconds summed over the run's days (histogram deltas).
  double ingest = 0.0;    ///< DayGraph::add_events
  double finalize = 0.0;  ///< CSR finalize
  double rare = 0.0;
  double automation = 0.0;
  double score_bp = 0.0;  ///< report_day (thresholds + both BP modes)
  double history_commit = 0.0;
  std::size_t events = 0;
  std::size_t detections = 0;   ///< headline count for the console line
  std::string report_digest;    ///< all DayReport JSON, concatenated —
                                ///< must be byte-identical across configs

  /// Day-analysis share of the run: everything but score+BP.
  double analysis() const { return std::max(0.0, wall - score_bp); }
};

const obs::HistogramSnapshot* find_histogram(
    const obs::MetricsSnapshot& snapshot, const char* name) {
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Seconds a stage histogram accumulated between two snapshots. Stages
/// register their histogram on first use, so `before` may lack it; the run
/// must not.
double histogram_delta(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after, const char* name) {
  const obs::HistogramSnapshot* end = find_histogram(after, name);
  if (end == nullptr) {
    std::fprintf(stderr, "FATAL: no histogram %s\n", name);
    std::exit(1);
  }
  const obs::HistogramSnapshot* start = find_histogram(before, name);
  return end->sum - (start != nullptr ? start->sum : 0.0);
}

sim::SimConfig workload_config() {
  // Analysis-heavy enterprise day: a large browse tail (rare-destination
  // extraction) and many periodic services (long per-edge time series for
  // the automation scan) — the stages the thread knob parallelizes.
  sim::SimConfig config;
  config.flavor = sim::Flavor::Proxy;
  config.seed = 29;
  config.day0 = util::make_day(2014, 1, 1);
  config.n_hosts = 800;
  config.n_popular = 400;
  config.tail_per_day = 500;
  config.automated_tail_per_day = 80;
  config.grayware_per_day = 8;
  return config;
}

ConfigResult run_config(const core::Parallelism& parallelism,
                        const features::WhoisSource& whois,
                        const std::vector<logs::ConnEvent>& profile_events,
                        const std::vector<std::vector<logs::ConnEvent>>& days,
                        util::Day day0) {
  core::PipelineConfig config;
  config.parallelism = parallelism;
  api::Detector detector(config, whois);
  api::VectorSource profile(day0, &profile_events);
  detector.ingest(profile);

  ConfigResult result;
  result.parallelism = parallelism;
  core::Pipeline& pipeline = detector.pipeline();
  api::MultiDaySource source(day0 + 1, &days);
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  const auto start = obs::Clock::now();
  const api::IngestReport ingest = detector.analyze_days(
      source, [&](util::Day, const core::DayAnalysis& analysis) {
        const core::DayReport report = pipeline.report_day(analysis, {});
        result.detections +=
            report.automated_scores.size() + report.nohint.domains.size();
        result.report_digest += core::day_report_to_json(report);
      });
  result.wall = obs::seconds_since(start);
  result.events = ingest.events;
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  result.ingest = histogram_delta(before, after, "eid_ingest_seconds");
  result.finalize =
      histogram_delta(before, after, "eid_pipeline_finalize_seconds");
  result.rare = histogram_delta(before, after, "eid_pipeline_rare_seconds");
  result.automation =
      histogram_delta(before, after, "eid_pipeline_automation_seconds");
  result.score_bp = histogram_delta(before, after, "eid_pipeline_report_seconds");
  result.history_commit =
      histogram_delta(before, after, "eid_pipeline_history_commit_seconds");
  return result;
}

/// t[:s[:d]] — shards default to the thread count, depth to 1.
std::vector<core::Parallelism> parse_configs(const std::string& spec) {
  std::vector<core::Parallelism> configs;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::stringstream fields(item);
    std::string field;
    std::vector<std::size_t> values;
    while (std::getline(fields, field, ':')) {
      values.push_back(static_cast<std::size_t>(std::atoi(field.c_str())));
    }
    if (values.empty()) continue;
    core::Parallelism p;
    p.threads = std::max<std::size_t>(values[0], 1);
    p.shards = values.size() > 1 ? std::max<std::size_t>(values[1], 1)
                                 : p.threads;
    p.pipeline_depth =
        values.size() > 2 ? std::max<std::size_t>(values[2], 1) : 1;
    configs.push_back(p);
  }
  return configs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");
  std::size_t n_days = 3;
  std::size_t repeats = 1;
  std::string config_spec = "1:1,2:2,4:4,8:8,8:8:2";
  bool non_default_run = false;  // --json only records the default sweep
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      const int days = std::atoi(argv[++i]);
      n_days = days > 0 ? static_cast<std::size_t>(days) : 1;
      non_default_run = true;
    } else if (std::strcmp(argv[i], "--configs") == 0 && i + 1 < argc) {
      config_spec = argv[++i];
      non_default_run = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      // Median-of-N is noise reduction, not a workload change — still
      // recordable with --json.
      const int n = std::atoi(argv[++i]);
      repeats = n > 0 ? static_cast<std::size_t>(n) : 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--days N] [--configs t[:s[:d]],...] "
                   "[--repeat N] [--json[=path]]\n",
                   argv[0]);
      return 1;
    }
  }
  if (n_days == 0) n_days = 1;
  const std::vector<eid::core::Parallelism> configs = parse_configs(config_spec);
  if (configs.empty()) {
    std::fprintf(stderr, "no valid --configs\n");
    return 1;
  }

  eid::bench::print_header("BENCH_throughput",
                           "persistent-executor day-analysis engine");
  const sim::SimConfig world = workload_config();
  sim::EnterpriseSimulator simulator(world, {});
  const std::vector<logs::ConnEvent> profile_events =
      simulator.reduced_day(world.day0);
  std::vector<std::vector<logs::ConnEvent>> days;
  std::size_t total_events = 0;
  for (std::size_t d = 0; d < n_days; ++d) {
    days.push_back(
        simulator.reduced_day(world.day0 + 1 + static_cast<util::Day>(d)));
    total_events += days.back().size();
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("workload: %zu hosts, %zu day(s), %zu events, %zu repeat(s)  "
              "(%u cpu core(s) — speedup is bounded by this)\n",
              static_cast<std::size_t>(world.n_hosts), n_days, total_events,
              repeats, cores);

  std::vector<ConfigResult> results;
  std::string digest;
  for (const auto& parallelism : configs) {
    std::vector<ConfigResult> runs;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      runs.push_back(run_config(parallelism, simulator.whois(), profile_events,
                                days, world.day0));
      // Byte-compare the serialized reports, not just counts: a bug that
      // swaps WHICH domains are detected must fail here too — across
      // configs, depths and repeats alike.
      if (digest.empty()) digest = runs.back().report_digest;
      if (runs.back().report_digest != digest) {
        std::fprintf(stderr,
                     "FATAL: DayReports differ across configs (determinism "
                     "violation)\n");
        return 1;
      }
    }
    std::sort(runs.begin(), runs.end(),
              [](const ConfigResult& a, const ConfigResult& b) {
                return a.wall < b.wall;
              });
    results.push_back(std::move(runs[runs.size() / 2]));  // median by wall
    const ConfigResult& r = results.back();
    std::printf(
        "threads=%zu shards=%zu depth=%zu  %10.0f events/s  wall=%.3fs "
        "analysis=%.3fs (ingest=%.3f finalize=%.3f rare=%.3f "
        "automation=%.3f commit=%.3f) score+bp=%.3fs  detections=%zu\n",
        r.parallelism.threads, r.parallelism.shards,
        r.parallelism.pipeline_depth,
        static_cast<double>(r.events) / r.wall, r.wall, r.analysis(),
        r.ingest, r.finalize, r.rare, r.automation, r.history_commit,
        r.score_bp, r.detections);
  }
  const double speedup = results.back().analysis() > 0.0
                             ? results.front().analysis() /
                                   results.back().analysis()
                             : 0.0;
  std::printf(
      "day-analysis speedup (threads=%zu depth=%zu vs threads=%zu "
      "depth=%zu): %.2fx\n",
      results.back().parallelism.threads,
      results.back().parallelism.pipeline_depth,
      results.front().parallelism.threads,
      results.front().parallelism.pipeline_depth, speedup);

  if (json_path.empty()) return 0;
  if (non_default_run) {
    // Same rule as bench_perf_pipeline's filter guard: the tracked file
    // compares across PRs, so only the canonical workload/sweep is
    // recorded — a smoke run must not overwrite the trajectory.
    std::fprintf(stderr,
                 "not writing %s: non-default --days/--configs would make the "
                 "recorded trajectory incomparable — rerun without them\n",
                 json_path.c_str());
    return 0;
  }
  std::ostringstream body;
  body << std::setprecision(17);  // keep sub-percent drift visible across PRs
  body << "{\n    \"workload\": {\"hosts\": " << world.n_hosts
       << ", \"days\": " << n_days << ", \"events\": " << total_events
       << ", \"cpu_cores\": " << cores << ", \"repeats\": " << repeats
       << "},\n    \"configs\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    body << (i == 0 ? "\n" : ",\n");
    body << "      {\"threads\": " << r.parallelism.threads
         << ", \"shards\": " << r.parallelism.shards
         << ", \"pipeline_depth\": " << r.parallelism.pipeline_depth
         << ", \"events_per_second\": "
         << static_cast<double>(r.events) / r.wall
         << ", \"wall_seconds\": " << r.wall
         << ", \"analysis_seconds\": " << r.analysis()
         << ", \"stages\": {\"ingest\": " << r.ingest
         << ", \"finalize\": " << r.finalize << ", \"rare\": " << r.rare
         << ", \"automation\": " << r.automation
         << ", \"score_bp\": " << r.score_bp
         << ", \"history_commit\": " << r.history_commit << "}}";
  }
  body << "\n    ],\n    \"analysis_speedup_last_vs_first\": " << speedup
       << "\n  }";
  if (!eid::bench::write_json_section(json_path, "throughput", body.str())) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote throughput section -> %s\n", json_path.c_str());
  return 0;
}
