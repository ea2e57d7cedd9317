// Throughput benchmarks (google-benchmark) for the stages that must keep
// up with terabyte-scale daily log volume (§II-C): domain folding, DNS and
// proxy reduction, a proxy day drained from its TSV file, graph
// construction, periodicity testing, rare extraction, belief propagation,
// and the streaming api::Detector facade (chunk-size sweep: throughput
// must be flat in the chunking).
//
// Pass --json[=path] to also record the results as the "micro" section of
// BENCH_perf.json at the repo root, so perf is tracked across PRs
// (bench_throughput_day writes the "throughput" section of the same file).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <vector>

#include "api/detector.h"
#include "bench_common.h"
#include "api/sources.h"
#include "core/belief_propagation.h"
#include "core/scorers.h"
#include "eval/lanl_runner.h"
#include "logs/files.h"
#include "logs/folding.h"
#include "logs/reduction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/enterprise.h"
#include "timing/periodicity.h"
#include "util/executor.h"

namespace {

using namespace eid;

sim::SimConfig bench_config(sim::Flavor flavor) {
  sim::SimConfig config;
  config.flavor = flavor;
  config.seed = 21;
  config.day0 = util::make_day(2014, 1, 1);
  config.n_hosts = 400;
  config.n_popular = 200;
  config.tail_per_day = 120;
  config.automated_tail_per_day = 6;
  config.grayware_per_day = 2;
  return config;
}

void BM_FoldDomain(benchmark::State& state) {
  const std::vector<std::string> names = {
      "news.nbc.com", "deep.sub.example.org", "a.b.c.d.e.wide.net",
      "www.bbc.co.uk", "short.io"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::fold_domain(names[i % names.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FoldDomain);

void BM_DnsReduction(benchmark::State& state) {
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Dns), {});
  const sim::DayLogs logs = sim.simulate_day(util::make_day(2014, 1, 2));
  const logs::DnsReductionConfig config = sim.dns_reduction_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::reduce_dns(logs.dns, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.dns.size()));
}
BENCHMARK(BM_DnsReduction);

void BM_ProxyReduction(benchmark::State& state) {
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const sim::DayLogs logs = sim.simulate_day(day);
  const logs::ProxyReductionConfig config = sim.proxy_reduction_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        logs::reduce_proxy(logs.proxy, sim.dhcp(), config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.proxy.size()));
}
BENCHMARK(BM_ProxyReduction);

void BM_TsvProxyDaySource(benchmark::State& state) {
  // One simulated proxy day as a TSV file on disk, drained end to end by
  // the file source: block reads, line split, parse, reduce, chunk order.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const sim::DayLogs logs = sim.simulate_day(util::make_day(2014, 1, 2));
  const logs::ProxyReductionConfig config = sim.proxy_reduction_config();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("eid-bench-proxy-day-" + std::to_string(::getpid()) + ".tsv");
  if (!logs::write_proxy_file(path, logs.proxy)) {
    state.SkipWithError("cannot write the proxy day");
    return;
  }
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    api::TsvFileSource source(path, util::make_day(2014, 1, 2), sim.dhcp(),
                              config);
    std::size_t events = 0;
    while (const auto chunk = source.next_chunk()) {
      events += chunk->events.size();
    }
    benchmark::DoNotOptimize(events);
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.proxy.size()));
}
BENCHMARK(BM_TsvProxyDaySource);

void BM_DayGraphBuild(benchmark::State& state) {
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const auto events = sim.reduced_day(util::make_day(2014, 1, 2));
  for (auto _ : state) {
    graph::DayGraph graph;
    for (const auto& event : events) graph.add_event(event);
    graph.finalize();
    benchmark::DoNotOptimize(graph.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DayGraphBuild);

void BM_PeriodicityTest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<util::TimePoint> times;
  util::Rng rng(3);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    times.push_back(static_cast<util::TimePoint>(t));
    t += 600.0 + rng.normal(0.0, 3.0);
  }
  const timing::PeriodicityDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.test(times));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PeriodicityTest)->Arg(16)->Arg(144)->Arg(1024);

void BM_LanlDayAnalysis(benchmark::State& state) {
  sim::LanlConfig config;
  config.n_hosts = 300;
  config.n_popular = 150;
  config.tail_per_day = 80;
  config.automated_tail_per_day = 4;
  config.server_tail_per_day = 40;
  sim::LanlScenario scenario(config);
  eval::LanlRunner runner(scenario);
  runner.bootstrap();
  const auto events =
      scenario.simulator().reduced_day(scenario.challenge_begin());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner.analyze_events(events, scenario.challenge_begin()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_LanlDayAnalysis);

void BM_DetectorAnalyzeStream(benchmark::State& state) {
  // One operation day folded into the analysis chunk by chunk through the
  // streaming facade. arg = events per chunk; the sweep shows the chunked
  // path costs the same as one big batch.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const auto events = sim.reduced_day(day);
  api::Detector detector(core::PipelineConfig{}, sim.whois());
  const auto chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    api::VectorSource source(day, &events, chunk);
    benchmark::DoNotOptimize(detector.analyze_stream(source, day));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DetectorAnalyzeStream)->Arg(256)->Arg(4096)->Arg(1 << 20);

void BM_DetectorIngestProfile(benchmark::State& state) {
  // Streaming profiling (bootstrap-month ingestion): O(distinct) memory,
  // so the per-event cost is the floor for multi-terabyte ingest.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const auto events = sim.reduced_day(day);
  api::Detector detector(core::PipelineConfig{}, sim.whois());
  for (auto _ : state) {
    api::VectorSource source(day, &events);
    benchmark::DoNotOptimize(detector.ingest(source).events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DetectorIngestProfile);

void BM_ExecutorDispatch(benchmark::State& state) {
  // One 8-range fan-out over the persistent pool — the steady-state cost
  // every per-day stage pays.
  util::Executor executor(7);
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    executor.parallel_ranges(8, 8,
                             [&](std::size_t, std::size_t begin, std::size_t) {
                               sink.fetch_add(begin,
                                              std::memory_order_relaxed);
                             });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ExecutorDispatch);

void BM_MetricsCounter(benchmark::State& state) {
  // The raw cost of one enabled counter increment: a thread-shard lookup
  // plus one uncontended relaxed fetch_add.
  obs::metrics().set_enabled(true);
  obs::Counter& counter = obs::metrics().counter("bench_scratch_total");
  for (auto _ : state) {
    counter.add(1);
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounter);

void BM_MetricsCounterDisabled(benchmark::State& state) {
  // The disabled path every probe pays when observability is off: one
  // relaxed atomic load and a branch. This is the "near-no-op" the obs
  // layer promises.
  obs::metrics().set_enabled(false);
  obs::Counter& counter = obs::metrics().counter("bench_scratch_total");
  for (auto _ : state) {
    counter.add(1);
  }
  obs::metrics().set_enabled(true);
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterDisabled);

void BM_DayAnalysisObsOverhead(benchmark::State& state) {
  // Whole-day analysis with the metrics registry on vs off, one run of
  // each per iteration with alternating order, so machine drift lands on
  // both sides of a pair, not in the ratio. The counters (median and
  // quartiles of the on/off ratios) back metrics_overhead_ratio (< 1% is
  // the obs-layer budget at day granularity).
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const auto events = sim.reduced_day(day);
  api::Detector detector(core::PipelineConfig{}, sim.whois());
  const auto timed_run = [&](bool metrics_enabled) {
    obs::metrics().set_enabled(metrics_enabled);
    const auto start = obs::Clock::now();
    api::VectorSource source(day, &events, 4096);
    benchmark::DoNotOptimize(detector.analyze_stream(source, day));
    return obs::seconds_since(start);
  };
  std::vector<double> ratios;
  for (auto _ : state) {
    const bool on_first = ratios.size() % 2 == 0;
    const double first = timed_run(on_first);
    const double second = timed_run(!on_first);
    ratios.push_back(on_first ? first / second : second / first);
  }
  obs::metrics().set_enabled(true);
  std::sort(ratios.begin(), ratios.end());
  const auto quantile = [&ratios](double q) {
    return ratios[static_cast<std::size_t>(q * (ratios.size() - 1) + 0.5)];
  };
  state.counters["ratio_q1"] = quantile(0.25);
  state.counters["ratio_median"] = quantile(0.5);
  state.counters["ratio_q3"] = quantile(0.75);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DayAnalysisObsOverhead)->Iterations(21);

void BM_BeliefPropagation(benchmark::State& state) {
  // A synthetic frontier: one seed host fanning out to chains of domains.
  graph::DayGraph graph;
  const int chains = static_cast<int>(state.range(0));
  for (int c = 0; c < chains; ++c) {
    for (int depth = 0; depth < 6; ++depth) {
      logs::ConnEvent ev;
      ev.ts = c * 1000 + depth;
      ev.host = "h" + std::to_string(c * 6 + depth);
      ev.domain = "d" + std::to_string(c * 6 + depth) + ".com";
      graph.add_event(ev);
      logs::ConnEvent link = ev;
      link.domain = "d" + std::to_string(c * 6 + depth + 1) + ".com";
      graph.add_event(link);
    }
  }
  graph.finalize();
  std::unordered_set<graph::DomainId> rare;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) rare.insert(d);

  class FixedScorer final : public core::DomainScorer {
   public:
    bool detect_cc(graph::DomainId) const override { return false; }
    double similarity_score(graph::DomainId,
                            std::span<const graph::DomainId>) const override {
      return 0.9;
    }
  } scorer;

  std::vector<graph::HostId> seeds = {graph.find_host("h0")};
  core::BpConfig config;
  config.max_iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::belief_propagation(graph, rare, seeds, {}, scorer, config));
  }
}
BENCHMARK(BM_BeliefPropagation)->Arg(4)->Arg(32);

/// Console output as usual, plus an in-memory copy of every finished run
/// for the machine-readable BENCH_perf.json record.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_time_ns = 0.0;      ///< adjusted real time per iteration
    benchmark::UserCounters counters;  ///< items_per_second, ratio_*, ...
  };

  // google-benchmark < 1.8 exposes Run::error_occurred; 1.8+ replaced it
  // with the Skipped enum. Detect whichever member this libbenchmark has.
  template <typename R>
  static bool run_failed(const R& run) {
    if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;
    } else if constexpr (requires { run.skipped; }) {
      return static_cast<int>(run.skipped) != 0;  // 0 == NotSkipped
    } else {
      return false;
    }
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run_failed(run)) continue;
      // One row per benchmark: drop _mean/_median aggregates and repeat
      // repetitions so cross-PR diffs stay unambiguous.
      if (run.run_type != Run::RT_Iteration) continue;
      if constexpr (requires { run.repetition_index; }) {
        if (run.repetition_index > 0) continue;
      }
      Entry entry;
      entry.name = run.benchmark_name();
      entry.real_time_ns = run.GetAdjustedRealTime();
      entry.counters = run.counters;
      entries.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Entry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");
  // A filtered run covers only a subset of benchmarks; writing it would
  // replace the whole tracked micro section and wipe the other
  // benchmarks' history, so --json only records full runs.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (json_path.empty()) return 0;
  if (filtered || reporter.entries.empty()) {
    std::fprintf(stderr,
                 "not writing %s: %s would clobber the full micro section — "
                 "rerun without --benchmark_filter to record\n",
                 json_path.c_str(),
                 reporter.entries.empty() ? "an empty run" : "a filtered run");
    return 0;
  }

  // Metrics overhead at day granularity: the median of the interleaved
  // enabled/disabled pairs must stay within the obs layer's <1% budget.
  double ratio_q1 = 0.0;
  double ratio_median = 0.0;
  double ratio_q3 = 0.0;
  for (const auto& entry : reporter.entries) {
    if (entry.name.rfind("BM_DayAnalysisObsOverhead", 0) != 0) continue;
    ratio_q1 = entry.counters.at("ratio_q1");
    ratio_median = entry.counters.at("ratio_median");
    ratio_q3 = entry.counters.at("ratio_q3");
  }
  if (ratio_median > 1.01) {
    std::fprintf(stderr,
                 "warning: metrics-enabled day analysis is %.2f%% slower than "
                 "disabled (median of interleaved pairs, quartiles %.3f-%.3f; "
                 "budget: 1%%)\n",
                 (ratio_median - 1.0) * 100.0, ratio_q1, ratio_q3);
  }

  std::ostringstream body;
  // Full double resolution: the file exists to catch sub-percent drift
  // across PRs, which 6-digit default formatting would round away.
  body << std::setprecision(17);
  body << "{\n    \"cpu_cores\": " << eid::bench::cpu_cores()
       << ",\n    \"metrics_overhead_ratio\": " << ratio_median
       << ",\n    \"metrics_overhead_ratio_q1\": " << ratio_q1
       << ",\n    \"metrics_overhead_ratio_q3\": " << ratio_q3
       << ",\n    \"benchmarks\": [";
  for (std::size_t i = 0; i < reporter.entries.size(); ++i) {
    const auto& entry = reporter.entries[i];
    const auto items = entry.counters.find("items_per_second");
    const auto bytes = entry.counters.find("bytes_per_second");
    body << (i == 0 ? "\n" : ",\n");
    body << "      {\"name\": \"" << entry.name << "\", \"real_time_ns\": "
         << entry.real_time_ns << ", \"items_per_second\": "
         << (items != entry.counters.end() ? double(items->second) : 0.0);
    if (bytes != entry.counters.end()) {
      body << ", \"bytes_per_second\": " << double(bytes->second);
    }
    body << "}";
  }
  body << "\n    ]\n  }";
  if (!eid::bench::write_json_section(json_path, "micro", body.str())) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote micro section -> %s\n", json_path.c_str());
  return 0;
}
