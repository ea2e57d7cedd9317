// Determinism guarantees: identical inputs and configuration must produce
// bit-identical detection output — the property that makes every bench and
// experiment in this repository reproducible.
#include <gtest/gtest.h>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/pipeline.h"
#include "core/report_json.h"
#include "eval/lanl_runner.h"
#include "obs/metrics.h"
#include "sim/ac.h"
#include "test_helpers.h"

namespace eid {
namespace {

std::vector<logs::ConnEvent> synthetic_day(util::Day day) {
  test::DayBuilder builder;
  const util::TimePoint base = util::day_start(day);
  util::Rng rng(17);
  for (int h = 0; h < 20; ++h) {
    for (int d = 0; d < 10; ++d) {
      if (rng.chance(0.4)) {
        builder.visit("h" + std::to_string(h), "d" + std::to_string(d) + ".com",
                      base + static_cast<util::TimePoint>(rng.uniform(80000)),
                      util::Ipv4{static_cast<std::uint32_t>(rng.next_u64())},
                      rng.chance(0.5) ? "UA-a" : "UA-b", rng.chance(0.6));
      }
    }
  }
  builder.beacon("h1", "beacon.ru", base + 2000, 600, 40,
                 util::Ipv4::from_octets(198, 51, 100, 9), "");
  return builder.events();
}

TEST(DeterminismTest, PipelineDayReportIsBitStable) {
  test::MapWhois whois;
  whois.add("beacon.ru", 95, 400);
  const auto events = synthetic_day(100);

  const auto run = [&] {
    core::Pipeline pipeline(core::PipelineConfig{}, whois);
    pipeline.profile_day(synthetic_day(99));
    return core::day_report_to_json(
        pipeline.run_day(events, 100, core::SocSeeds{}));
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, ParallelismDoesNotChangeReports) {
  // The parallel engine contract: analysis_threads and ingest shard count
  // are pure performance knobs — bit-identical DayReports for any values.
  test::MapWhois whois;
  whois.add("beacon.ru", 95, 400);
  const auto events = synthetic_day(100);
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u}) {
      core::PipelineConfig config;
      config.parallelism = core::Parallelism{threads, shards};
      core::Pipeline pipeline(config, whois);
      pipeline.profile_day(synthetic_day(99));
      const std::string json = core::day_report_to_json(
          pipeline.run_day(events, 100, core::SocSeeds{}));
      if (baseline.empty()) {
        baseline = json;
      } else {
        EXPECT_EQ(json, baseline)
            << threads << " threads, " << shards << " shards";
      }
    }
  }
}

TEST(DeterminismTest, DayPipelinedMultiDayRunsAreBitIdentical) {
  // The full parallelism surface — worker threads, ingest shards and the
  // multi-day pipeline depth — is pure performance: every DayReport of a
  // multi-day run must be bit-identical across all of it.
  test::MapWhois whois;
  whois.add("beacon.ru", 95, 400);
  std::vector<std::vector<logs::ConnEvent>> days;
  for (util::Day day = 100; day < 104; ++day) {
    days.push_back(synthetic_day(day));
  }

  std::string baseline;
  for (const std::size_t depth : {1u, 2u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      for (const std::size_t shards : {1u, 4u}) {
        core::PipelineConfig config;
        config.parallelism = core::Parallelism{threads, shards, depth};
        api::Detector detector(config, whois);
        auto profile = synthetic_day(99);
        api::VectorSource bootstrap(99, &profile);
        detector.ingest(bootstrap);
        api::MultiDaySource source(100, &days);
        const std::vector<core::DayReport> reports = detector.run_days(source);
        ASSERT_EQ(reports.size(), days.size());
        std::string all;
        for (const core::DayReport& report : reports) {
          all += core::day_report_to_json(report);
        }
        if (baseline.empty()) {
          baseline = all;
        } else {
          EXPECT_EQ(all, baseline) << threads << " threads, " << shards
                                   << " shards, depth " << depth;
        }
      }
    }
  }
}

TEST(DeterminismTest, ObservabilityDoesNotPerturbReports) {
  // Metrics + tracing are a pure side channel: the multi-day parallelism
  // sweep must stay bit-identical with both fully on versus fully off,
  // and the collected trace must be well-formed Chrome trace-event JSON.
  test::MapWhois whois;
  whois.add("beacon.ru", 95, 400);
  std::vector<std::vector<logs::ConnEvent>> days;
  for (util::Day day = 100; day < 103; ++day) {
    days.push_back(synthetic_day(day));
  }

  const auto run = [&](std::size_t threads, std::size_t shards,
                       std::size_t depth) {
    core::PipelineConfig config;
    config.parallelism = core::Parallelism{threads, shards, depth};
    api::Detector detector(config, whois);
    auto profile = synthetic_day(99);
    api::VectorSource bootstrap(99, &profile);
    detector.ingest(bootstrap);
    api::MultiDaySource source(100, &days);
    std::string all;
    for (const core::DayReport& report : detector.run_days(source)) {
      all += core::day_report_to_json(report);
    }
    return all;
  };

  std::string baseline_off;
  std::string baseline_on;
  for (const std::size_t depth : {1u, 2u}) {
    for (const std::size_t threads : {1u, 8u}) {
      obs::metrics().set_enabled(false);
      const std::string off = run(threads, 4, depth);

      obs::TraceSink sink;
      api::Detector::set_trace_sink(&sink);
      obs::metrics().set_enabled(true);
      const std::string on = run(threads, 4, depth);
      api::Detector::set_trace_sink(nullptr);

      EXPECT_EQ(on, off) << threads << " threads, depth " << depth;
      if (baseline_off.empty()) baseline_off = off;
      if (baseline_on.empty()) baseline_on = on;
      EXPECT_EQ(off, baseline_off) << threads << " threads, depth " << depth;
      EXPECT_EQ(on, baseline_on) << threads << " threads, depth " << depth;

      EXPECT_GT(sink.event_count(), 0u) << "stages must record spans";
      EXPECT_TRUE(test::json_well_formed(sink.to_chrome_json()));
    }
  }
  obs::metrics().set_enabled(true);
}

TEST(DeterminismTest, SteadyStateSpawnsNoThreads) {
  // The persistent-executor contract: after the pool is built, multi-day
  // operation constructs zero further threads — every fan-out and day
  // commit rides the same workers.
  test::MapWhois whois;
  whois.add("beacon.ru", 95, 400);
  std::vector<std::vector<logs::ConnEvent>> warmup_days{synthetic_day(100)};
  std::vector<std::vector<logs::ConnEvent>> more_days;
  for (util::Day day = 101; day < 105; ++day) {
    more_days.push_back(synthetic_day(day));
  }

  core::PipelineConfig config;
  config.parallelism = core::Parallelism{8, 4, 2};
  api::Detector detector(config, whois);
  api::MultiDaySource warmup(100, &warmup_days);
  detector.run_days(warmup);

  obs::metrics().set_enabled(true);
  const obs::Counter& spawns =
      obs::metrics().counter("eid_executor_threads_spawned_total");
  const std::uint64_t spawned = spawns.value();
  api::MultiDaySource source(101, &more_days);
  const auto reports = detector.run_days(source);
  EXPECT_EQ(reports.size(), more_days.size());
  EXPECT_EQ(spawns.value(), spawned)
      << "steady-state days must not construct threads";
}

TEST(DeterminismTest, AcScenarioReducedDaysAreStable) {
  sim::AcConfig config;
  config.n_hosts = 50;
  config.n_popular = 25;
  config.tail_per_day = 8;
  config.automated_tail_per_day = 1;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 2.0;

  sim::AcScenario first(config);
  sim::AcScenario second(config);
  for (int offset = 0; offset < 3; ++offset) {
    const util::Day day = first.training_begin() + offset;
    const auto a = first.simulator().reduced_day(day);
    const auto b = second.simulator().reduced_day(day);
    ASSERT_EQ(a.size(), b.size()) << offset;
    for (std::size_t i = 0; i < a.size(); i += 101) {
      EXPECT_EQ(a[i].ts, b[i].ts);
      EXPECT_EQ(a[i].host, b[i].host);
      EXPECT_EQ(a[i].domain, b[i].domain);
      EXPECT_EQ(a[i].user_agent, b[i].user_agent);
    }
  }
}

TEST(DeterminismTest, LanlCaseResultIsStable) {
  sim::LanlConfig config;
  config.n_hosts = 100;
  config.n_servers = 3;
  config.n_popular = 50;
  config.tail_per_day = 20;
  config.automated_tail_per_day = 2;
  config.server_tail_per_day = 10;

  const auto run = [&config] {
    sim::LanlScenario scenario(config);
    eval::LanlRunner runner(scenario);
    runner.bootstrap();
    const auto& challenge = scenario.cases().front();
    for (util::Day day = scenario.challenge_begin(); day < challenge.day; ++day) {
      runner.finish_day(day);
    }
    const core::DayAnalysis analysis = runner.analyze_day(challenge.day);
    return runner.run_case(challenge, analysis).detected_domains;
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentWorlds) {
  sim::AcConfig a_config;
  a_config.n_hosts = 40;
  a_config.n_popular = 20;
  a_config.tail_per_day = 5;
  sim::AcConfig b_config = a_config;
  b_config.seed = a_config.seed + 1;
  sim::AcScenario a(a_config);
  sim::AcScenario b(b_config);
  const auto ea = a.simulator().reduced_day(a.training_begin());
  const auto eb = b.simulator().reduced_day(b.training_begin());
  // Same structure, different content.
  std::size_t diff = 0;
  for (std::size_t i = 0; i < std::min(ea.size(), eb.size()); ++i) {
    if (ea[i].domain != eb[i].domain) ++diff;
  }
  EXPECT_GT(diff, std::min(ea.size(), eb.size()) / 4);
}

}  // namespace
}  // namespace eid
