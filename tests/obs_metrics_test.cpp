// Unit tests for the observability layer (src/obs): registry semantics,
// sharded-cell merge exactness under concurrency, histogram bucket edges,
// deterministic snapshot ordering, the disabled near-no-op path, the
// trace sink's Chrome trace-event JSON, the stage span, and the instrument
// contract: which histogram and span every source, pipeline stage and
// checkpoint path feeds. Runs under the TSan matrix — the concurrent cases are the
// data-race regression net for the sharded cells.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "api/sources.h"
#include "logs/files.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/delta.h"
#include "test_helpers.h"

namespace {

using namespace eid;

/// Fresh registry values per test: the process registry is shared, so
/// every test works on its own uniquely named metrics and the fixture
/// only guarantees collection is on.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::metrics().set_enabled(true); }
  void TearDown() override { obs::metrics().set_enabled(true); }
};

TEST_F(ObsMetricsTest, CounterAccumulatesAndFindsByName) {
  obs::Counter& counter = obs::metrics().counter("test_counter_basic_total");
  const std::uint64_t before = counter.value();
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), before + 42);
  // Same name -> same handle (find-or-register).
  EXPECT_EQ(&obs::metrics().counter("test_counter_basic_total"), &counter);
}

TEST_F(ObsMetricsTest, ConcurrentCounterIncrementsMergeExactly) {
  obs::Counter& counter = obs::metrics().counter("test_counter_mt_total");
  const std::uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  // Sharded cells lose nothing: the merged value is the exact sum.
  EXPECT_EQ(counter.value(),
            before + static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetricsTest, GaugeSetAndAdd) {
  obs::Gauge& gauge = obs::metrics().gauge("test_gauge_value");
  gauge.set(7.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
  gauge.add(-2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
}

TEST_F(ObsMetricsTest, HistogramBucketEdgesAreInclusive) {
  const double bounds[] = {0.1, 1.0, 10.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_histogram_edges", bounds);
  histogram.observe(0.1);   // exactly on an edge -> that bucket
  histogram.observe(0.05);  // below the first edge
  histogram.observe(1.0);   // exactly on the middle edge
  histogram.observe(5.0);
  histogram.observe(100.0);  // above every edge -> +Inf overflow

  const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
  const obs::HistogramSnapshot* found = nullptr;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "test_histogram_edges") found = &h;
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->bounds.size(), 3u);
  ASSERT_EQ(found->buckets.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(found->buckets[0], 2u);      // 0.05, 0.1
  EXPECT_EQ(found->buckets[1], 1u);      // 1.0
  EXPECT_EQ(found->buckets[2], 1u);      // 5.0
  EXPECT_EQ(found->buckets[3], 1u);      // 100.0
  EXPECT_EQ(found->count, 5u);
  EXPECT_NEAR(found->sum, 106.15, 1e-9);
}

TEST_F(ObsMetricsTest, ConcurrentHistogramObservationsAndSnapshots) {
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_histogram_mt", bounds);
  std::atomic<bool> stop{false};
  // Snapshot concurrently with observers: under TSan this is the race net
  // for the sharded cells and the registry mutex.
  std::thread snapshotter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
      (void)snapshot;
    }
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(0.5 + (i % 3));  // 0.5, 1.5, 2.5 — all 3 buckets
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetricsTest, DisabledMutationsAreDropped) {
  obs::Counter& counter = obs::metrics().counter("test_counter_off_total");
  obs::Gauge& gauge = obs::metrics().gauge("test_gauge_off");
  const double bounds[] = {1.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_histogram_off", bounds);
  gauge.set(3.0);
  const std::uint64_t counter_before = counter.value();
  const std::uint64_t histogram_before = histogram.count();

  obs::metrics().set_enabled(false);
  counter.add(100);
  gauge.set(99.0);
  histogram.observe(0.5);
  obs::metrics().set_enabled(true);

  EXPECT_EQ(counter.value(), counter_before);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  EXPECT_EQ(histogram.count(), histogram_before);
}

TEST_F(ObsMetricsTest, SnapshotIsSortedByName) {
  obs::metrics().counter("test_zz_order_total").add(1);
  obs::metrics().counter("test_aa_order_total").add(1);
  const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
  for (std::size_t i = 1; i < snapshot.gauges.size(); ++i) {
    EXPECT_LT(snapshot.gauges[i - 1].name, snapshot.gauges[i].name);
  }
  for (std::size_t i = 1; i < snapshot.histograms.size(); ++i) {
    EXPECT_LT(snapshot.histograms[i - 1].name, snapshot.histograms[i].name);
  }
}

TEST_F(ObsMetricsTest, PrometheusExpositionShape) {
  obs::metrics().counter("test_prom_counter_total").add(3);
  obs::metrics().gauge("test_prom_gauge").set(1.5);
  const double bounds[] = {0.5, 5.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_prom_histogram", bounds);
  histogram.observe(0.25);
  histogram.observe(2.0);
  histogram.observe(50.0);

  const std::string text = obs::to_prometheus(obs::metrics().snapshot());
  EXPECT_NE(text.find("# TYPE test_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_histogram histogram"),
            std::string::npos);
  // Cumulative buckets: le="0.5" covers 1, le="5" covers 2, +Inf all 3.
  EXPECT_NE(text.find("test_prom_histogram_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histogram_bucket{le=\"5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histogram_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histogram_count 3"), std::string::npos);
}

TEST_F(ObsMetricsTest, JsonRenderingIsWellFormed) {
  obs::metrics().counter("test_json_counter_total").add(2);
  const double bounds[] = {1.0};
  obs::metrics().histogram("test_json_histogram", bounds).observe(0.5);
  const std::string json = obs::to_json(obs::metrics().snapshot());
  EXPECT_TRUE(test::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"test_json_counter_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test_json_histogram\""), std::string::npos);
}

TEST_F(ObsMetricsTest, ResetValuesZeroesCells) {
  obs::Counter& counter = obs::metrics().counter("test_reset_total");
  counter.add(5);
  EXPECT_GT(counter.value(), 0u);
  obs::metrics().reset_values();
  EXPECT_EQ(counter.value(), 0u);
}

// ---- Trace sink ----

TEST(ObsTraceTest, SpansFromMultipleThreadsProduceValidChromeJson) {
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  {
    const obs::TraceSpan outer("outer_stage", "test");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 8; ++i) {
          const obs::TraceSpan span("worker_stage", "test");
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  obs::set_trace_sink(nullptr);

  EXPECT_EQ(sink.event_count(), 4u * 8u + 1u);
  EXPECT_EQ(sink.dropped_events(), 0u);
  const std::string json = sink.to_chrome_json();
  EXPECT_TRUE(eid::test::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer_stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsTraceTest, NoSinkMeansNoRecording) {
  obs::set_trace_sink(nullptr);
  { const obs::TraceSpan span("unrecorded", "test"); }
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  { const obs::TraceSpan span("recorded", "test"); }
  obs::set_trace_sink(nullptr);
  EXPECT_EQ(sink.event_count(), 1u);
}

TEST(ObsTraceTest, CapDropsExcessEventsAndCountsThem) {
  obs::TraceSink sink(/*max_events=*/2);
  obs::set_trace_sink(&sink);
  for (int i = 0; i < 5; ++i) {
    const obs::TraceSpan span("capped", "test");
  }
  obs::set_trace_sink(nullptr);
  EXPECT_EQ(sink.event_count(), 2u);
  EXPECT_EQ(sink.dropped_events(), 3u);
  EXPECT_TRUE(eid::test::json_well_formed(sink.to_chrome_json()));
  EXPECT_NE(sink.to_chrome_json().find("\"dropped_events\": 3"),
            std::string::npos);
}

TEST(ObsTraceTest, WriteChromeJsonRoundTrips) {
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  { const obs::TraceSpan span("persisted", "test"); }
  obs::set_trace_sink(nullptr);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "eid_obs_trace_test.json";
  ASSERT_TRUE(sink.write_chrome_json(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(eid::test::json_well_formed(buffer.str()));
  EXPECT_NE(buffer.str().find("persisted"), std::string::npos);
  std::filesystem::remove(path);
}

// ---- Stage span ----

TEST(ObsSpanTest, StopObservesOnceAndReturnsTheSpanSeconds) {
  obs::metrics().set_enabled(true);
  obs::Histogram& histogram = obs::metrics().histogram(
      "test_span_seconds", obs::duration_buckets());
  const std::uint64_t before = histogram.count();
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  double seconds = 0.0;
  {
    obs::TraceSpan span("timed_stage", histogram, "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    seconds = span.stop();
    EXPECT_EQ(span.stop(), seconds);  // idempotent; records nothing more
  }
  obs::set_trace_sink(nullptr);
  EXPECT_GE(seconds, 0.002);
  EXPECT_EQ(histogram.count(), before + 1);
  EXPECT_EQ(sink.event_count(), 1u);

  // Disabled metrics drop the observation, but the caller still gets the
  // seconds (the rt tick keeps them in its report either way).
  obs::metrics().set_enabled(false);
  {
    obs::TraceSpan span("timed_stage", histogram, "test");
    EXPECT_GE(span.stop(), 0.0);
  }
  obs::metrics().set_enabled(true);
  EXPECT_EQ(histogram.count(), before + 1);
}

// ---- Instrument contract ----
//
// Benches (perfbench, bench_throughput_day) and the /metrics exposition
// read per-layer costs from these histograms by name, and a missing name
// reads as zero there. Pin which histogram and span each stage and each
// checkpoint path feeds.

const obs::HistogramSnapshot* find_histogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(ObsInstrumentContractTest, StagesAndCheckpointPathsFeedTheirInstruments) {
  obs::metrics().set_enabled(true);
  test::MapWhois whois;
  test::DayBuilder builder;
  const util::Day day = 100;
  const util::TimePoint base = util::day_start(day);
  for (int h = 0; h < 12; ++h) {
    for (int d = 0; d < 6; ++d) {
      builder.visit("h" + std::to_string(h), "d" + std::to_string(d) + ".com",
                    base + 100 * h + 7 * d, {0}, "UA-a");
    }
  }
  builder.beacon("h1", "beacon.ru", base + 2000, 600, 40);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("eid-obs-contract-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "detector.state";

  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  {
    api::Detector detector(core::PipelineConfig{}, whois);
    api::VectorSource source(day, &builder.events());
    detector.run_day(source, day);
    storage::LoadStatus status;
    ASSERT_TRUE(detector.save_state(path, &status)) << status.detail;
    // The first delta save after a plain save compacts (a full save); the
    // second appends a frame.
    ASSERT_TRUE(detector.save_state_delta(path, {}, &status)) << status.detail;
    ASSERT_TRUE(detector.save_state_delta(path, {}, &status)) << status.detail;
    ASSERT_TRUE(std::filesystem::exists(storage::delta_chain_path(path)));
    api::Detector restored(core::PipelineConfig{}, whois);
    ASSERT_TRUE(restored.load_state(path, &status)) << status.detail;
  }
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  obs::set_trace_sink(nullptr);
  std::filesystem::remove_all(dir);

  const auto delta = [&](const std::string& name) -> std::uint64_t {
    const obs::HistogramSnapshot* now = find_histogram(after, name);
    EXPECT_NE(now, nullptr) << name << " is not registered";
    if (now == nullptr) return 0;
    const obs::HistogramSnapshot* then = find_histogram(before, name);
    return now->count - (then != nullptr ? then->count : 0);
  };
  EXPECT_EQ(delta("eid_pipeline_finalize_seconds"), 1u);
  EXPECT_EQ(delta("eid_pipeline_rare_seconds"), 1u);
  EXPECT_EQ(delta("eid_pipeline_automation_seconds"), 1u);
  EXPECT_EQ(delta("eid_pipeline_report_seconds"), 1u);
  EXPECT_EQ(delta("eid_pipeline_history_commit_seconds"), 1u);
  EXPECT_GE(delta("eid_ingest_seconds"), 1u);
  EXPECT_EQ(delta("eid_state_save_seconds"), 2u);
  EXPECT_EQ(delta("eid_state_delta_save_seconds"), 1u);
  EXPECT_EQ(delta("eid_state_load_seconds"), 1u);

  const std::string trace = sink.to_chrome_json();
  for (const char* span :
       {"ingest_chunk", "csr_finalize", "rare_extraction", "automation_scan",
        "report_day", "history_commit", "state_save", "state_delta_save",
        "state_load"}) {
    EXPECT_NE(trace.find("\"name\": \"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
}

TEST(ObsInstrumentContractTest, SourcesFeedTheParseHistogram) {
  obs::metrics().set_enabled(true);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("eid-obs-sources-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<logs::DnsRecord> records;
  for (int i = 0; i < 5; ++i) {
    logs::DnsRecord rec;
    rec.ts = 1000 + i;
    rec.src = "h" + std::to_string(i);
    rec.domain = "q" + std::to_string(i) + ".example.net";
    records.push_back(rec);
  }
  ASSERT_TRUE(logs::write_dns_file(dir / "dns.tsv", records));
  logs::PassiveDnsCache pdns;
  pdns.observe("alpha.example.com", util::Ipv4::from_octets(203, 0, 113, 1),
               100);
  std::vector<logs::FlowRecord> flows(3);
  for (logs::FlowRecord& flow : flows) {
    flow.ts = 200;
    flow.src = "h0";
    flow.dst_ip = util::Ipv4::from_octets(203, 0, 113, 1);
    flow.dst_port = 443;
  }

  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  std::size_t calls = 0;
  {
    // 5 records in chunks of 2: three chunks, then the end of the file.
    api::TsvFileSource tsv(dir / "dns.tsv", 7, logs::DnsReductionConfig{}, 2);
    while (tsv.next_chunk()) ++calls;
    ++calls;
    api::NetflowSource netflow(7, flows, pdns, {}, 2);
    while (netflow.next_chunk()) ++calls;
    ++calls;
  }
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  obs::set_trace_sink(nullptr);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(calls, 7u);

  const obs::HistogramSnapshot* now =
      find_histogram(after, "eid_source_parse_seconds");
  ASSERT_NE(now, nullptr) << "eid_source_parse_seconds is not registered";
  const obs::HistogramSnapshot* then =
      find_histogram(before, "eid_source_parse_seconds");
  EXPECT_EQ(now->count - (then != nullptr ? then->count : 0), calls);
  EXPECT_NE(sink.to_chrome_json().find("\"name\": \"source_parse\""),
            std::string::npos);
}

}  // namespace
