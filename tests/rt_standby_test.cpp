// Hot-standby contract (rt/standby.h): a replica tailing the primary's
// delta chain converges to the primary's exact detector state — frame by
// frame, across compactions, through torn tails — so its post-takeover
// day reports are bit-identical to the ones the primary would have
// produced. Plus the heartbeat beacon the takeover decision reads, and the
// monitor's live tail (rt::follow) and standby loop (rt::standby) driven
// in-process: a restart continues the delta chain, a mid-day takeover
// matches the uninterrupted primary, and no takeover or restart re-closes
// a day the restored state already closed.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/incidents.h"
#include "core/report_json.h"
#include "logs/io.h"
#include "profile/top_sites.h"
#include "rt/standby.h"
#include "sim/ac.h"
#include "storage/delta.h"
#include "storage/state.h"

namespace eid {
namespace {

sim::AcConfig small_world() {
  sim::AcConfig config;
  config.seed = 37;
  config.n_hosts = 60;
  config.n_popular = 30;
  config.tail_per_day = 15;
  config.automated_tail_per_day = 2;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 7.0;
  return config;
}

class StandbyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-standby-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    state_path_ = dir_ / "state.bin";

    scenario_ = std::make_unique<sim::AcScenario>(small_world());
    const util::Day jan = scenario_->training_begin();
    for (int d = 0; d < kBootstrapDays + kLabeledDays; ++d) {
      training_.emplace_back(jan + d,
                             scenario_->simulator().reduced_day(jan + d));
    }
    const util::Day feb = scenario_->operation_begin();
    for (int d = 0; d < kOperationDays; ++d) {
      operation_.emplace_back(feb + d,
                              scenario_->simulator().reduced_day(feb + d));
    }
    seeds_.domains = scenario_->ioc_seeds();
    top_sites_.add("top-whitelisted.example");

    pretrain_ = dir_ / "pretrain.bin";
    api::Detector trained = make_detector();
    train(trained);
    storage::LoadStatus status;
    ASSERT_TRUE(trained.save_state(pretrain_, &status)) << status.detail;

    api::Detector baseline = make_pretrained();
    for (int d = 0; d < kOperationDays; ++d) {
      baseline_.push_back(
          core::day_report_to_json(run_operation_day(baseline, d)));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static constexpr int kBootstrapDays = 4;
  static constexpr int kLabeledDays = 6;
  static constexpr int kOperationDays = 4;

  api::Detector make_detector() {
    core::PipelineConfig config;
    api::Detector detector(config, scenario_->simulator().whois());
    detector.set_top_sites(&top_sites_);
    return detector;
  }

  void train(api::Detector& detector) {
    const sim::IntelOracle& oracle = scenario_->oracle();
    const core::LabelFn intel = [&oracle](const std::string& domain) {
      return oracle.vt_reported(domain);
    };
    for (int d = 0; d < kBootstrapDays; ++d) {
      api::VectorSource source(training_[d].first, &training_[d].second);
      detector.ingest(source);
    }
    for (int d = kBootstrapDays; d < kBootstrapDays + kLabeledDays; ++d) {
      api::VectorSource source(training_[d].first, &training_[d].second);
      detector.ingest(source, intel);
    }
    detector.finalize_training();
    detector.set_intel_domains(seeds_.domains);
  }

  api::Detector make_pretrained() {
    api::Detector detector = make_detector();
    storage::LoadStatus status;
    EXPECT_TRUE(detector.load_state(pretrain_, &status)) << status.detail;
    return detector;
  }

  core::DayReport run_operation_day(api::Detector& detector, int index) {
    api::VectorSource source(operation_[index].first,
                             &operation_[index].second);
    return detector.run_day(source, operation_[index].first, seeds_);
  }

  /// Operation day `index` as a DNS-flavor TSV log, lines [first, last)
  /// of its time-ordered events, appended to `path`.
  void write_log(const std::filesystem::path& path, int index,
                 std::size_t first, std::size_t last) const {
    std::ofstream out(path, std::ios::app);
    const auto& events = operation_[index].second;
    for (std::size_t i = first; i < last && i < events.size(); ++i) {
      logs::DnsRecord record;
      record.ts = events[i].ts;
      record.src = events[i].host;
      record.domain = events[i].domain;
      record.response_ip = events[i].dest_ip;
      out << logs::format_dns_line(record) << '\n';
    }
  }

  /// A live tail of day `index`'s log that gives up after one empty poll.
  rt::FollowConfig follow_config(const std::filesystem::path& log,
                                 int index) const {
    rt::FollowConfig config;
    config.log_path = log;
    config.state_path = state_path_;
    config.day = operation_[index].first;
    config.idle_exit = 1;
    config.poll_ms = 1;
    return config;
  }

  util::Day operation_begin() const { return operation_[0].first; }

  std::filesystem::path dir_;
  std::filesystem::path state_path_;
  std::unique_ptr<sim::AcScenario> scenario_;
  std::filesystem::path pretrain_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> training_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> operation_;
  std::vector<std::string> baseline_;
  core::SocSeeds seeds_;
  profile::TopSitesList top_sites_;
};

TEST_F(StandbyTest, ReplicaTracksFramesAndTakesOverBitIdentically) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyReplica replica(warm, state_path_);

  // Nothing on disk yet: start fails, poll keeps retrying.
  storage::LoadStatus status;
  EXPECT_FALSE(replica.start(&status));
  EXPECT_EQ(status.error, storage::LoadError::FileNotFound);
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_FALSE(replica.started());

  api::CheckpointPolicy policy;
  policy.full_every = 10;
  // Day 0: the primary's first checkpoint is the full base; the replica's
  // next poll attaches to it.
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_TRUE(replica.started());
  EXPECT_EQ(replica.last_seq(), 0u);

  // Days 1..2: one frame per checkpoint, applied as it lands.
  for (int d = 1; d <= 2; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
    EXPECT_EQ(replica.poll(), 1u) << "day " << d;
    EXPECT_EQ(replica.last_seq(), static_cast<std::uint64_t>(d));
  }
  EXPECT_EQ(replica.stats().frames_applied, 2u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);
  EXPECT_EQ(warm.days_operated(), 3u);
  EXPECT_TRUE(warm.pipeline().models_ready());

  // An idle poll applies nothing and reloads nothing.
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);

  // Primary dies; the warm replica owns day 3 — bit-identical to the
  // report the uninterrupted primary would have produced.
  EXPECT_EQ(core::day_report_to_json(run_operation_day(warm, 3)),
            baseline_[3]);
}

TEST_F(StandbyTest, ReplicaSurvivesCompactionByReloadingTheNewBase) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyReplica replica(warm, state_path_);

  api::CheckpointPolicy policy;
  policy.full_every = 2;  // every second save rewrites the base
  storage::LoadStatus status;
  for (int d = 0; d < 3; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
    replica.poll();
  }
  // Saves 0 (full), 1 (frame), 2 (compaction): the chain shrank under the
  // replica at least once and it re-based.
  EXPECT_GE(replica.stats().full_reloads, 1u);
  EXPECT_EQ(warm.days_operated(), 3u);
  EXPECT_EQ(core::day_report_to_json(run_operation_day(warm, 3)),
            baseline_[3]);
}

TEST_F(StandbyTest, CursorAndIncidentsRideTheFramesToTheReplica) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyReplica replica(warm, state_path_);

  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  ASSERT_EQ(replica.poll(), 0u);
  EXPECT_FALSE(replica.has_cursor());

  core::IncidentStore incidents;
  const std::vector<std::string> domains = {"c2.example"};
  const std::vector<std::string> hosts = {"10.0.0.5", "10.0.0.8"};
  incidents.ingest_community(operation_[1].first, domains, hosts);

  run_operation_day(primary, 1);
  api::CheckpointExtras extras;
  extras.has_cursor = true;
  extras.cursor_day = operation_[1].first;
  extras.cursor_offset = 7777;
  extras.incidents = &incidents;
  ASSERT_TRUE(
      primary.save_state_delta(state_path_, policy, &status, extras));
  ASSERT_EQ(replica.poll(), 1u);

  EXPECT_TRUE(replica.has_cursor());
  EXPECT_EQ(replica.cursor_day(), operation_[1].first);
  EXPECT_EQ(replica.cursor_offset(), 7777u);
  core::IncidentStore adopted;
  ASSERT_TRUE(replica.take_incidents(adopted));
  EXPECT_EQ(adopted.size(), incidents.size());
  EXPECT_EQ(adopted.next_id(), incidents.next_id());
  const std::vector<core::Incident> got = adopted.incidents();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].domains.count("c2.example"), 1u);
  EXPECT_EQ(got[0].hosts.count("10.0.0.5"), 1u);

  // The failover payload survives a compaction reload: the fresh chain is
  // empty but the latest known cursor/incidents stay adopted.
  api::CheckpointPolicy compact_now;
  compact_now.full_every = 2;
  run_operation_day(primary, 2);
  ASSERT_TRUE(primary.save_state_delta(state_path_, compact_now, &status));
  replica.poll();
  EXPECT_TRUE(replica.has_cursor());
  EXPECT_EQ(replica.cursor_day(), operation_[1].first);
  core::IncidentStore still_there;
  EXPECT_TRUE(replica.take_incidents(still_there));
  EXPECT_EQ(still_there.size(), incidents.size());
}

TEST_F(StandbyTest, TornTailMeansWaitNotReload) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyReplica replica(warm, state_path_);

  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  run_operation_day(primary, 1);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  // The first poll attaches via start(), which absorbs the base plus the
  // existing frame in one chain load (not counted in the return value).
  ASSERT_EQ(replica.poll(), 0u);
  ASSERT_TRUE(replica.started());
  ASSERT_EQ(replica.last_seq(), 1u);

  // An append in progress: the replica waits instead of re-basing.
  const auto chain_path = storage::delta_chain_path(state_path_);
  {
    std::ofstream out(chain_path, std::ios::binary | std::ios::app);
    out.write("EIDDELT1\x00\x01\x00\x00partial", 19);
  }
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_GE(replica.stats().torn_waits, 1u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);

  // The primary's next append truncates the garbage and lands a real
  // frame; the replica applies it without ever reloading.
  run_operation_day(primary, 2);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  EXPECT_EQ(replica.poll(), 1u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);
  EXPECT_EQ(warm.days_operated(), 3u);
}

/// Everything a follow run hands its hooks, in order.
struct Recorded {
  std::vector<rt::IncidentEmission> emissions;
  std::vector<std::string> days;  ///< day_report_to_json per closed day

  rt::FollowHooks hooks() {
    rt::FollowHooks hooks;
    hooks.emission = [this](const rt::IncidentEmission& emission) {
      emissions.push_back(emission);
    };
    hooks.day = [this](const core::DayReport& report) {
      days.push_back(core::day_report_to_json(report));
    };
    return hooks;
  }
};

std::string emission_key(const rt::IncidentEmission& e) {
  std::string key = std::to_string(e.incident_id) + ' ' +
                    std::to_string(e.provisional) + ' ' +
                    std::to_string(e.new_incident) + ' ' +
                    std::to_string(e.emission_time);
  for (const std::string& domain : e.domains) key += ' ' + domain;
  key += " |";
  for (const std::string& host : e.hosts) key += ' ' + host;
  return key;
}

std::size_t chain_frames(const std::filesystem::path& state_path) {
  storage::DeltaChainInfo info;
  EXPECT_TRUE(
      storage::read_delta_chain(storage::delta_chain_path(state_path), info));
  return info.frames.size();
}

TEST_F(StandbyTest, RestartedMonitorContinuesTheDeltaChain) {
  const auto log0 = dir_ / "day0.tsv";
  const auto log1 = dir_ / "day1.tsv";
  write_log(log0, 0, 0, operation_[0].second.size());
  write_log(log1, 1, 0, operation_[1].second.size());
  {
    api::Detector primary = make_pretrained();
    const rt::FollowResult result =
        rt::follow(primary, follow_config(log0, 0), operation_begin(), seeds_,
                   {});
    ASSERT_TRUE(result.saved);  // the first save of a fresh chain is full
  }
  std::ifstream in(state_path_, std::ios::binary);
  const std::string base((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t frames = chain_frames(state_path_);

  // The restart's saves append frames to the restored chain; the
  // month-scale base stays as it was. (A slow run may also have taken
  // ~2 s periodic checkpoints — frames too.)
  api::Detector restarted = make_detector();
  storage::ChainLoadReport chain;
  storage::LoadStatus status;
  ASSERT_TRUE(restarted.load_state(state_path_, &chain, &status))
      << status.detail;
  const rt::FollowResult result = rt::follow(
      restarted, follow_config(log1, 1), operation_begin(), seeds_, {});
  ASSERT_TRUE(result.saved);
  EXPECT_EQ(result.stats.days_closed, 1u);
  EXPECT_GT(chain_frames(state_path_), frames);
  std::ifstream again(state_path_, std::ios::binary);
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(again)),
                        std::istreambuf_iterator<char>()),
            base);
}

TEST_F(StandbyTest, MidDayTakeoverMatchesTheUninterruptedPrimary) {
  const auto& events = operation_[0].second;
  const std::size_t half = events.size() / 2;
  const auto full_log = dir_ / "full.tsv";
  write_log(full_log, 0, 0, events.size());

  // The uninterrupted primary, not durable.
  Recorded reference;
  {
    api::Detector detector = make_pretrained();
    rt::FollowConfig config = follow_config(full_log, 0);
    config.state_path.clear();
    ASSERT_TRUE(rt::follow(detector, config, operation_begin(), seeds_,
                           reference.hooks())
                    .ok);
  }
  ASSERT_EQ(reference.days.size(), 1u);

  // The primary checkpoints its base, tails half the day, checkpoints the
  // cursor and its incidents, and dies before the day closes.
  const auto live_log = dir_ / "live.tsv";
  write_log(live_log, 0, 0, half);
  std::vector<rt::IncidentEmission> before_crash;
  {
    api::Detector primary = make_pretrained();
    storage::LoadStatus status;
    const api::CheckpointPolicy policy{7};
    ASSERT_TRUE(rt::save_checkpoint(primary, state_path_, policy, &status));
    api::TsvFileSource source(live_log, operation_[0].first,
                              logs::DnsReductionConfig{});
    source.set_tail(true);
    rt::ReplayClock clock;
    rt::EngineConfig engine_config;
    engine_config.seeds = seeds_;
    rt::ContinuousEngine engine(primary, clock, engine_config);
    engine.poll(source);
    before_crash = engine.emissions();
    api::CheckpointExtras extras;
    extras.has_cursor = true;
    extras.cursor_day = operation_[0].first;
    extras.cursor_offset = source.stats().byte_offset;
    extras.incidents = &engine.incidents();
    ASSERT_TRUE(rt::save_checkpoint(primary, state_path_, policy, &status,
                                    extras));
  }
  ASSERT_FALSE(before_crash.empty());
  ASSERT_LT(before_crash.size(), reference.emissions.size());

  // The collector finishes the day's log; the beacon is gone, so the
  // standby takes over on its first poll and re-reads the day.
  write_log(live_log, 0, half, events.size());
  std::filesystem::remove(rt::heartbeat_path(state_path_));
  api::Detector warm = make_detector();
  Recorded takeover;
  const std::optional<rt::FollowResult> result =
      rt::standby(warm, follow_config(live_log, 0), operation_begin(), seeds_,
                  takeover.hooks());
  ASSERT_TRUE(result);
  EXPECT_EQ(result->day, operation_[0].first);
  EXPECT_EQ(takeover.days, reference.days);
  EXPECT_EQ(warm.days_operated(), 1u);

  // Incident ids continue the primary's: the takeover announces exactly
  // what the uninterrupted primary announced after the crash point.
  std::vector<std::string> expected;
  for (std::size_t i = before_crash.size(); i < reference.emissions.size();
       ++i) {
    expected.push_back(emission_key(reference.emissions[i]));
  }
  std::vector<std::string> actual;
  for (const auto& emission : takeover.emissions) {
    actual.push_back(emission_key(emission));
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(StandbyTest, TakeoverAndRestartNeverReCloseAClosedDay) {
  const auto log = dir_ / "day0.tsv";
  write_log(log, 0, 0, operation_[0].second.size());
  {
    // Base first, so the closing save is a frame carrying the cursor.
    api::Detector primary = make_pretrained();
    storage::LoadStatus status;
    ASSERT_TRUE(rt::save_checkpoint(primary, state_path_, {7}, &status));
    const rt::FollowResult result = rt::follow(
        primary, follow_config(log, 0), operation_begin(), seeds_, {});
    ASSERT_EQ(result.stats.days_closed, 1u);
    ASSERT_TRUE(result.saved);
  }
  std::filesystem::remove(rt::heartbeat_path(state_path_));

  api::Detector warm = make_detector();
  Recorded takeover;
  const std::optional<rt::FollowResult> result =
      rt::standby(warm, follow_config(log, 0), operation_begin(), seeds_,
                  takeover.hooks());
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->already_closed);
  EXPECT_EQ(warm.days_operated(), 1u);
  EXPECT_TRUE(takeover.days.empty());
  EXPECT_EQ(result->stats.events, 0u);

  api::Detector restarted = make_detector();
  storage::LoadStatus status;
  ASSERT_TRUE(restarted.load_state(state_path_, &status)) << status.detail;
  const rt::FollowResult again = rt::follow(
      restarted, follow_config(log, 0), operation_begin(), seeds_, {});
  EXPECT_TRUE(again.already_closed);
  EXPECT_EQ(restarted.days_operated(), 1u);
}

TEST_F(StandbyTest, HeartbeatBeacon) {
  const auto hb = rt::heartbeat_path(state_path_);
  EXPECT_EQ(hb, state_path_.string() + ".hb");

  // Missing beacon: infinitely stale — a standby never takes over from a
  // primary that has not started (it has no state to take over anyway).
  EXPECT_TRUE(std::isinf(rt::heartbeat_age_seconds(hb)));

  ASSERT_TRUE(rt::touch_heartbeat(hb));
  const double age = rt::heartbeat_age_seconds(hb);
  EXPECT_GE(age, 0.0);
  EXPECT_LT(age, 60.0);  // just touched (loose: CI clocks can be coarse)

  // Touch refreshes the mtime even with unchanged content.
  ASSERT_TRUE(rt::touch_heartbeat(hb));
  EXPECT_GE(rt::heartbeat_age_seconds(hb), 0.0);
}

}  // namespace
}  // namespace eid
