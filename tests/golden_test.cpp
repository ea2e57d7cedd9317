// Behaviour lock: digests of checkpoint bytes and of resumed day reports,
// committed under tests/golden/. A refactor of the storage or detection
// layers must leave every digest unchanged. When behaviour changes on
// purpose, regenerate with
//
//   golden_test --update
//
// and say in CHANGES.md why the digests moved.
//
// Locked:
//   * full_state_all_sections — encode_detector_state bytes of a fixed-seed
//     state whose sections are all non-empty (histories, top sites, intel,
//     both models, training rows, counters);
//   * detector_save_state — Detector::save_state bytes of the trained
//     detector after one operation day;
//   * resume_day_<i> — day_report_to_json of a 3-day run in which every
//     day starts from a fresh detector that load_state()s the previous
//     day's save_state_delta (base + growing frame chain);
//   * fixture_next_day — the report the committed fixture's base
//     checkpoint (tests/golden/v1_chain.state) produces for its next day;
//     see RetiredChainFixture;
//   * batch_day_<i> — day_report_to_json of each day of one 3-day
//     run_days over the operation days;
//   * rt_emissions_tick_<s> — the ContinuousEngine's emission sequence
//     over the same 3 days at tick size s (300 and 3600).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/report_json.h"
#include "profile/top_sites.h"
#include "rt/engine.h"
#include "sim/ac.h"
#include "storage/delta.h"
#include "storage/state.h"

namespace eid {
namespace {

bool g_update = false;

const std::filesystem::path kGoldenDir = EID_GOLDEN_DIR;

/// FNV-1a 64 over the bytes, rendered as 16 hex digits plus the length.
std::string digest(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx:%zu",
                static_cast<unsigned long long>(hash), bytes.size());
  return buf;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// tests/golden/digests.txt: one "<name> <digest>" per line, sorted.
std::map<std::string, std::string> read_digests() {
  std::map<std::string, std::string> digests;
  std::istringstream in(slurp(kGoldenDir / "digests.txt"));
  std::string name;
  std::string value;
  while (in >> name >> value) digests[name] = value;
  return digests;
}

void write_digests(const std::map<std::string, std::string>& digests) {
  std::ostringstream out;
  for (const auto& [name, value] : digests) out << name << ' ' << value << '\n';
  spit(kGoldenDir / "digests.txt", out.str());
}

sim::AcConfig small_world() {
  sim::AcConfig config;
  config.seed = 31;
  config.n_hosts = 60;
  config.n_popular = 30;
  config.tail_per_day = 15;
  config.automated_tail_per_day = 2;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 4.0;
  return config;
}

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-golden-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
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
    top_sites_.add("another-popular.example");
    expected_ = read_digests();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static constexpr int kBootstrapDays = 4;
  static constexpr int kLabeledDays = 10;
  static constexpr int kOperationDays = 3;

  api::Detector make_detector() {
    api::Detector detector(core::PipelineConfig{},
                           scenario_->simulator().whois());
    detector.set_top_sites(&top_sites_);
    return detector;
  }

  /// Bootstrap + labeled days; `finalize` fits the models and installs
  /// the intel feed, otherwise the regression rows stay unfinalized.
  void train(api::Detector& detector, bool finalize) {
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
    if (!finalize) return;
    detector.finalize_training();
    detector.set_intel_domains(seeds_.domains);
  }

  std::string run_operation_day(api::Detector& detector, int index) {
    api::VectorSource source(operation_[index].first,
                             &operation_[index].second);
    return core::day_report_to_json(
        detector.run_day(source, operation_[index].first, seeds_));
  }

  /// The operation days as one multi-day source.
  std::vector<std::vector<logs::ConnEvent>> operation_days() const {
    std::vector<std::vector<logs::ConnEvent>> days;
    for (const auto& [day, events] : operation_) days.push_back(events);
    return days;
  }

  /// Compare against the committed digest, or record it under --update.
  void check(const std::string& name, std::string_view bytes) {
    const std::string actual = digest(bytes);
    if (g_update) {
      expected_[name] = actual;
      write_digests(expected_);
      return;
    }
    const auto it = expected_.find(name);
    ASSERT_NE(it, expected_.end()) << name << " missing from digests.txt";
    EXPECT_EQ(it->second, actual) << name;
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::AcScenario> scenario_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> training_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> operation_;
  core::SocSeeds seeds_;
  profile::TopSitesList top_sites_;
  std::map<std::string, std::string> expected_;
};

TEST_F(GoldenTest, FullCheckpointBytes) {
  api::Detector trained = make_detector();
  train(trained, true);
  run_operation_day(trained, 0);
  const auto trained_path = dir_ / "trained.state";
  storage::LoadStatus status;
  ASSERT_TRUE(trained.save_state(trained_path, &status)) << status.detail;
  check("detector_save_state", slurp(trained_path));

  // Regression rows only exist before finalize_training(); borrow them
  // from a detector stopped mid-training so one state carries every
  // section.
  api::Detector mid_training = make_detector();
  train(mid_training, false);
  const auto mid_path = dir_ / "mid.state";
  ASSERT_TRUE(mid_training.save_state(mid_path, &status)) << status.detail;

  std::optional<storage::DetectorState> state =
      storage::load_detector_state(trained_path, &status);
  ASSERT_TRUE(state) << status.detail;
  const std::optional<storage::DetectorState> mid =
      storage::load_detector_state(mid_path, &status);
  ASSERT_TRUE(mid) << status.detail;
  ASSERT_FALSE(mid->training_rows.empty());
  state->training_rows = mid->training_rows;
  ASSERT_TRUE(state->has_top_sites);
  ASSERT_FALSE(state->intel_domains.empty());
  ASSERT_GT(state->domain_history.size(), 0u);
  ASSERT_GT(state->ua_history.distinct_uas(), 0u);
  ASSERT_FALSE(state->cc_model.model.weights.empty());
  ASSERT_FALSE(state->sim_model.model.weights.empty());
  ASSERT_GT(state->counters.days_operated, 0u);
  check("full_state_all_sections", storage::encode_detector_state(*state));
}

TEST_F(GoldenTest, ResumedDayReports) {
  const auto path = dir_ / "resume.state";
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  {
    api::Detector trained = make_detector();
    train(trained, true);
    ASSERT_TRUE(trained.save_state_delta(path, policy, &status))
        << status.detail;
  }
  for (int d = 0; d < kOperationDays; ++d) {
    api::Detector resumed = make_detector();
    storage::ChainLoadReport report;
    ASSERT_TRUE(resumed.load_state(path, &report, &status)) << status.detail;
    ASSERT_FALSE(report.degraded) << report.detail;
    EXPECT_EQ(report.frames_applied, static_cast<std::size_t>(d));
    check("resume_day_" + std::to_string(d), run_operation_day(resumed, d));
    ASSERT_TRUE(resumed.save_state_delta(path, policy, &status))
        << status.detail;
  }
}

TEST_F(GoldenTest, BatchRunDaysReports) {
  api::Detector detector = make_detector();
  train(detector, true);
  const auto days = operation_days();
  api::MultiDaySource source(operation_[0].first, &days);
  const std::vector<core::DayReport> reports =
      detector.run_days(source, seeds_);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kOperationDays));
  for (int d = 0; d < kOperationDays; ++d) {
    check("batch_day_" + std::to_string(d),
          core::day_report_to_json(reports[d]));
  }
}

/// One line per emission, every field, in emission order.
std::string emissions_text(const std::vector<rt::IncidentEmission>& emissions) {
  std::ostringstream out;
  for (const rt::IncidentEmission& e : emissions) {
    out << e.incident_id << ' ' << e.provisional << ' ' << e.new_incident
        << ' ' << e.day << ' ' << e.event_time << ' ' << e.emission_time
        << ' ' << e.latency_seconds << " domains";
    for (const std::string& domain : e.domains) out << ' ' << domain;
    out << " hosts";
    for (const std::string& host : e.hosts) out << ' ' << host;
    out << '\n';
  }
  return out.str();
}

TEST_F(GoldenTest, ContinuousEmissionSequence) {
  const auto days = operation_days();
  for (const std::int64_t tick : {std::int64_t{300}, std::int64_t{3600}}) {
    api::Detector detector = make_detector();
    train(detector, true);
    rt::EngineConfig config;
    config.window.tick_seconds = tick;
    config.seeds = seeds_;
    api::MultiDaySource source(operation_[0].first, &days);
    const rt::ContinuousReport report = detector.run_continuous(source, config);
    ASSERT_EQ(report.days.size(), static_cast<std::size_t>(kOperationDays));
    ASSERT_GT(report.stats.provisional_emissions, 0u);
    check("rt_emissions_tick_" + std::to_string(tick),
          emissions_text(report.emissions));
  }
}

/// tests/golden/v1_chain.state plus its .delta chain were written by the
/// release before delta frames and full saves shared one set of section
/// codecs: a full base checkpoint and two frames in the retired layout
/// (sections 21/22). The base must keep loading and resuming bit-exactly;
/// the old frames must degrade the load to it, then compact away. The
/// fixture is frozen: --update leaves it alone.
TEST_F(GoldenTest, RetiredChainFixture) {
  const auto path = dir_ / "v1_chain.state";
  std::filesystem::copy_file(kGoldenDir / "v1_chain.state", path);
  std::filesystem::copy_file(kGoldenDir / "v1_chain.state.delta",
                             storage::delta_chain_path(path));
  const std::string base = slurp(path);

  api::Detector resumed = make_detector();
  storage::ChainLoadReport report;
  storage::LoadStatus status;
  ASSERT_TRUE(resumed.load_state(path, &report, &status)) << status.detail;
  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.frames_applied, 0u);
  EXPECT_EQ(report.frames_dropped, 2u);
  EXPECT_NE(report.detail.find("retired delta-frame layout"),
            std::string::npos)
      << report.detail;
  EXPECT_EQ(resumed.days_operated(), 0u);
  check("fixture_next_day", run_operation_day(resumed, 0));

  // The degraded load left the chain cold: the next delta save compacts.
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  ASSERT_TRUE(resumed.save_state_delta(path, policy, &status))
      << status.detail;
  EXPECT_FALSE(std::filesystem::exists(storage::delta_chain_path(path)));
  EXPECT_NE(slurp(path), base);
  api::Detector reloaded = make_detector();
  ASSERT_TRUE(reloaded.load_state(path, &report, &status)) << status.detail;
  EXPECT_FALSE(report.degraded) << report.detail;
  EXPECT_EQ(reloaded.days_operated(), 1u);
}

}  // namespace
}  // namespace eid

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) eid::g_update = true;
  }
  return RUN_ALL_TESTS();
}
