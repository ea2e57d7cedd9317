// Round-trip and corruption coverage for the detector checkpoint: every
// DetectorState component survives a binary round trip bit-exactly, and
// every corruption mode fails cleanly with the right LoadError.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "storage/container.h"
#include "storage/state.h"
#include "util/binary.h"
#include "util/rng.h"

namespace eid::storage {
namespace {

class StorageStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-storage-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path(const char* name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

std::string read_bytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const std::filesystem::path& p, std::string_view bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

core::ScoredModel exotic_model() {
  core::ScoredModel model;
  model.threshold = 0.4375;
  model.score_offset = -1e-300;
  model.score_scale = 3.14159265358979;
  model.model.intercept = -0.0;
  model.model.weights = {1.0 / 3.0, -2e17, 5e-324};
  model.model.std_errors = {0.1, 0.2, 0.3};
  model.model.t_stats = {3.3, -2.2, 0.0};
  model.model.intercept_std_error = 0.5;
  model.model.r_squared = 0.75;
  model.model.residual_variance = 1e-9;
  model.model.n_samples = 12345;
  model.scaler.restore({0.0, -1.5, 2.25}, {1.0, 1.5, 2.25});
  return model;
}

// ---- Full detector state ----

DetectorState sample_state() {
  DetectorState state;
  state.config.popularity_threshold = 7;
  state.config.ua_rare_threshold = 4;
  state.config.cc_threshold = 0.44;
  state.config.sim_threshold = 0.65;
  state.config.periodicity.bin_width_seconds = 12.5;
  state.config.periodicity.jeffrey_threshold = 0.055;
  state.config.periodicity.min_intervals = 5;
  state.config.periodicity.metric = timing::HistogramMetric::L1;
  state.config.bp_max_iterations = 8;
  state.config.parallelism = {3, 2};
  state.domain_history.update({"a.com", "b.net", "c.org"});
  state.domain_history.update({"d.io", "xn--bcher-kva.example",
                               "日本語ドメイン.example",
                               "emoji-\xF0\x9F\x92\xBB.example",
                               std::string(8000, 'x')});
  state.ua_history = profile::UaHistory(4);
  state.ua_history.observe("UA-1", "h1");
  state.ua_history.observe("UA-1", "h2");
  for (const char* host : {"h1", "h2", "h3", "h4"}) {
    state.ua_history.observe("Popular/1.0", host);  // crosses the threshold
  }
  state.ua_history.observe("Unicode/\xE2\x98\x83", "h1");
  state.ua_history.observe("Weird\tUA\nwith\rcontrols", "h9");
  state.has_top_sites = true;
  state.top_sites.add("google.com");
  state.top_sites.add("b.net");  // overlaps the history on purpose
  state.cc_model = exotic_model();
  state.sim_model = exotic_model();
  state.sim_model.threshold = 0.33;
  state.training.whois_age_sum = 1234.5;
  state.training.whois_validity_sum = 6789.25;
  state.training.whois_samples = 42;
  state.training.models_ready = true;
  state.intel_domains = {"evil.example", "c2.example"};
  state.counters.days_operated = 17;
  return state;
}

TEST_F(StorageStateTest, DetectorStateFullRoundTrip) {
  const DetectorState state = sample_state();
  ASSERT_TRUE(storage::save_detector_state(state, path("s.bin")));
  LoadStatus status;
  const auto loaded = storage::load_detector_state(path("s.bin"), &status);
  ASSERT_TRUE(loaded.has_value()) << status.detail;

  EXPECT_EQ(loaded->config.popularity_threshold, 7u);
  EXPECT_EQ(loaded->config.ua_rare_threshold, 4u);
  EXPECT_EQ(loaded->config.periodicity.metric, timing::HistogramMetric::L1);
  EXPECT_EQ(loaded->config.periodicity.min_intervals, 5u);
  EXPECT_EQ(loaded->config.parallelism.threads, 3u);
  EXPECT_EQ(loaded->config.parallelism.shards, 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->config.cc_threshold),
            std::bit_cast<std::uint64_t>(0.44));

  EXPECT_EQ(loaded->domain_history.size(), 8u);
  EXPECT_EQ(loaded->domain_history.days_ingested(), 2u);
  EXPECT_FALSE(loaded->domain_history.is_new("d.io"));
  EXPECT_FALSE(loaded->domain_history.is_new("日本語ドメイン.example"));
  EXPECT_FALSE(loaded->domain_history.is_new(std::string(8000, 'x')));
  EXPECT_TRUE(loaded->domain_history.is_new("other.example"));

  EXPECT_EQ(loaded->ua_history.rare_threshold(), 4u);
  EXPECT_EQ(loaded->ua_history.distinct_uas(), 4u);
  EXPECT_EQ(loaded->ua_history.host_count("UA-1"), 2u);
  EXPECT_FALSE(loaded->ua_history.is_rare("Popular/1.0"));
  EXPECT_TRUE(loaded->ua_history.is_rare("Unicode/\xE2\x98\x83"));
  EXPECT_EQ(loaded->ua_history.host_count("Weird\tUA\nwith\rcontrols"), 1u);
  EXPECT_TRUE(loaded->ua_history.is_rare("NeverSeen/0.1"));
  // Restored histories keep accumulating with the same semantics.
  profile::UaHistory continued = loaded->ua_history;
  continued.observe("UA-1", "h3");
  EXPECT_TRUE(continued.is_rare("UA-1"));
  continued.observe("UA-1", "h4");  // fourth distinct host
  EXPECT_FALSE(continued.is_rare("UA-1"));

  // Models round-trip bit-exactly and score identically.
  const core::ScoredModel model = exotic_model();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->cc_model.threshold),
            std::bit_cast<std::uint64_t>(model.threshold));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->cc_model.score_offset),
            std::bit_cast<std::uint64_t>(model.score_offset));
  ASSERT_EQ(loaded->cc_model.model.weights.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->cc_model.model.weights[i]),
              std::bit_cast<std::uint64_t>(model.model.weights[i]));
  }
  EXPECT_EQ(loaded->cc_model.model.n_samples, 12345u);
  EXPECT_EQ(loaded->cc_model.scaler.mins(), model.scaler.mins());
  EXPECT_EQ(loaded->cc_model.scaler.maxs(), model.scaler.maxs());
  EXPECT_EQ(loaded->sim_model.threshold, 0.33);
  for (const double base : {-3.0, 0.0, 1.5, 100.0}) {
    // score() scales its row in place, so each model gets its own copy.
    std::array<double, 3> row_a = {base, base + 1, base + 2};
    std::array<double, 3> row_b = row_a;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->cc_model.score(row_a)),
              std::bit_cast<std::uint64_t>(model.score(row_b)))
        << base;
  }

  EXPECT_TRUE(loaded->has_top_sites);
  EXPECT_EQ(loaded->top_sites.size(), 2u);
  EXPECT_TRUE(loaded->top_sites.contains("google.com"));

  EXPECT_EQ(loaded->training.whois_samples, 42u);
  EXPECT_TRUE(loaded->training.models_ready);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->training.whois_age_sum),
            std::bit_cast<std::uint64_t>(1234.5));

  EXPECT_EQ(loaded->intel_domains,
            (std::vector<std::string>{"c2.example", "evil.example"}));
  EXPECT_EQ(loaded->counters.days_operated, 17u);
}

/// Month-scale histories: more entries than one front-coding block, hosts
/// shared across thousands of UA entries.
DetectorState large_state() {
  DetectorState state;
  std::vector<std::string> domains;
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    domains.push_back("host-" + std::to_string(rng.next_u64()) + ".example-" +
                      std::to_string(i % 97) + ".com");
  }
  state.domain_history.update(domains);
  std::vector<std::string> hosts;
  for (int h = 0; h < 500; ++h) hosts.push_back("ws-" + std::to_string(h));
  for (int u = 0; u < 3000; ++u) {
    const std::string ua = "UA-" + std::to_string(u);
    const std::size_t n = 1 + rng.uniform(11);
    for (std::size_t i = 0; i < n; ++i) {
      state.ua_history.observe(ua, hosts[rng.uniform(hosts.size())]);
    }
  }
  return state;
}

TEST_F(StorageStateTest, EncodeIsIdenticalForAnyThreadCount) {
  for (const DetectorState& state : {sample_state(), large_state()}) {
    const std::string one = encode_detector_state(state, 1);
    const std::string eight = encode_detector_state(state, 8);
    EXPECT_EQ(one, eight);
    // And the large histories decode back entry for entry.
    LoadStatus status;
    const auto loaded = decode_detector_state(one, &status);
    ASSERT_TRUE(loaded.has_value()) << status.detail;
    EXPECT_EQ(loaded->domain_history.size(), state.domain_history.size());
    for (const std::string& domain : state.domain_history.domains()) {
      EXPECT_FALSE(loaded->domain_history.is_new(domain)) << domain;
    }
    ASSERT_EQ(loaded->ua_history.distinct_uas(),
              state.ua_history.distinct_uas());
    state.ua_history.for_each_entry(
        [&](const std::string& ua, bool popular,
            std::span<const std::string_view> hosts) {
          EXPECT_EQ(loaded->ua_history.is_rare(ua), !popular) << ua;
          EXPECT_EQ(loaded->ua_history.host_count(ua),
                    popular ? state.ua_history.rare_threshold() : hosts.size())
              << ua;
        });
  }
}

TEST_F(StorageStateTest, StateWithoutOptionalSections) {
  const DetectorState empty;
  DetectorState one_domain;
  one_domain.domain_history.update({"only.example"});
  for (const DetectorState& state : {empty, one_domain}) {
    ASSERT_TRUE(storage::save_detector_state(state, path("s.bin")));
    LoadStatus status;
    const auto loaded = storage::load_detector_state(path("s.bin"), &status);
    ASSERT_TRUE(loaded.has_value()) << status.detail;
    EXPECT_EQ(loaded->domain_history.size(), state.domain_history.size());
    EXPECT_EQ(loaded->domain_history.days_ingested(),
              state.domain_history.days_ingested());
    EXPECT_EQ(loaded->ua_history.distinct_uas(), 0u);
    EXPECT_FALSE(loaded->has_top_sites);
    EXPECT_TRUE(loaded->intel_domains.empty());
    EXPECT_FALSE(loaded->training.models_ready);
  }
}

TEST_F(StorageStateTest, DuplicateStringsInAStringSetRoundTrip) {
  // A hand-built state may list a string twice; the string-set encoder
  // must still write a strictly increasing id run the decoder accepts.
  DetectorState state;
  state.intel_domains = {"evil.com", "evil.com"};
  LoadStatus status;
  const auto loaded = decode_detector_state(encode_detector_state(state),
                                            &status);
  ASSERT_TRUE(loaded.has_value()) << status.detail;
  EXPECT_EQ(loaded->intel_domains, std::vector<std::string>{"evil.com"});
}

TEST_F(StorageStateTest, InconsistentModelIsMalformed) {
  // A model that cannot score — zero score scale, or scaler bounds that do
  // not cover every weight — is rejected on load.
  for (int variant = 0; variant < 2; ++variant) {
    DetectorState state = sample_state();
    if (variant == 0) {
      state.cc_model.score_scale = 0.0;
    } else {
      state.sim_model.scaler.restore({0.0}, {1.0});
    }
    LoadStatus status;
    EXPECT_FALSE(
        decode_detector_state(encode_detector_state(state), &status).has_value())
        << variant;
    EXPECT_EQ(status.error, LoadError::Malformed) << variant;
  }
}

// ---- Corruption ----

TEST_F(StorageStateTest, BitFlipFailsWithChecksumMismatch) {
  ASSERT_TRUE(storage::save_detector_state(sample_state(), path("s.bin")));
  std::string bytes = read_bytes(path("s.bin"));
  // Locate the string-table payload via a clean parse, then flip one bit
  // squarely inside it (a flip in a section header would instead surface
  // as Truncated/Malformed).
  const auto reader = ContainerReader::parse(bytes);
  ASSERT_TRUE(reader.has_value());
  const Section* strings = reader->find(SectionId::StringTable);
  ASSERT_NE(strings, nullptr);
  const std::size_t offset =
      static_cast<std::size_t>(strings->payload.data() - bytes.data()) +
      strings->payload.size() / 2;
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x04);
  write_bytes(path("s.bin"), bytes);
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("s.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::ChecksumMismatch) << status.detail;
}

TEST_F(StorageStateTest, TruncationFailsCleanly) {
  ASSERT_TRUE(storage::save_detector_state(sample_state(), path("s.bin")));
  const std::string bytes = read_bytes(path("s.bin"));
  // Every strict prefix must fail with Truncated (or BadMagic for very
  // short prefixes) — never crash, never return a value.
  for (const double frac : {0.05, 0.3, 0.6, 0.95}) {
    const std::size_t cut = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * frac);
    write_bytes(path("cut.bin"), std::string_view(bytes).substr(0, cut));
    LoadStatus status;
    EXPECT_FALSE(storage::load_detector_state(path("cut.bin"), &status).has_value());
    EXPECT_TRUE(status.error == LoadError::Truncated ||
                status.error == LoadError::BadMagic)
        << "cut at " << cut << ": " << load_error_name(status.error);
  }
  // Cutting the final CRC byte specifically reports Truncated.
  write_bytes(path("cut.bin"),
              std::string_view(bytes).substr(0, bytes.size() - 1));
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("cut.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::Truncated);
}

TEST_F(StorageStateTest, TrailingGarbageIsMalformed) {
  ASSERT_TRUE(storage::save_detector_state(sample_state(), path("s.bin")));
  std::string bytes = read_bytes(path("s.bin"));
  bytes += "extra";
  write_bytes(path("s.bin"), bytes);
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("s.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::Malformed);
}

TEST_F(StorageStateTest, BadMagicAndMissingFileReported) {
  write_bytes(path("junk.bin"), "NOTASTATEFILE....");
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("junk.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::BadMagic);
  EXPECT_FALSE(storage::load_detector_state(path("missing.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::FileNotFound);
}

TEST_F(StorageStateTest, UnsupportedVersionReported) {
  util::ByteWriter out;
  out.bytes(kContainerMagic);
  out.varint(99);  // future format version
  out.varint(0);
  write_bytes(path("v99.bin"), out.data());
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("v99.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::UnsupportedVersion);
}

TEST_F(StorageStateTest, MissingSectionReported) {
  // A valid container holding only a string table is not a detector state.
  ContainerWriter writer;
  writer.add_section(SectionId::StringTable, std::string(1, '\0'));
  write_bytes(path("t.bin"), writer.encode());
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("t.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::MissingSection);
  EXPECT_NE(status.detail.find("config"), std::string::npos) << status.detail;
}

}  // namespace
}  // namespace eid::storage
