// Deterministic mutation fuzz of the checkpoint decoder. A full checkpoint
// and a delta frame, both carrying every section, are mutated byte-wise;
// each mutated section's CRC (and the frame CRC around a chain payload) is
// then recomputed so the mutation gets past the checksums and reaches the
// section decoders and the apply routine. Every mutant goes through
// decode_detector_state, decode_delta_frame and load_detector_state_chain:
// each call must return a value or a LoadStatus error — never crash (run
// it under ASan/UBSan to make "never crash" mean no memory errors too).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/incidents.h"
#include "features/cc_features.h"
#include "features/similarity_features.h"
#include "storage/container.h"
#include "storage/delta.h"
#include "storage/state.h"
#include "util/binary.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace eid::storage {
namespace {

constexpr int kMutants = 3000;
/// Of every kChainEvery mutants, one base and one frame mutant also load
/// as a base + chain pair from disk.
constexpr int kChainEvery = 4;

void spit(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One chain frame around a payload (storage/delta.h layout).
std::string chain_frame(std::string_view payload) {
  util::ByteWriter out;
  out.bytes(kDeltaMagic);
  out.u32le(static_cast<std::uint32_t>(payload.size()));
  out.bytes(payload);
  out.u32le(util::crc32(payload));
  return out.take();
}

core::ScoredModel small_model(std::size_t features) {
  core::ScoredModel model;
  model.threshold = 0.5;
  model.score_scale = 2.0;
  model.model.weights.assign(features, 0.25);
  model.model.std_errors.assign(features, 0.1);
  model.model.t_stats.assign(features, 2.5);
  model.scaler.restore(std::vector<double>(features, 0.0),
                       std::vector<double>(features, 1.0));
  return model;
}

DetectorState full_state() {
  DetectorState state;
  state.domain_history.update({"a.example", "b.example", "c.example"});
  state.ua_history = profile::UaHistory(3);
  state.ua_history.observe("rare/1.0", "h1");
  state.ua_history.observe("rare/1.0", "h2");
  for (const char* host : {"h1", "h2", "h3"}) {
    state.ua_history.observe("popular/1.0", host);
  }
  state.has_top_sites = true;
  state.top_sites.add("top.example");
  state.cc_model = small_model(features::kCcFeatureCount);
  state.sim_model = small_model(features::kSimFeatureCount);
  state.training.whois_samples = 3;
  state.intel_domains = {"ioc.example"};
  state.counters.days_operated = 4;
  state.training_rows.cc_cols = features::kCcFeatureCount;
  state.training_rows.cc.assign(2 * features::kCcFeatureCount, 0.5);
  state.training_rows.cc_labels = {1.0, 0.0};
  state.training_rows.sim_cols = features::kSimFeatureCount;
  state.training_rows.sim.assign(features::kSimFeatureCount, 0.25);
  state.training_rows.sim_labels = {1.0};
  return state;
}

/// Flip or overwrite a few bytes inside one section's payload, then fix
/// that section's CRC so the damage reaches its decoder. Now and then cut
/// or extend the container instead (structural damage, CRCs untouched).
std::string mutate(const std::string& bytes, util::Rng& rng) {
  std::string out = bytes;
  if (rng.uniform(10) == 0) {
    return rng.uniform(2) == 0 ? out.substr(0, rng.uniform(out.size()))
                               : out + std::string(1 + rng.uniform(8), '\x01');
  }
  const auto reader = ContainerReader::parse(out);
  const std::vector<Section>& sections = reader->sections();
  const Section& section = sections[rng.uniform(sections.size())];
  if (section.payload.empty()) return out;
  const std::size_t begin =
      static_cast<std::size_t>(section.payload.data() - out.data());
  const std::size_t size = section.payload.size();
  const int edits = 1 + static_cast<int>(rng.uniform(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = begin + rng.uniform(size);
    if (rng.uniform(2) == 0) {
      out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform(8)));
    } else {
      out[at] = static_cast<char>(rng.uniform(256));
    }
  }
  const std::uint32_t crc = util::crc32(std::string_view(out).substr(begin, size));
  for (int i = 0; i < 4; ++i) {
    out[begin + size + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  return out;
}

/// A value, or a reported reason; never both missing.
template <typename T>
void expect_value_or_error(const T& result, const LoadStatus& status) {
  if (result) {
    EXPECT_TRUE(status.ok()) << status.detail;
  } else {
    EXPECT_NE(status.error, LoadError::None);
  }
}

TEST(StorageFuzzTest, MutantsDecodeOrFailCleanly) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("eid-storage-fuzz-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto state_path = dir / "state";
  const auto chain_path = delta_chain_path(state_path);

  const DetectorState state = full_state();
  const std::string full = encode_detector_state(state);
  core::IncidentStore incidents;
  const std::vector<std::string> inc_domains = {"b.example"};
  const std::vector<std::string> inc_hosts = {"h1", "h2"};
  incidents.ingest_community(100, inc_domains, inc_hosts);
  const std::vector<std::string> new_domains = {"c.example"};
  const std::vector<std::string> touched_uas = {"rare/1.0", "popular/1.0"};
  FrameView frame_view;
  frame_view.header = {util::crc32(full), 1, 100};
  frame_view.new_domains = &new_domains;
  frame_view.touched_uas = &touched_uas;
  frame_view.has_cursor = true;
  frame_view.cursor_day = 100;
  frame_view.cursor_offset = 4096;
  frame_view.incidents = &incidents;
  StateView view = view_of(state);
  view.frame = &frame_view;
  const std::string frame = encode_state(view);

  // The unmutated pair decodes and chains cleanly.
  ASSERT_TRUE(decode_detector_state(full));
  ASSERT_TRUE(decode_delta_frame(frame));
  spit(state_path, full);
  spit(chain_path, chain_frame(frame));
  ChainLoadReport clean;
  ASSERT_TRUE(load_detector_state_chain(state_path, &clean));
  ASSERT_EQ(clean.frames_applied, 1u) << clean.detail;

  util::Rng rng(20260101);
  std::size_t decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const bool mutate_frame = i % 2 == 1;
    const std::string mutant = mutate(mutate_frame ? frame : full, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));

    LoadStatus status;
    const auto as_state = decode_detector_state(mutant, &status);
    expect_value_or_error(as_state, status);
    decoded += as_state ? 1 : 0;
    status = {};
    auto as_frame = decode_delta_frame(mutant, &status);
    expect_value_or_error(as_frame, status);
    if (as_frame) {
      DetectorState base = *decode_detector_state(full);
      status = {};
      const bool applied = apply_delta_frame(base, *as_frame, &status);
      EXPECT_EQ(applied, status.ok()) << status.detail;
    }
    if (i % kChainEvery >= 2) continue;

    // Chain load: a mutated base fails or loads; a mutated frame (CRC-
    // clean inside a CRC-clean chain frame) applies or degrades the load.
    spit(state_path, mutate_frame ? full : mutant);
    spit(chain_path, chain_frame(mutate_frame ? mutant : frame));
    ChainLoadReport report;
    status = {};
    const auto loaded = load_detector_state_chain(state_path, &report, &status);
    expect_value_or_error(loaded, status);
    if (mutate_frame) {
      ASSERT_TRUE(loaded) << status.detail;
      EXPECT_EQ(report.frames_applied + report.frames_dropped, 1u);
      EXPECT_EQ(report.degraded, report.frames_dropped == 1) << report.detail;
    }
  }
  // Most damage is caught, but not all of it: the mutations do reach the
  // decoders instead of dying at the checksums.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, static_cast<std::size_t>(kMutants));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eid::storage
