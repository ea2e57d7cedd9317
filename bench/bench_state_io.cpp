// State-persistence benchmark on a month-scale profile corpus: bytes on
// disk and save/load wall time of the full detector checkpoint
// (storage/state.h), and what one day's delta frame (storage/delta.h)
// costs against that full rewrite. The paper's system carries months of
// accumulated histories between daily batches (§III-E); at enterprise
// scale that state is written and re-read every day, so both size and
// latency are operational costs.
//
// Pass --json[=path] to record the results as the "state_io" section of
// BENCH_perf.json at the repo root (run from the repo root).
//
// Corpus shape mirrors a real profile: a domain history of distinct folded
// domains, and a UA history whose rare entries each list the distinct
// corp hosts that used the UA — host names repeat across thousands of UA
// entries, which is exactly what the shared interned string table
// collapses to 1-3 byte ids.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/trace.h"
#include "storage/delta.h"
#include "storage/state.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace eid;

struct Corpus {
  profile::DomainHistory domains;
  profile::UaHistory uas{10};
  std::size_t n_domains = 0;
  std::size_t n_uas = 0;
  std::size_t n_hosts = 0;
};

Corpus build_corpus() {
  Corpus corpus;
  util::Rng rng(42);

  // Host pool: workstation names as DHCP hands them out.
  constexpr std::size_t kHosts = 6000;
  std::vector<std::string> hosts;
  hosts.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "workstation-%05zu.%s.ad.corp.example.com",
                  h, h % 3 == 0 ? "nyc" : (h % 3 == 1 ? "sfo" : "lon"));
    hosts.emplace_back(buf);
  }

  // Domain history: a month of distinct folded destinations.
  constexpr std::size_t kDomains = 20000;
  {
    std::vector<std::string> domains;
    domains.reserve(kDomains);
    for (std::size_t d = 0; d < kDomains; ++d) {
      char buf[80];
      switch (d % 4) {
        case 0:
          std::snprintf(buf, sizeof(buf), "site-%06zu.example-brand.com", d);
          break;
        case 1:
          std::snprintf(buf, sizeof(buf), "cdn%02zu.assets-%05zu.edgecast.net",
                        d % 16, d);
          break;
        case 2:
          std::snprintf(buf, sizeof(buf), "api.partner-%06zu.io", d);
          break;
        default:
          std::snprintf(buf, sizeof(buf), "mail-%06zu.hosting.example.org", d);
          break;
      }
      domains.emplace_back(buf);
    }
    corpus.domains.update(domains);
    corpus.n_domains = corpus.domains.size();
  }

  // UA history: enterprise software population. ~10% popular, the rest
  // rare with 6..9 distinct hosts drawn from the shared pool (entries near
  // the popularity threshold dominate bytes: each lists almost
  // rare_threshold hosts).
  constexpr std::size_t kUas = 150000;
  for (std::size_t u = 0; u < kUas; ++u) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
                  "AppleWebKit/537.36 (KHTML, like Gecko) "
                  "CorpApp-%05zu/%zu.%zu.%zu",
                  u, 1 + u % 7, u % 10, u % 4);
    const std::string ua(buf);
    if (u % 10 == 0) {
      corpus.uas.restore_entry(ua, true, {});
      continue;
    }
    const std::size_t n = 6 + rng.uniform(4);
    std::vector<std::string_view> ua_hosts;
    ua_hosts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ua_hosts.push_back(hosts[rng.uniform(kHosts)]);
    }
    corpus.uas.restore_entry(ua, false,
                             {ua_hosts.data(), ua_hosts.size()});
  }
  corpus.n_uas = corpus.uas.distinct_uas();
  corpus.n_hosts = kHosts;
  return corpus;
}

double seconds_of(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = obs::Clock::now();
    fn();
    const double s = obs::seconds_since(start);
    if (s < best) best = s;
  }
  return best;
}

std::size_t file_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

/// Raw line dump of the corpus: one line per domain and per UA entry, no
/// sort, no dedup, no checksum, no fsync. This is the work a line-oriented
/// text profile writer does, the reference the save floor is set against.
bool write_line_dump(const profile::DomainHistory& domains,
                     const profile::UaHistory& uas,
                     const std::filesystem::path& path) {
  const auto printable = [](std::string_view text) {
    for (const char c : text) {
      if (static_cast<unsigned char>(c) < 0x20 || c == ' ') return false;
    }
    return true;
  };
  std::ofstream out(path);
  out << "days " << domains.days_ingested() << '\n';
  for (const std::string& domain : domains.domains()) {
    if (printable(domain)) out << domain << '\n';
  }
  out << "threshold " << uas.rare_threshold() << '\n';
  uas.for_each_entry([&](const std::string& ua, bool popular,
                                std::span<const std::string_view> hosts) {
    if (ua.find_first_of("\t\n\r") != std::string::npos) return;
    out << (popular ? "P\t" : "R\t") << ua;
    for (const std::string_view host : hosts) out << '\t' << host;
    out << '\n';
  });
  return static_cast<bool>(out);
}

void abort_on(bool failed, const char* what) {
  if (!failed) return;
  std::fprintf(stderr, "bench_state_io: %s failed\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");

  bench::print_header("STATE-IO", "full checkpoint and delta frame persistence");
  std::printf("building corpus...\n");
  const Corpus corpus = build_corpus();
  std::printf("corpus: %zu domains, %zu UAs (host pool %zu)\n",
              corpus.n_domains, corpus.n_uas, corpus.n_hosts);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "eid-bench-state-io";
  std::filesystem::create_directories(dir);
  const auto dump_path = dir / "corpus.lines";
  const auto state_bin = dir / "detector.state";

  // The full checkpoint holds the corpus plus one day's growth, journaled
  // the way a live detector journals it for its next delta frame.
  storage::DetectorState state;
  state.domain_history = corpus.domains;
  state.ua_history = corpus.uas;
  state.domain_history.set_journaling(true);
  state.ua_history.set_journaling(true);
  {
    std::vector<std::string> day_domains;
    for (std::size_t d = 0; d < 300; ++d) {
      day_domains.push_back("fresh-" + std::to_string(d) + ".example.net");
    }
    state.domain_history.update(day_domains);
    util::Rng rng(7);
    for (std::size_t u = 0; u < 800; ++u) {
      const std::string ua = "CorpApp-Delta-" + std::to_string(u) + "/1.0";
      const std::size_t n = 6 + rng.uniform(4);
      for (std::size_t i = 0; i < n; ++i) {
        state.ua_history.observe(ua, "workstation-" +
                                         std::to_string(rng.uniform(400)) +
                                         ".nyc.ad.corp.example.com");
      }
    }
  }
  const std::vector<std::string> new_domains =
      state.domain_history.drain_journal();
  const std::vector<std::string> touched_uas = state.ua_history.drain_journal();

  // Saves run best-of-5: the save-speedup floor asserted below needs
  // stable minima on a loaded machine.
  const double dump_seconds = seconds_of(
      [&] {
        abort_on(!write_line_dump(state.domain_history, state.ua_history,
                                  dump_path),
                 "line dump");
      },
      5);
  const std::size_t dump_bytes = file_bytes(dump_path);
  const double state_save_seconds = seconds_of(
      [&] {
        abort_on(!storage::save_detector_state(state, state_bin),
                 "state save");
      },
      5);
  const std::size_t state_bytes = file_bytes(state_bin);
  std::optional<storage::DetectorState> loaded_state;
  double state_load_seconds = 1e300;
  for (int r = 0; r < 3; ++r) {
    loaded_state.reset();  // teardown stays outside the timed region
    const double s = seconds_of(
        [&] { loaded_state = storage::load_detector_state(state_bin); }, 1);
    abort_on(!loaded_state.has_value(), "state load");
    abort_on(loaded_state->domain_history.size() !=
                     state.domain_history.size() ||
                 loaded_state->ua_history.distinct_uas() !=
                     state.ua_history.distinct_uas(),
             "load consistency check");
    if (s < state_load_seconds) state_load_seconds = s;
  }

  // Delta checkpoint: the same encoder narrowed to the day's growth — new
  // domains, touched UA entries, the always-small absolute sections —
  // appended as a frame instead of rewriting the month-scale state above.
  // This is the daily-save cost a chain deployment actually pays between
  // compactions.
  const auto chain_path = storage::delta_chain_path(state_bin);
  storage::FrameView frame;
  {
    std::ifstream in(state_bin, std::ios::binary);
    const std::string base_file_bytes((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
    abort_on(base_file_bytes.empty(), "base checkpoint read");
    frame.header.base_crc = util::crc32(base_file_bytes);
  }
  frame.header.day = 400;
  frame.new_domains = &new_domains;
  frame.touched_uas = &touched_uas;
  frame.has_cursor = true;
  frame.cursor_day = 400;
  frame.cursor_offset = 1 << 20;
  storage::StateView day = storage::view_of(state);
  day.frame = &frame;

  double delta_save_seconds = 1e300;
  std::size_t delta_frame_bytes = 0;
  for (int r = 0; r < 5; ++r) {
    std::filesystem::remove(chain_path);
    frame.header.seq = 1;
    const double s = seconds_of(
        [&] {
          const std::string payload = storage::encode_state(day);
          delta_frame_bytes = payload.size();
          abort_on(!storage::append_delta_frame(chain_path, payload),
                   "delta append");
          ++frame.header.seq;
        },
        1);
    if (s < delta_save_seconds) delta_save_seconds = s;
  }
  std::filesystem::remove(chain_path);
  const double delta_vs_full_speedup =
      delta_save_seconds > 0 ? state_save_seconds / delta_save_seconds : 0.0;

  const double size_ratio =
      state_bytes > 0 ? static_cast<double>(dump_bytes) /
                            static_cast<double>(state_bytes)
                      : 0.0;
  const double save_speedup =
      state_save_seconds > 0 ? dump_seconds / state_save_seconds : 0.0;

  std::printf("\n%-22s %14s %14s\n", "", "line dump", "checkpoint");
  std::printf("%-22s %14zu %14zu\n", "bytes on disk", dump_bytes, state_bytes);
  std::printf("%-22s %14.3f %14.3f\n", "save seconds", dump_seconds,
              state_save_seconds);
  std::printf("\ncheckpoint is %.2fx smaller, saves %.2fx as fast, loads in "
              "%.3fs\n",
              size_ratio, save_speedup, state_load_seconds);
  std::printf("delta frame (one day): %zu bytes, save %.5fs — %.1fx faster "
              "than the full rewrite\n",
              delta_frame_bytes, delta_save_seconds, delta_vs_full_speedup);

  // Regression floor for the full-checkpoint save, against the raw line
  // dump of the same corpus. 0.42x is where the binary encode of these
  // histories stood when it looked each string up by binary search; fail
  // the bench if the encode regresses back there. (The dump does no sort,
  // dedup, checksum or fsync, so parity is not the bar; not regressing the
  // gap is.)
  constexpr double kMinSaveSpeedup = 0.42;
  if (save_speedup < kMinSaveSpeedup) {
    std::fprintf(stderr,
                 "bench_state_io: checkpoint save regressed: %.3fx the line "
                 "dump's speed (floor %.2fx)\n",
                 save_speedup, kMinSaveSpeedup);
    return 1;
  }
  std::printf("checkpoint save speedup %.2fx >= %.2fx floor: ok\n",
              save_speedup, kMinSaveSpeedup);

  // The whole point of the delta chain is that daily saves stop paying
  // for the month: a day frame must beat the full rewrite by a wide
  // margin, not scrape past it.
  constexpr double kMinDeltaSpeedup = 3.0;
  if (delta_vs_full_speedup < kMinDeltaSpeedup) {
    std::fprintf(stderr,
                 "bench_state_io: delta save only %.2fx faster than the "
                 "full rewrite (floor %.1fx)\n",
                 delta_vs_full_speedup, kMinDeltaSpeedup);
    return 1;
  }
  std::printf("delta save speedup %.2fx >= %.1fx floor: ok\n",
              delta_vs_full_speedup, kMinDeltaSpeedup);

  std::filesystem::remove_all(dir);

  if (!json_path.empty()) {
    std::ostringstream body;
    body.precision(6);
    body << "{\n"
         << "    \"cpu_cores\": " << eid::bench::cpu_cores() << ",\n"
         << "    \"corpus\": {\"domains\": " << corpus.n_domains
         << ", \"uas\": " << corpus.n_uas << ", \"hosts\": " << corpus.n_hosts
         << "},\n"
         << "    \"line_dump\": {\"bytes\": " << dump_bytes
         << ", \"save_seconds\": " << dump_seconds << "},\n"
         << "    \"detector_state\": {\"bytes\": " << state_bytes
         << ", \"save_seconds\": " << state_save_seconds
         << ", \"load_seconds\": " << state_load_seconds << "},\n"
         << "    \"delta_frame_bytes\": " << delta_frame_bytes << ",\n"
         << "    \"delta_save_seconds\": " << delta_save_seconds << ",\n"
         << "    \"delta_vs_full_speedup\": " << delta_vs_full_speedup
         << ",\n"
         << "    \"size_ratio\": " << size_ratio
         << ",\n    \"save_speedup\": " << save_speedup << "\n  }";
    if (eid::bench::write_json_section(json_path, "state_io", body.str())) {
      std::printf("recorded state_io section of %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
