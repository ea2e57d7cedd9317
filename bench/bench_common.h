// Shared scaffolding for the reproduction benches: canonical scenario
// configurations (a consistent scaled-down world across all tables and
// figures) and plain-text table/CDF printers. Each bench binary is
// self-contained and regenerates one table or figure of the paper.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/ac.h"
#include "sim/lanl.h"
#include "util/replace_file.h"

namespace eid::bench {

/// Host core count for the BENCH_perf.json record — timings from a
/// 1-core CI runner and a 16-core workstation are not comparable, so
/// every section stamps the hardware it ran on.
inline unsigned cpu_cores() { return std::thread::hardware_concurrency(); }

/// Parse "--json" / "--json=path" out of argv (removing it); returns the
/// output path ("" when the flag is absent). The default path is relative
/// to the working directory — run the benches from the repo root (or pass
/// --json=/abs/path) so every writer lands in the one tracked
/// BENCH_perf.json instead of forking per-CWD copies.
inline std::string take_json_flag(int& argc, char** argv,
                                  const std::string& default_path) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      path = default_path;
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      if (path.empty()) path = default_path;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[out] = nullptr;  // keep the argv NULL sentinel the C standard promises
  return path;
}

namespace detail {

/// Scan one JSON value starting at `i` (object/array/string/scalar) and
/// return the index one past its end, or std::string::npos on malformed
/// input. Understands string escapes; enough for the files we write.
inline std::size_t skip_json_value(const std::string& text, std::size_t i) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;  // close bracket terminating a bare scalar
      --depth;
      if (depth == 0) return i + 1;
    } else if (depth == 0 && c == ',') {
      return i;  // comma terminating a bare scalar
    }
  }
  return depth == 0 && !in_string ? i : std::string::npos;
}

}  // namespace detail

/// Merge `body` (a JSON value, normally an object) under top-level key
/// `section` of the JSON file at `path`, preserving every other top-level
/// section — so bench_perf_pipeline and bench_throughput_day can share one
/// BENCH_perf.json. On unreadable/malformed existing content the file is
/// rewritten with just this section.
inline bool write_json_section(const std::string& path,
                               const std::string& section,
                               const std::string& body) {
  std::vector<std::pair<std::string, std::string>> sections;
  if (std::ifstream in(path); in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    // Collect existing top-level "key": <value> pairs.
    std::size_t i = text.find('{');
    bool ok = i != std::string::npos;
    while (ok) {
      i = text.find_first_not_of(" \t\r\n,", i + 1);
      if (i == std::string::npos) {
        ok = false;
        break;
      }
      if (text[i] == '}') break;
      if (text[i] != '"') {
        ok = false;
        break;
      }
      // Escape-aware key scan (a key with \" must not truncate early —
      // the rewrite would emit a trailing backslash and corrupt the file).
      std::size_t key_end = std::string::npos;
      for (std::size_t k = i + 1; k < text.size(); ++k) {
        if (text[k] == '\\') {
          ++k;
        } else if (text[k] == '"') {
          key_end = k;
          break;
        }
      }
      const std::size_t colon =
          key_end == std::string::npos ? key_end : text.find(':', key_end);
      if (colon == std::string::npos) {
        ok = false;
        break;
      }
      const std::string key = text.substr(i + 1, key_end - i - 1);
      const std::size_t value_begin =
          text.find_first_not_of(" \t\r\n", colon + 1);
      const std::size_t value_end =
          value_begin == std::string::npos
              ? std::string::npos
              : detail::skip_json_value(text, value_begin);
      if (value_end == std::string::npos) {
        ok = false;
        break;
      }
      sections.emplace_back(key,
                            text.substr(value_begin, value_end - value_begin));
      i = value_end - 1;
    }
    if (!ok) sections.clear();
  }

  bool replaced = false;
  for (auto& [key, value] : sections) {
    if (key == section) {
      value = body;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(section, body);

  // replace_file: a concurrent reader never sees a half-written file (the
  // malformed-content fallback would drop the other benches' sections).
  // Two --json writers at the same instant still race read-modify-write
  // (last rename wins); run the benches sequentially when recording.
  std::string out = "{\n";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    out += "  \"" + sections[s].first + "\": " + sections[s].second +
           (s + 1 < sections.size() ? ",\n" : "\n");
  }
  out += "}\n";
  return util::replace_file(path, out);
}

/// Canonical LANL world for the benches (DNS flavor, ~1000 hosts —
/// scaled from LANL's ~80k; see DESIGN.md §2).
inline sim::LanlConfig lanl_config() {
  sim::LanlConfig config;
  config.seed = 7;
  config.n_hosts = 1000;
  config.n_servers = 12;
  config.n_popular = 400;
  config.tail_per_day = 300;
  config.automated_tail_per_day = 10;
  config.server_tail_per_day = 150;
  return config;
}

/// Canonical AC world for the benches (proxy flavor, ~800 hosts — scaled
/// from the enterprise's >100k).
inline sim::AcConfig ac_config() {
  sim::AcConfig config;
  config.seed = 11;
  config.n_hosts = 800;
  config.n_popular = 400;
  config.tail_per_day = 250;
  config.automated_tail_per_day = 10;
  config.grayware_per_day = 4;
  config.campaigns_per_week = 6.0;
  return config;
}

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

/// Empirical CDF evaluated at the given x grid, printed one row per point.
inline void print_cdf(const std::string& label, std::vector<double> values,
                      const std::vector<double>& grid) {
  std::sort(values.begin(), values.end());
  std::printf("%s (n=%zu)\n", label.c_str(), values.size());
  for (const double x : grid) {
    const auto it = std::upper_bound(values.begin(), values.end(), x);
    const double frac =
        values.empty()
            ? 0.0
            : static_cast<double>(it - values.begin()) / static_cast<double>(values.size());
    std::printf("  x=%10.2f  F(x)=%.4f\n", x, frac);
  }
}

/// Fraction of values <= x.
inline double cdf_at(std::vector<double> values, double x) {
  std::size_t count = 0;
  for (const double v : values) {
    if (v <= x) ++count;
  }
  return values.empty() ? 0.0
                        : static_cast<double>(count) / static_cast<double>(values.size());
}

}  // namespace eid::bench
