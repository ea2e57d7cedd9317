// Daily SOC monitor: the deployment the paper runs in §VI. Trains on one
// month of proxy logs, then emits a daily triage report for the operation
// month — potential C&C domains, the no-hint community expansion, and the
// IOC-seeded expansion — ordered by suspiciousness for analyst review.
//
// This file parses flags (print_usage lists them) and prints; the library
// does the rest. --state resumes through api::Detector::load_state, which
// continues the checkpoint's delta chain; --follow runs rt::follow, the
// live tail (after a restore, with the incidents the chain carried);
// --standby runs rt::standby, the failover loop (rt/standby.h
// has the protocol); --metrics-out and --trace-out are rewritten after
// every day, or every ~2 s while following.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "api/sources.h"
#include "eval/ac_runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/standby.h"
#include "storage/delta.h"
#include "util/strings.h"

namespace {

using namespace eid;

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [days] [tc] [ts] [threads] [shards] [depth] [--state <path>]\n"
      "\n"
      "  days     operation days to monitor (default 7, >= 1)\n"
      "  tc       C&C detection threshold Tc (default 0.4)\n"
      "  ts       similarity threshold Ts (default 0.33)\n"
      "  threads  day-analysis worker threads (default 1, >= 1)\n"
      "  shards   ingest shards (default 1, >= 1)\n"
      "  depth    multi-day pipeline depth: 2 overlaps a day's close with\n"
      "           the next day's ingest (default 1, >= 1)\n"
      "  --state <path>  checkpoint the detector to <path> after each day\n"
      "                  and restore from it on startup when present\n"
      "  --delta-every <n>  compact the delta chain into a fresh full\n"
      "                     checkpoint every n saves; 1 = always save full\n"
      "                     (default 7)\n"
      "\n"
      "failover (see also src/storage/FORMAT.md):\n"
      "  --standby           run as a hot standby: tail the primary's delta\n"
      "                      chain (--state) and take over the --follow tail\n"
      "                      when its heartbeat goes stale\n"
      "  --stale-after <sec> heartbeat age that triggers takeover\n"
      "                      (default 10)\n"
      "\n"
      "real-time continuous mode (replaces the simulated day walk):\n"
      "  --follow <path>     tail a growing DNS-flavor TSV log live\n"
      "  --follow-day <day>  day tag for the tailed file (util::Day number;\n"
      "                      default: first operation day)\n"
      "  --tick <seconds>    micro-batch tick size (default 300; must tile\n"
      "                      the 86400 s day)\n"
      "  --rt-window <sec>   sliding evidence window (default 86400; whole\n"
      "                      number of ticks)\n"
      "  --idle-exit <n>     exit after n consecutive empty polls\n"
      "                      (default 0 = follow forever)\n"
      "  --poll-ms <ms>      sleep between empty polls (default 200)\n"
      "\n"
      "observability:\n"
      "  --metrics-out <path>  keep a Prometheus text snapshot of the\n"
      "                        process metrics at <path> (rewritten per day,\n"
      "                        or every ~2 s in --follow mode)\n"
      "  --trace-out <path>    write pipeline/executor/rt spans as Chrome\n"
      "                        trace-event JSON to <path> (Perfetto-viewable)\n"
      "  --help   this message\n",
      argv0);
}

/// Sim-time point as "YYYY-MM-DD hh:mm:ss" for live emission lines.
std::string format_time(util::TimePoint t) {
  const util::Day day = util::day_of(t);
  const std::int64_t s = t - util::day_start(day);
  char clock[16];
  std::snprintf(clock, sizeof(clock), " %02lld:%02lld:%02lld",
                static_cast<long long>(s / 3600),
                static_cast<long long>((s / 60) % 60),
                static_cast<long long>(s % 60));
  return util::format_day(day) + clock;
}

template <typename Int>
bool parse_int_arg(const char* text, int min_value, Int& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end &&
         out >= static_cast<Int>(min_value);
}

bool parse_double_arg(const char* text, double& out) {
  // strtod (from_chars<double> availability varies); require full consume.
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end == text + std::strlen(text) && end != text;
}

void print_emission(const rt::IncidentEmission& emission) {
  std::printf("[%s] %s incident #%d (%s): latency %llds  domains=[%s]"
              "  hosts=[%s]\n",
              format_time(emission.emission_time).c_str(),
              emission.provisional ? "PROVISIONAL" : "FINAL",
              emission.incident_id, emission.new_incident ? "new" : "grew",
              static_cast<long long>(emission.latency_seconds),
              util::join(emission.domains, ", ").c_str(),
              util::join(emission.hosts, ", ").c_str());
  std::fflush(stdout);
}

void print_day_closed(const core::DayReport& report) {
  std::printf("[%s] day closed: events=%zu cc=%zu nohint=%zu "
              "sochints=%zu (authoritative report, bit-identical to "
              "batch run_day)\n",
              util::format_day(report.day).c_str(), report.events,
              report.cc_domains.size(), report.nohint.domains.size(),
              report.sochints.domains.size());
  std::fflush(stdout);
}

/// Exit status and closing summary of a live tail.
int finish_follow(const rt::FollowResult& result,
                  const std::filesystem::path& state_path) {
  if (!result.ok) return 1;
  if (result.already_closed) return 0;
  const rt::EngineStats& stats = result.stats;
  std::printf("\nfollow stats: %zu events in %zu chunks, %zu ticks closed "
              "(%zu evaluated), %zu day(s) closed, %zu provisional + %zu "
              "finalized emission(s), peak buffer %zu raw events "
              "(cursor at byte %llu, %zu rotation(s), %zu transient "
              "error(s))\n",
              stats.events, stats.chunks, stats.ticks_closed,
              stats.evaluations, stats.days_closed,
              stats.provisional_emissions, stats.finalized_emissions,
              stats.peak_buffered_events,
              static_cast<unsigned long long>(result.source.byte_offset),
              result.source.rotations, result.source.transient_errors);
  std::printf("window cache: %zu buckets sealed, %zu partial absorbs, "
              "%zu merge extends, %zu rebuilds, %zu cached events at "
              "exit\n",
              stats.buckets_sealed, stats.partial_absorbs,
              stats.window_merge_extends, stats.window_merge_rebuilds,
              stats.cached_partial_events);
  if (result.saved) {
    std::printf("[checkpoint] state saved to %s\n", state_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int days = 7;
  double tc = 0.4;
  double ts = 0.33;
  int threads = 1;
  int shards = 1;
  int depth = 1;
  rt::FollowConfig follow;  // --state, --follow and the live-tail flags
  std::string metrics_path;
  std::string trace_path;
  bool standby = false;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(arg, "--standby") == 0) {
      standby = true;
      continue;
    }
    // Each returns 0 when `arg` is not its flag, -1 on a bad value.
    const auto path_flag = [&](const char* name, auto& out) -> int {
      if (std::strcmp(arg, name) != 0) return 0;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a path\n", name);
        print_usage(argv[0]);
        return -1;
      }
      out = argv[++i];
      return 1;
    };
    const auto int_flag = [&](const char* name, int min_value,
                              auto& out) -> int {
      if (std::strcmp(arg, name) != 0) return 0;
      if (i + 1 >= argc || !parse_int_arg(argv[++i], min_value, out)) {
        std::fprintf(stderr, "error: %s needs an integer >= %d\n", name,
                     min_value);
        return -1;
      }
      return 1;
    };
    int matched = 0;
    if ((matched = path_flag("--state", follow.state_path)) != 0 ||
        (matched = path_flag("--follow", follow.log_path)) != 0 ||
        (matched = path_flag("--metrics-out", metrics_path)) != 0 ||
        (matched = path_flag("--trace-out", trace_path)) != 0 ||
        (matched = int_flag("--follow-day", 1, follow.day)) != 0 ||
        (matched = int_flag("--tick", 1, follow.tick_seconds)) != 0 ||
        (matched = int_flag("--rt-window", 1, follow.window_seconds)) != 0 ||
        (matched = int_flag("--idle-exit", 1, follow.idle_exit)) != 0 ||
        (matched = int_flag("--poll-ms", 1, follow.poll_ms)) != 0 ||
        (matched = int_flag("--delta-every", 1, follow.delta_every)) != 0 ||
        (matched = int_flag("--stale-after", 1,
                            follow.stale_after_seconds)) != 0) {
      if (matched < 0) return 1;
      continue;
    }
    bool ok = true;
    switch (positional++) {
      case 0: ok = parse_int_arg(arg, 1, days); break;
      case 1: ok = parse_double_arg(arg, tc); break;
      case 2: ok = parse_double_arg(arg, ts); break;
      case 3: ok = parse_int_arg(arg, 1, threads); break;
      case 4: ok = parse_int_arg(arg, 1, shards); break;
      case 5: ok = parse_int_arg(arg, 1, depth); break;
      default: ok = false; break;
    }
    if (!ok) {
      std::fprintf(stderr, "error: bad argument \"%s\"\n", arg);
      print_usage(argv[0]);
      return 1;
    }
  }
  const std::filesystem::path& state_path = follow.state_path;

  // Observability sinks, live for the whole process so training, the day
  // walk and --follow all land in one timeline.
  obs::TraceSink trace_sink;
  if (!trace_path.empty()) api::Detector::set_trace_sink(&trace_sink);
  const auto flush_observability = [&] {
    if (!metrics_path.empty() &&
        !obs::write_prometheus(metrics_path, obs::metrics().snapshot())) {
      std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                   metrics_path.c_str());
    }
    if (!trace_path.empty() && !trace_sink.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "warning: cannot write trace to %s\n",
                   trace_path.c_str());
    }
  };

  sim::AcConfig world;
  world.n_hosts = 400;
  world.n_popular = 200;
  world.tail_per_day = 120;
  world.automated_tail_per_day = 6;
  world.grayware_per_day = 2;
  world.campaigns_per_week = 5.0;
  sim::AcScenario scenario(world);

  eval::AcRunnerConfig runner_config;
  runner_config.pipeline.cc_threshold = tc;
  runner_config.pipeline.sim_threshold = ts;
  runner_config.pipeline.parallelism =
      core::Parallelism{static_cast<std::size_t>(threads),
                        static_cast<std::size_t>(shards),
                        static_cast<std::size_t>(depth)};
  std::optional<eval::AcRunner> runner(std::in_place, scenario, runner_config);
  std::printf(
      "day-analysis engine: %d thread(s), %d ingest shard(s), pipeline "
      "depth %d\n",
      threads, shards, depth);

  rt::FollowHooks hooks;
  hooks.emission = print_emission;
  hooks.day = print_day_closed;
  hooks.flush = flush_observability;
  hooks.log = [](const std::string& line, bool warning) {
    std::fprintf(warning ? stderr : stdout, "%s\n", line.c_str());
    std::fflush(stdout);
  };
  core::SocSeeds seeds;
  seeds.domains = scenario.ioc_seeds();

  if (standby) {
    if (state_path.empty() || follow.log_path.empty()) {
      std::fprintf(stderr, "error: --standby requires --state and --follow\n");
      return 1;
    }
    const std::optional<rt::FollowResult> result =
        rt::standby(runner->detector(), follow, scenario.operation_begin(),
                    seeds, hooks);
    return result ? finish_follow(*result, state_path) : 0;
  }

  bool restored = false;
  std::optional<core::IncidentStore> resumed_incidents;
  if (!state_path.empty()) {
    storage::LoadStatus status;
    storage::ChainLoadReport chain;
    api::Detector& loaded = runner->detector();
    if (!loaded.load_state(state_path, &chain, &status)) {
      if (status.error != storage::LoadError::FileNotFound) {
        std::fprintf(stderr, "error: cannot restore %s: %s — %s\n",
                     state_path.c_str(), storage::load_error_name(status.error),
                     status.detail.c_str());
        return 1;
      }
    } else if (!loaded.pipeline().models_ready()) {
      // A snapshot taken before finalize_training() cannot be resumed by
      // this monitor (its histories plus retraining would double-ingest
      // January): start over from a fresh detector.
      std::fprintf(stderr,
                   "warning: %s holds an untrained checkpoint — ignoring it "
                   "and training from scratch\n",
                   state_path.c_str());
      runner.emplace(scenario, runner_config);
    } else {
      restored = true;
      resumed_incidents = rt::take_chain_incidents(chain);
      const core::Pipeline& pipeline = loaded.pipeline();
      std::printf("restored checkpoint %s (+%zu delta frame(s)): %zu known "
                  "domain(s), %zu UA(s), %zu operation day(s) completed, "
                  "models trained\n",
                  state_path.c_str(), chain.frames_applied,
                  pipeline.domain_history().size(),
                  pipeline.ua_history().distinct_uas(),
                  loaded.days_operated());
      if (chain.degraded) {
        std::fprintf(stderr,
                     "warning: delta chain degraded (%zu frame(s) dropped): "
                     "%s — resuming from the last good state\n",
                     chain.frames_dropped, chain.detail.c_str());
      }
      // The checkpoint restores the config it was saved with; the operator
      // asked for these thresholds and parallelism on THIS invocation, so
      // re-apply them (the printed Tc/Ts/threads labels must stay truthful).
      core::PipelineConfig config = pipeline.config();
      config.cc_threshold = tc;
      config.sim_threshold = ts;
      config.parallelism = runner_config.pipeline.parallelism;
      loaded.pipeline().set_config(config);
    }
  }
  api::Detector& detector = runner->detector();

  if (restored) {
    std::printf("checkpointed models are trained; skipping January training\n");
  } else {
    std::printf("training on January (profiling + regression)...\n");
    const core::TrainingReport training = runner->train();
    std::printf("C&C model: %zu rows, %zu reported, R^2=%.2f\n",
                training.cc_rows, training.cc_positive,
                training.cc_model.r_squared);
  }

  detector.set_intel_domains(seeds.domains);
  std::printf("SOC IOC list: %zu domains\n", seeds.domains.size());

  if (!follow.log_path.empty()) {
    return finish_follow(
        rt::follow(detector, follow, scenario.operation_begin(), seeds, hooks,
                   resumed_incidents ? &*resumed_incidents : nullptr),
        state_path);
  }

  // Resume where the checkpoint stopped: days the restored detector already
  // completed are not re-ingested (re-running them would double-count the
  // history updates).
  const util::Day first = detector.first_open_day(scenario.operation_begin());
  const util::Day last =
      std::min<util::Day>(scenario.operation_end(), first + days - 1);
  if (first > scenario.operation_end()) {
    std::printf("checkpoint already covers the whole operation month — "
                "nothing to monitor\n");
    return 0;
  }
  if (restored && first > scenario.training_begin()) {
    // The simulator's day generation depends on cross-day state (WHOIS
    // registry, DHCP leases), so a resumed process fast-forwards it over
    // everything the checkpointed run already consumed — training month
    // included — without ingesting; only then does today's traffic match
    // what the uninterrupted run would have produced.
    std::printf("fast-forwarding simulator to %s...\n",
                util::format_day(first).c_str());
    for (util::Day day = scenario.training_begin(); day < first; ++day) {
      scenario.simulator().reduced_day(day);
    }
  }
  for (util::Day day = first; day <= last; ++day) {
    api::SimSource source(scenario.simulator(), day, day);
    const core::DayReport report = detector.run_day(source, day, seeds);

    std::printf("\n================ %s ================\n",
                util::format_day(day).c_str());
    std::printf("hosts=%zu domains=%zu rare=%zu automated_pairs=%zu\n",
                report.hosts, report.domains, report.rare_domains,
                report.automated_pairs);

    std::printf("\n[1] potential C&C (Tc=%.2f): %zu domain(s)\n", tc,
                report.cc_domains.size());
    for (const auto& det : report.cc_domains) {
      std::printf("    %-30s score=%.2f period=%.0fs hosts=%zu\n",
                  det.name.c_str(), det.score, det.period, det.auto_hosts);
    }

    std::printf("[2] no-hint expansion (Ts=%.2f): %zu more domain(s), "
                "%zu host(s) implicated\n",
                ts, report.nohint.domains.size(), report.nohint.hosts.size());
    for (const auto& det : report.nohint.domains) {
      std::printf("    %-30s iter=%zu via %s score=%.2f\n", det.name.c_str(),
                  det.iteration, core::label_reason_name(det.reason), det.score);
    }

    std::printf("[3] IOC-seeded expansion: %zu domain(s)\n",
                report.sochints.domains.size());
    for (const auto& det : report.sochints.domains) {
      std::printf("    %-30s iter=%zu via %s score=%.2f\n", det.name.c_str(),
                  det.iteration, core::label_reason_name(det.reason), det.score);
    }

    if (!state_path.empty()) {
      storage::LoadStatus status;
      if (rt::save_checkpoint(detector, state_path, {follow.delta_every},
                              &status)) {
        std::printf("[checkpoint] state saved to %s (delta chain, full "
                    "rewrite every %zu)\n",
                    state_path.c_str(), follow.delta_every);
      } else {
        std::fprintf(stderr, "warning: checkpoint failed: %s — %s\n",
                     storage::load_error_name(status.error),
                     status.detail.c_str());
      }
    }
    flush_observability();
  }
  std::printf("\nmonitoring complete. (Ground truth lives in the scenario — "
              "in production these reports go to the SOC for manual "
              "investigation, §VI-B.)\n");
  const api::HealthSnapshot health = detector.health_snapshot();
  std::printf("health: %zu day(s) operated, %llu event(s) ingested, "
              "executor %zu worker(s)\n",
              health.days_operated,
              static_cast<unsigned long long>(health.events_ingested),
              health.executor_workers);
  flush_observability();
  return 0;
}
