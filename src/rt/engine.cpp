#include "rt/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "graph/day_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eid::rt {

namespace {

/// Real-time loop health on the process registry: how long a tick's
/// re-score takes (wall), how far behind detection runs in sim time
/// (event -> emission), and how much the sliding window is holding.
struct RtMetrics {
  obs::Counter& ticks = obs::metrics().counter("eid_rt_ticks_closed_total");
  obs::Counter& evaluations = obs::metrics().counter("eid_rt_evaluations_total");
  obs::Counter& days_closed = obs::metrics().counter("eid_rt_days_closed_total");
  obs::Counter& provisional =
      obs::metrics().counter("eid_rt_provisional_emissions_total");
  obs::Counter& finalized =
      obs::metrics().counter("eid_rt_finalized_emissions_total");
  obs::Gauge& backlog = obs::metrics().gauge("eid_rt_poll_backlog_events");
  obs::Gauge& window_buckets = obs::metrics().gauge("eid_rt_window_buckets");
  obs::Gauge& last_tick = obs::metrics().gauge("eid_rt_last_tick_seconds");
  // Incremental window-merge cache health (rt/window.h CacheStats).
  obs::Counter& buckets_sealed =
      obs::metrics().counter("eid_rt_buckets_sealed_total");
  obs::Counter& partial_absorbs =
      obs::metrics().counter("eid_rt_partial_absorbs_total");
  obs::Counter& merge_extends =
      obs::metrics().counter("eid_rt_window_merge_extends_total");
  obs::Counter& merge_rebuilds =
      obs::metrics().counter("eid_rt_window_merge_rebuilds_total");
  obs::Gauge& cached_events =
      obs::metrics().gauge("eid_rt_cached_partial_events");
  obs::Histogram& tick_seconds = obs::metrics().histogram(
      "eid_rt_tick_seconds", obs::duration_buckets());
  obs::Histogram& emission_latency = obs::metrics().histogram(
      "eid_rt_emission_latency_seconds", obs::latency_buckets());
};

RtMetrics& rt_metrics() {
  static RtMetrics metrics;
  return metrics;
}

// Earliest first-contact timestamp of the named domains in the analyzed
// graph — the event time of the evidence behind an emission. 0 when none
// of the names appear (empty evidence).
util::TimePoint earliest_contact(const core::DayAnalysis& analysis,
                                 std::span<const std::string> names) {
  util::TimePoint earliest = 0;
  for (const auto& name : names) {
    const graph::DomainId domain = analysis.graph.find_domain(name);
    if (domain == graph::kNoId) continue;
    for (const graph::HostId host : analysis.graph.domain_hosts(domain)) {
      const auto contact = analysis.graph.first_contact(host, domain);
      if (!contact) continue;
      if (earliest == 0 || *contact < earliest) earliest = *contact;
    }
  }
  return earliest;
}

}  // namespace

LatencySummary summarize_latency(std::span<const IncidentEmission> emissions,
                                 bool provisional_only) {
  std::vector<double> latencies;
  latencies.reserve(emissions.size());
  for (const auto& emission : emissions) {
    if (provisional_only && !emission.provisional) continue;
    latencies.push_back(static_cast<double>(emission.latency_seconds));
  }
  LatencySummary summary;
  summary.count = latencies.size();
  if (latencies.empty()) return summary;
  std::sort(latencies.begin(), latencies.end());
  const auto rank = [&](double q) {
    const double n = static_cast<double>(latencies.size());
    const auto idx = static_cast<std::size_t>(
        std::max(0.0, std::ceil(q * n) - 1.0));
    return latencies[std::min(idx, latencies.size() - 1)];
  };
  summary.p50_seconds = rank(0.50);
  summary.p99_seconds = rank(0.99);
  summary.max_seconds = latencies.back();
  return summary;
}

ContinuousEngine::ContinuousEngine(api::Detector& detector, SimClock& clock,
                                   EngineConfig config)
    : detector_(detector),
      clock_(clock),
      config_(std::move(config)),
      window_(config_.window) {
  assert(config_.window.valid());
  if (config_.window.incremental) {
    // Pin the partial shard count now: partials absorb into each other, so
    // they must all share one geometry even if set_parallelism retunes the
    // pipeline mid-run (finalized bytes are shard-count-invariant, so a
    // pinned count is a pure performance choice, never a drift).
    core::Pipeline& pipeline = detector_.pipeline();
    const std::size_t shards =
        std::max<std::size_t>(pipeline.config().parallelism.shards, 1);
    window_.set_partial_factory(
        [&pipeline, shards] { return pipeline.make_ingest_graph(shards); });
  }
}

ContinuousEngine::~ContinuousEngine() {
  if (!pending_close_) return;
  try {
    // The day was closed; its history commit must land even on abandon.
    commit_close();
  } catch (...) {
    // A failed close cannot propagate from a destructor; the report it
    // would have produced is dropped.
  }
}

std::size_t ContinuousEngine::poll(api::EventSource& source) {
  // A mid-poll day boundary submits an async close that would overlap the
  // remaining pulls of this loop — only allowed when the source tolerates
  // that (see EventSource::concurrent_pull_safe).
  pull_overlap_safe_ = source.concurrent_pull_safe();
  std::size_t consumed = 0;
  while (auto chunk = source.next_chunk()) {
    ++stats_.chunks;
    // Chunk day tags are non-decreasing and contiguous per day (the
    // EventSource contract), so a tag change is the day boundary — the
    // same trigger Detector::ingest uses.
    if (open_day_ && *open_day_ != chunk->day) close_day();
    if (!open_day_) open_day_ = chunk->day;
    for (const logs::ConnEvent& event : chunk->events) {
      clock_.observe(event.ts);
      roll_to(config_.window.tick_of(clock_.now()));
      window_.append(event, current_tick_, *open_day_);
      dirty_ = true;
      ++stats_.events;
      ++consumed;
    }
    stats_.buffered_events = window_.buffered_events();
    stats_.peak_buffered_events =
        std::max(stats_.peak_buffered_events, stats_.buffered_events);
  }
  RtMetrics& metrics = rt_metrics();
  metrics.backlog.set(static_cast<double>(window_.buffered_events()));
  metrics.window_buckets.set(static_cast<double>(window_.bucket_count()));
  return consumed;
}

void ContinuousEngine::advance() {
  roll_to(config_.window.tick_of(clock_.now()));
}

void ContinuousEngine::finish() {
  if (open_day_) close_day();
  commit_close();
}

ContinuousReport ContinuousEngine::run(api::EventSource& source) {
  poll(source);
  finish();
  return take_report();
}

ContinuousReport ContinuousEngine::take_report() {
  commit_close();
  stats_.buffered_events = window_.buffered_events();
  stats_.cached_partial_events = window_.cached_events();
  ContinuousReport report;
  report.days = std::move(day_reports_);
  report.emissions = std::move(emissions_);
  report.stats = stats_;
  report.tick_eval_seconds = std::move(tick_eval_seconds_);
  day_reports_.clear();
  emissions_.clear();
  tick_eval_seconds_.clear();
  return report;
}

void ContinuousEngine::roll_to(std::int64_t tick) {
  if (!have_tick_) {
    have_tick_ = true;
    current_tick_ = tick;
    return;
  }
  // Sim time is monotonic, so ticks only close forward. Each boundary
  // crossed gets its evaluation; after the first one clears the dirty
  // flag, the rest of a long quiet gap is just expiry bookkeeping.
  while (current_tick_ < tick) {
    evaluate_tick(current_tick_);
    ++current_tick_;
  }
}

void ContinuousEngine::evaluate_tick(std::int64_t tick) {
  // Apply any in-flight day close first: its history update must be
  // visible to this evaluation's finish_day, and its finalized emission
  // must precede this tick's provisional one — the sequential order.
  commit_close();
  RtMetrics& metrics = rt_metrics();
  ++stats_.ticks_closed;
  metrics.ticks.add(1);
  stats_.expired_events += window_.expire(tick);
  stats_.buffered_events = window_.buffered_events();
  if (!dirty_) return;  // nothing new since the last evaluation
  if (window_.window_events(tick) == 0) {
    dirty_ = false;
    return;
  }
  ++stats_.evaluations;
  metrics.evaluations.add(1);
  // The span's seconds also feed the report's per-tick cost distribution
  // (tick_eval_seconds), whether or not metrics are enabled.
  obs::TraceSpan span("rt_tick_evaluate", metrics.tick_seconds, "rt");

  // Re-score the sliding window through the exact batch stages, then C&C
  // detection and (optionally) no-hint BP for community expansion. The
  // window's evidence graph comes from one of two bit-identical paths:
  // incremental — merge the cached per-bucket partials (only newly sealed
  // buckets absorb when the window front is unchanged) and snapshot-
  // finalize, O(new events) per tick; rebuild — replay the live buckets'
  // raw events (arrival order) into a DayAccumulator, O(window).
  core::Pipeline& pipeline = detector_.pipeline();
  const util::TimePoint close = config_.window.tick_end(tick);
  const util::Day day = util::day_of(close - 1);
  core::DayAnalysis analysis;
  if (config_.window.incremental) {
    const WindowAccumulator::MergeView view = window_.merge_window(tick);
    assert(view.graph != nullptr);  // window_events(tick) > 0 above
    view.graph->finalize_snapshot_into(snapshot_scratch_,
                                       pipeline.config().parallelism.threads,
                                       view.snapshot_cache);
    analysis = pipeline.finish_day_graph(day, std::move(snapshot_scratch_),
                                         view.events);
    sync_cache_stats();
  } else {
    core::DayAccumulator accumulator = pipeline.begin_day(day);
    window_.for_each_window_chunk(
        tick, [&accumulator](std::span<const logs::ConnEvent> events) {
          accumulator.add_chunk(events);
        });
    analysis = pipeline.finish_day(std::move(accumulator));
  }

  const std::vector<core::ScoredDomain> cc = pipeline.detect_cc(analysis);
  std::vector<std::string> domains;
  domains.reserve(cc.size());
  for (const auto& scored : cc) domains.push_back(scored.name);
  std::vector<std::string> hosts;
  if (config_.provisional_bp && !cc.empty()) {
    const core::BpRunReport bp = pipeline.run_bp_nohint(analysis, cc);
    for (const auto& detected : bp.domains) domains.push_back(detected.name);
    hosts = bp.hosts;
  }
  emit(analysis, domains, hosts, /*provisional=*/true, close, day);
  if (config_.window.incremental) {
    // Reclaim the snapshot's allocations for the next tick (`analysis` is
    // done — nothing below reads it).
    snapshot_scratch_ = std::move(analysis.graph);
  }
  dirty_ = false;
  const double seconds = span.stop();
  tick_eval_seconds_.push_back(seconds);
  stats_.buffered_events = window_.buffered_events();
  stats_.cached_partial_events = window_.cached_events();
  if (obs::metrics().enabled()) {
    metrics.last_tick.set(seconds);
    metrics.backlog.set(static_cast<double>(window_.buffered_events()));
    metrics.cached_events.set(static_cast<double>(window_.cached_events()));
  }
}

void ContinuousEngine::sync_cache_stats() {
  const WindowAccumulator::CacheStats& cache = window_.cache_stats();
  RtMetrics& metrics = rt_metrics();
  metrics.buckets_sealed.add(cache.buckets_sealed - stats_.buckets_sealed);
  metrics.partial_absorbs.add(cache.partial_absorbs - stats_.partial_absorbs);
  metrics.merge_extends.add(cache.merge_extends - stats_.window_merge_extends);
  metrics.merge_rebuilds.add(cache.merge_rebuilds -
                             stats_.window_merge_rebuilds);
  stats_.buckets_sealed = cache.buckets_sealed;
  stats_.partial_absorbs = cache.partial_absorbs;
  stats_.window_merge_extends = cache.merge_extends;
  stats_.window_merge_rebuilds = cache.merge_rebuilds;
}

void ContinuousEngine::close_day() {
  assert(open_day_);
  commit_close();  // at most one close in flight
  const obs::TraceSpan span("rt_day_close", "rt");
  const util::Day day = *open_day_;
  core::Pipeline& pipeline = detector_.pipeline();

  // Assemble the day's evidence in arrival order — the same event sequence
  // the batch path would consume, so by the chunking-independence contract
  // the report and history update are bit-identical to run_day. The
  // assembly stays synchronous (it reads the window buckets, released just
  // below; the incremental merge owns absorbed copies, so expiry cannot
  // pull state out from under the task); the expensive finalize + report
  // compute may run on the worker pool.
  PendingClose close;
  close.day = day;
  close.analysis = std::make_shared<core::DayAnalysis>();
  close.report = std::make_shared<core::DayReport>();
  std::function<void()> task;
  if (config_.window.incremental) {
    // Merge the day's sealed partials (sealing the tail bucket no
    // evaluation covered yet) instead of re-ingesting the day's events.
    std::size_t day_events = 0;
    auto merged = std::make_shared<graph::DayGraph>(
        window_.merge_day(day, day_events));
    sync_cache_stats();
    task = [&pipeline, seeds = &config_.seeds, merged, day, day_events,
            analysis = close.analysis, report = close.report] {
      *analysis =
          pipeline.finish_day_graph(day, std::move(*merged), day_events);
      *report = pipeline.report_day(*analysis, *seeds);
    };
  } else {
    core::DayAccumulator accumulator = pipeline.begin_day(day);
    window_.for_each_day_chunk(
        day, [&accumulator](std::span<const logs::ConnEvent> events) {
          accumulator.add_chunk(events);
        });
    task = [&pipeline, seeds = &config_.seeds,
            acc = std::make_shared<core::DayAccumulator>(std::move(accumulator)),
            analysis = close.analysis, report = close.report] {
      *analysis = pipeline.finish_day(std::move(*acc));
      *report = pipeline.report_day(*analysis, *seeds);
    };
  }
  util::Executor* executor = pipeline.executor();
  const bool pipelined = executor != nullptr && pull_overlap_safe_ &&
                         pipeline.config().parallelism.pipeline_depth > 1;
  if (pipelined) {
    close.handle = executor->submit(std::move(task));
  } else {
    task();
  }
  pending_close_ = std::move(close);

  window_.close_day(day);
  open_day_.reset();
  // Histories change when the close commits, so the next tick must
  // re-score even if no new events arrive before it closes. "Held" means
  // raw or sealed-partial events — incremental mode releases raw storage.
  dirty_ = window_.buffered_events() + window_.cached_events() > 0;
  // Sequential configurations commit right here — identical observable
  // order to the pre-pipelined engine. Pipelined ones commit at the next
  // join point, overlapped with the next day's ingestion.
  if (!pipelined) commit_close();
}

void ContinuousEngine::commit_close() {
  if (!pending_close_) return;
  const obs::TraceSpan span("rt_day_commit", "rt");
  PendingClose close = std::move(*pending_close_);
  pending_close_.reset();
  close.handle.wait();  // rethrows anything the compute half threw

  core::Pipeline& pipeline = detector_.pipeline();
  const core::DayAnalysis& analysis = *close.analysis;
  core::DayReport& report = *close.report;
  pipeline.update_histories(analysis.graph);
  ++detector_.days_operated_;
  ++stats_.days_closed;
  rt_metrics().days_closed.add(1);

  std::vector<std::string> domains;
  for (const auto& scored : report.cc_domains) domains.push_back(scored.name);
  for (const auto& detected : report.nohint.domains)
    domains.push_back(detected.name);
  for (const auto& detected : report.sochints.domains)
    domains.push_back(detected.name);
  std::set<std::string> host_set(report.nohint.hosts.begin(),
                                 report.nohint.hosts.end());
  host_set.insert(report.sochints.hosts.begin(), report.sochints.hosts.end());
  const std::vector<std::string> hosts(host_set.begin(), host_set.end());
  emit(analysis, domains, hosts, /*provisional=*/false,
       util::day_start(close.day + 1), close.day);

  if (day_sink_) day_sink_(report);
  day_reports_.push_back(std::move(report));
}

void ContinuousEngine::emit(const core::DayAnalysis& analysis,
                            const std::vector<std::string>& domains,
                            const std::vector<std::string>& hosts,
                            bool provisional, util::TimePoint emission_time,
                            util::Day day) {
  if (domains.empty() && hosts.empty()) return;

  std::vector<std::string> fresh;
  for (const auto& name : domains) {
    if (!emitted_domains_.contains(name)) fresh.push_back(name);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  // Provisional evaluations announce only novelty; re-detections of
  // already-emitted domains wait for the authoritative day close, which
  // always refreshes the incident store (campaign recurrence tracking).
  if (provisional && fresh.empty()) return;

  const util::TimePoint event_time =
      earliest_contact(analysis, fresh.empty() ? domains : fresh);
  const bool grew = incidents_.touches(domains, hosts);
  const int incident_id =
      incidents_.ingest_community(day, domains, hosts, event_time);
  emitted_domains_.insert(fresh.begin(), fresh.end());
  if (fresh.empty()) return;  // finalized refresh of a known incident

  IncidentEmission emission;
  emission.incident_id = incident_id;
  emission.provisional = provisional;
  emission.new_incident = !grew;
  emission.day = day;
  emission.event_time = event_time;
  emission.emission_time = emission_time;
  emission.latency_seconds =
      event_time == 0 ? 0 : emission_time - event_time;
  emission.domains = std::move(fresh);
  emission.hosts = hosts;
  RtMetrics& metrics = rt_metrics();
  if (provisional) {
    ++stats_.provisional_emissions;
    metrics.provisional.add(1);
  } else {
    ++stats_.finalized_emissions;
    metrics.finalized.add(1);
  }
  metrics.emission_latency.observe(
      static_cast<double>(emission.latency_seconds));
  if (emission_sink_) emission_sink_(emission);
  emissions_.push_back(std::move(emission));
}

}  // namespace eid::rt

namespace eid::api {

rt::ContinuousReport Detector::run_continuous(EventSource& source,
                                              const rt::EngineConfig& config,
                                              rt::SimClock* clock) {
  rt::ReplayClock replay;
  rt::SimClock& driver = clock ? *clock : static_cast<rt::SimClock&>(replay);
  rt::ContinuousEngine engine(*this, driver, config);
  return engine.run(source);
}

}  // namespace eid::api
