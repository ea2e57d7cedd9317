#include "api/detector.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <tuple>
#include <utility>
#include <vector>

#include "features/cc_features.h"
#include "features/similarity_features.h"
#include "storage/delta.h"
#include "storage/state.h"
#include "util/executor.h"

namespace eid::api {

namespace {

/// One-in-flight day-commit slot behind the pipelined multi-day verbs.
/// run() first drains the previous commit — commits execute strictly in
/// day order, which is what keeps every history update and training row
/// bit-identical to the sequential loop — then hands the new one to the
/// pool, so the caller returns to ingesting the next day immediately.
/// Sequential configurations (no executor, or pipeline_depth == 1) run
/// each commit inline.
class DayCommitQueue {
 public:
  DayCommitQueue(util::Executor* executor, std::size_t depth)
      : executor_(depth > 1 ? executor : nullptr) {}

  /// Unwinding mid-stream (a throwing source or commit) must not leave a
  /// task referencing the pipeline in flight; its error, if any, is
  /// already propagating.
  ~DayCommitQueue() {
    try {
      drain();
    } catch (...) {
    }
  }

  void run(std::function<void()> commit) {
    if (executor_ == nullptr) {
      commit();
      return;
    }
    drain();
    pending_ = executor_->submit(std::move(commit));
  }

  /// Wait for the in-flight commit; rethrows anything it threw.
  void drain() { pending_.wait(); }

 private:
  util::Executor* executor_ = nullptr;
  util::Executor::TaskHandle pending_;
};

}  // namespace

IngestReport Detector::ingest(EventSource& source) {
  IngestReport report;
  bool open = false;
  util::Day current = 0;
  DayCommitQueue commits(pipeline_.executor(),
                         source.concurrent_pull_safe()
                             ? pipeline_.config().parallelism.pipeline_depth
                             : 1);
  core::ProfileAccumulator accumulator = pipeline_.begin_profile();
  const auto finish = [&] {
    // The accumulator moves into the task; day N's history commit runs
    // while day N+1 collects into a fresh one.
    auto done =
        std::make_shared<core::ProfileAccumulator>(std::move(accumulator));
    commits.run([this, done] { pipeline_.finish_profile(std::move(*done)); });
    ++report.days;
  };
  while (auto chunk = source.next_chunk()) {
    if (open && chunk->day != current) {
      finish();
      accumulator = pipeline_.begin_profile();
    }
    open = true;
    current = chunk->day;
    accumulator.add_chunk(chunk->events);
    ++report.chunks;
    report.events += chunk->events.size();
  }
  if (open) finish();
  commits.drain();
  return report;
}

IngestReport Detector::ingest(EventSource& source, const core::LabelFn& intel) {
  return analyze_days(
      source, [this, &intel](util::Day, const core::DayAnalysis& analysis) {
        pipeline_.train_from_analysis(analysis, intel);
      });
}

IngestReport Detector::analyze_days(EventSource& source,
                                    const DayAnalysisFn& commit) {
  IngestReport report;
  std::optional<core::DayAccumulator> accumulator;
  DayCommitQueue commits(pipeline_.executor(),
                         source.concurrent_pull_safe()
                             ? pipeline_.config().parallelism.pipeline_depth
                             : 1);
  const auto finish = [&] {
    auto day_acc =
        std::make_shared<core::DayAccumulator>(std::move(*accumulator));
    commits.run([this, &commit, day_acc] {
      const core::DayAnalysis analysis =
          pipeline_.finish_day(std::move(*day_acc));
      commit(analysis.day, analysis);
      pipeline_.update_histories(analysis.graph);
    });
    ++report.days;
  };
  while (auto chunk = source.next_chunk()) {
    if (accumulator && accumulator->day() != chunk->day) {
      finish();
      accumulator.reset();
    }
    if (!accumulator) accumulator.emplace(pipeline_.begin_day(chunk->day));
    accumulator->add_chunk(chunk->events);
    ++report.chunks;
    report.events += chunk->events.size();
  }
  if (accumulator) finish();
  commits.drain();
  return report;
}

std::vector<core::DayReport> Detector::run_days(EventSource& source,
                                                const core::SocSeeds& seeds) {
  std::vector<core::DayReport> reports;
  analyze_days(source,
               [&](util::Day, const core::DayAnalysis& analysis) {
                 reports.push_back(pipeline_.report_day(analysis, seeds));
                 ++days_operated_;
               });
  return reports;
}

core::DayAnalysis Detector::analyze_stream(EventSource& source,
                                           util::Day day) const {
  core::DayAccumulator accumulator = pipeline_.begin_day(day);
  while (auto chunk = source.next_chunk()) {
    accumulator.add_chunk(chunk->events);
  }
  return pipeline_.finish_day(std::move(accumulator));
}

core::DayReport Detector::run_day(EventSource& source, util::Day day,
                                  const core::SocSeeds& seeds) {
  const core::DayAnalysis analysis = analyze_stream(source, day);
  core::DayReport report = pipeline_.report_day(analysis, seeds);
  pipeline_.update_histories(analysis.graph);
  ++days_operated_;
  return report;
}

void Detector::set_intel_domains(std::vector<std::string> domains) {
  std::sort(domains.begin(), domains.end());
  domains.erase(std::unique(domains.begin(), domains.end()), domains.end());
  intel_domains_ = std::move(domains);
  delta_.intel_dirty = true;
}

core::LabelFn Detector::intel_fn() const {
  // Sorted + deduped in set_intel_domains, so membership is a binary search
  // over the snapshot (copied: the returned closure may outlive *this).
  return [domains = intel_domains_](const std::string& domain) {
    return std::binary_search(domains.begin(), domains.end(), domain);
  };
}

namespace {

/// Flatten the pipeline's unfinalized training rows (from the given row
/// marks) into the storage interchange format. No-op once models are
/// finalized — an operating detector never re-solves from rows.
void export_unfinalized_rows(const core::Pipeline& pipeline,
                             std::size_t cc_first, std::size_t sim_first,
                             storage::TrainingRows& rows) {
  if (pipeline.models_ready()) return;
  pipeline.export_training_rows(cc_first, sim_first, rows.cc, rows.cc_labels,
                                rows.sim, rows.sim_labels);
  rows.cc_cols = features::kCcFeatureCount;
  rows.sim_cols = features::kSimFeatureCount;
}

storage::TrainingStats training_stats(const core::Pipeline& pipeline) {
  const core::Pipeline::WhoisTrainingStats whois =
      pipeline.whois_training_stats();
  return {whois.age_sum, whois.validity_sum, whois.samples,
          pipeline.models_ready()};
}

/// Borrow everything — a daily checkpoint must not deep-copy month-scale
/// histories just to read them once. This is the full-save view; a delta
/// frame narrows it (save_state_delta).
storage::StateView make_state_view(const core::Pipeline& pipeline,
                                   const std::vector<std::string>& intel,
                                   std::size_t days_operated,
                                   const storage::TrainingRows* rows) {
  storage::StateView state;
  state.config = &pipeline.config();
  state.domain_history = &pipeline.domain_history();
  state.ua_history = &pipeline.ua_history();
  state.top_sites = pipeline.top_sites();
  state.cc_model = &pipeline.cc_model();
  state.sim_model = &pipeline.sim_model();
  state.training = training_stats(pipeline);
  state.intel_domains = intel.empty() ? nullptr : &intel;
  state.counters.days_operated = days_operated;
  state.training_rows = rows;
  return state;
}

}  // namespace

bool Detector::save_state(const std::filesystem::path& path,
                          storage::LoadStatus* status) const {
  storage::TrainingRows rows;
  export_unfinalized_rows(pipeline_, 0, 0, rows);
  const storage::StateView state = make_state_view(
      pipeline_, intel_domains_, days_operated_, rows.empty() ? nullptr : &rows);
  const bool ok = storage::save_detector_state(
      state, path, state.config->parallelism.threads, status,
      pipeline_.executor());
  if (ok && delta_.active && delta_.path == path) {
    // A direct full save replaced the base this path's chain was built on;
    // drop the chain before stale frames can shadow (and be dropped
    // against) the new base.
    std::error_code ec;
    std::filesystem::remove(storage::delta_chain_path(path), ec);
    delta_.active = false;
  }
  return ok;
}

bool Detector::full_checkpoint(const std::filesystem::path& path,
                               bool degenerate, storage::LoadStatus* status) {
  storage::TrainingRows rows;
  export_unfinalized_rows(pipeline_, 0, 0, rows);
  const storage::StateView state = make_state_view(
      pipeline_, intel_domains_, days_operated_, rows.empty() ? nullptr : &rows);
  std::uint32_t base_crc = 0;
  if (!storage::save_detector_state(state, path,
                                    pipeline_.config().parallelism.threads,
                                    status, pipeline_.executor(), &base_crc)) {
    delta_.active = false;
    return false;
  }
  std::error_code ec;
  std::filesystem::remove(storage::delta_chain_path(path), ec);
  if (degenerate) {
    delta_.active = false;
    pipeline_.set_history_journaling(false);
    return true;
  }
  delta_.active = true;
  delta_.path = path;
  delta_.base_crc = base_crc;
  delta_.next_seq = 1;
  delta_.saves_since_full = 0;
  delta_.cc_rows_mark = pipeline_.cc_training_rows();
  delta_.sim_rows_mark = pipeline_.sim_training_rows();
  delta_.intel_dirty = false;
  delta_.top_sites_dirty = false;
  pipeline_.set_history_journaling(true);  // fresh journal from this base
  return true;
}

bool Detector::save_state_delta(const std::filesystem::path& path,
                                const CheckpointPolicy& policy,
                                storage::LoadStatus* status,
                                const CheckpointExtras& extras) {
  const bool degenerate = policy.full_every <= 1;
  if (degenerate || !delta_.active || delta_.path != path ||
      delta_.saves_since_full + 1 >= policy.full_every) {
    return full_checkpoint(path, degenerate, status);
  }
  if (delta_.top_sites_dirty && pipeline_.top_sites() == nullptr) {
    // Frames can replace a whitelist but carry no "cleared" marker;
    // compact instead of diverging a replica.
    return full_checkpoint(path, false, status);
  }
  const core::Pipeline::HistoryDelta hist = pipeline_.drain_history_journal();
  storage::TrainingRows rows;
  export_unfinalized_rows(pipeline_, delta_.cc_rows_mark, delta_.sim_rows_mark,
                          rows);
  storage::FrameView frame;
  frame.header.base_crc = delta_.base_crc;
  frame.header.seq = delta_.next_seq;
  frame.header.day = extras.has_cursor ? extras.cursor_day
                                       : static_cast<util::Day>(days_operated_);
  frame.new_domains = &hist.new_domains;
  frame.touched_uas = &hist.touched_uas;
  frame.has_cursor = extras.has_cursor;
  frame.cursor_day = extras.cursor_day;
  frame.cursor_offset = extras.cursor_offset;
  frame.incidents = extras.incidents;
  storage::StateView view = make_state_view(
      pipeline_, intel_domains_, days_operated_, rows.empty() ? nullptr : &rows);
  // Intel and the whitelist ride only when they changed; an empty intel
  // section clears the feed.
  view.intel_domains = delta_.intel_dirty ? &intel_domains_ : nullptr;
  view.top_sites = delta_.top_sites_dirty ? pipeline_.top_sites() : nullptr;
  view.frame = &frame;
  if (!storage::save_detector_state(view, storage::delta_chain_path(path), 1,
                                    status)) {
    // The drained journal is gone; cold-start the chain so the next save
    // full-rewrites and nothing is lost.
    delta_.active = false;
    return false;
  }
  ++delta_.next_seq;
  ++delta_.saves_since_full;
  delta_.cc_rows_mark = pipeline_.cc_training_rows();
  delta_.sim_rows_mark = pipeline_.sim_training_rows();
  delta_.intel_dirty = false;
  delta_.top_sites_dirty = false;
  return true;
}

bool Detector::load_state(const std::filesystem::path& path,
                          storage::LoadStatus* status) {
  return load_state(path, nullptr, status);
}

bool Detector::load_state(const std::filesystem::path& path,
                          storage::ChainLoadReport* report,
                          storage::LoadStatus* status) {
  storage::ChainLoadReport local;
  storage::ChainLoadReport& chain = report != nullptr ? *report : local;
  std::optional<storage::DetectorState> state =
      storage::load_detector_state_chain(path, &chain, status);
  if (!state) return false;
  restore_state(std::move(*state));
  if (!chain.degraded) {
    // Clean replay (a torn tail is fine — append truncates it): continue
    // appending to the same chain from the next sequence number.
    delta_.active = true;
    delta_.path = path;
    delta_.base_crc = chain.base_crc;
    delta_.next_seq = chain.last_seq + 1;
    delta_.saves_since_full = chain.frames_applied;
    delta_.cc_rows_mark = pipeline_.cc_training_rows();
    delta_.sim_rows_mark = pipeline_.sim_training_rows();
    delta_.intel_dirty = false;
    delta_.top_sites_dirty = false;
    pipeline_.set_history_journaling(true);
  }
  return true;
}

void Detector::restore_state(storage::DetectorState state) {
  delta_.active = false;  // chain bookkeeping is cold until a load primes it
  pipeline_.set_history_journaling(false);
  pipeline_.set_config(state.config);
  pipeline_.restore_histories(std::move(state.domain_history),
                              std::move(state.ua_history));
  pipeline_.restore_models(std::move(state.cc_model),
                           std::move(state.sim_model),
                           state.training.models_ready);
  pipeline_.restore_whois_training_stats(
      {state.training.whois_age_sum, state.training.whois_validity_sum,
       static_cast<std::size_t>(state.training.whois_samples)});
  pipeline_.clear_training_rows();
  if (!state.training_rows.empty()) {
    (void)pipeline_.import_training_rows(
        state.training_rows.cc, state.training_rows.cc_labels,
        state.training_rows.sim, state.training_rows.sim_labels);
  }
  if (state.has_top_sites) {
    owned_top_sites_ =
        std::make_unique<profile::TopSitesList>(std::move(state.top_sites));
    pipeline_.set_top_sites(owned_top_sites_.get());
  } else {
    owned_top_sites_.reset();
    pipeline_.set_top_sites(nullptr);
  }
  intel_domains_ = std::move(state.intel_domains);
  days_operated_ = static_cast<std::size_t>(state.counters.days_operated);
  delta_.intel_dirty = false;
  delta_.top_sites_dirty = false;
}

bool Detector::apply_state_delta(const storage::DeltaFrame& frame,
                                 storage::LoadStatus* status) {
  // The replica's state, detached from the pipeline (the histories move,
  // they are not copied), takes the frame through the same routine a chain
  // load uses, then goes back in through restore_state(). That also stops
  // journaling and the chain: a replica must not append to the chain of
  // whoever wrote these frames; its first post-takeover save full-rewrites.
  storage::DetectorState state;
  state.config = pipeline_.config();
  std::tie(state.domain_history, state.ua_history) =
      pipeline_.release_histories();
  if (owned_top_sites_ != nullptr) {
    state.top_sites = std::move(*owned_top_sites_);
  } else if (pipeline_.top_sites() != nullptr) {
    state.top_sites = *pipeline_.top_sites();
  }
  state.has_top_sites = pipeline_.top_sites() != nullptr;
  state.cc_model = pipeline_.cc_model();
  state.sim_model = pipeline_.sim_model();
  state.training = training_stats(pipeline_);
  state.intel_domains = std::move(intel_domains_);
  state.counters.days_operated = days_operated_;
  export_unfinalized_rows(pipeline_, 0, 0, state.training_rows);
  storage::DeltaFrame sections = frame;
  const bool ok = storage::apply_delta_frame(state, sections, status);
  restore_state(std::move(state));
  return ok;
}

HealthSnapshot Detector::health_snapshot() const {
  obs::MetricsRegistry& registry = obs::metrics();
  HealthSnapshot health;
  health.days_operated = days_operated_;
  health.events_ingested = registry.counter("eid_ingest_events_total").value();
  health.last_tick_seconds = registry.gauge("eid_rt_last_tick_seconds").value();
  health.rt_backlog_events =
      registry.gauge("eid_rt_poll_backlog_events").value();
  health.executor_queue_depth =
      registry.gauge("eid_executor_queue_depth").value();
  const util::Executor* executor = pipeline_.executor();
  health.executor_workers = executor != nullptr ? executor->worker_count() : 0;
  return health;
}

}  // namespace eid::api
