// End-to-end system of Fig. 1 for the enterprise (web proxy) deployment.
//
// Training (one month):
//   (1) normalization/reduction happens upstream (logs::reduce_*);
//   (2) profiling: domain + UA histories;
//   (3) C&C detector customization: regression over labeled automated rare
//       domains (labels from an intelligence feed such as VirusTotal);
//   (4) domain-similarity customization: regression over rare non-automated
//       domains contacted by hosts of confirmed C&C domains.
//
// Operation (daily):
//   (1) reduction; (2) profile comparison/update (rare destinations, rare
//   UAs); (3) C&C detector; (4) belief propagation in both modes.
//
// analyze_day() is separated from run_day() so benchmarks can sweep
// thresholds over one day's analysis without recomputing it, and so
// history updates stay explicit.
//
// Ingestion is incremental: a day is built chunk-by-chunk through
// DayAccumulator (begin_day / add_chunk / finish_day), so callers never
// need a fully materialized per-day event vector. The vector entry points
// (analyze_day, train_day, run_day, profile_day) are thin adapters over
// the incremental path and produce bit-identical results for any chunking
// of the same event sequence. api::Detector exposes this as a streaming
// EventSource API.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/scorers.h"
#include "profile/domain_history.h"
#include "profile/top_sites.h"
#include "profile/ua_history.h"

namespace eid::util {
class Executor;
}

namespace eid::core {

/// Parallel-execution knobs for the day path. Pure performance knobs: the
/// analysis and every report are bit-identical for any values (the
/// contract tests/determinism_test.cpp and api_equivalence_test.cpp
/// enforce), so they can be tuned per deployment without revalidation.
struct Parallelism {
  /// Worker threads for the day-analysis stages: edge-timestamp sorting
  /// in DayGraph::finalize, rare-domain extraction, and the per-edge
  /// automation scan (the hot loop at enterprise volume, §II-C).
  std::size_t threads = 1;
  /// Host-hash ingest shards inside DayAccumulator (independent builders,
  /// no locks; merged deterministically in finish_day).
  std::size_t shards = 1;
  /// Day-pipelining depth for the multi-day streaming verbs
  /// (api::Detector::ingest / analyze_days / run_continuous). 1 runs each
  /// day's finalize/score/commit stage inline between ingests; 2 overlaps
  /// that stage of day N with day N+1's ingest on the pipeline's executor
  /// (commits stay strictly day-ordered, so — like the other knobs —
  /// every report is bit-identical for any value). Values above 2 behave
  /// as 2: rare extraction reads the histories day N commits, so at most
  /// one commit can be in flight.
  std::size_t pipeline_depth = 1;
};

struct PipelineConfig {
  std::size_t popularity_threshold = 10;  ///< rare-destination host cap
  std::size_t ua_rare_threshold = 10;     ///< rare-UA host cap
  timing::PeriodicityDetector::Params periodicity{};  ///< W = 10 s, JT = 0.06
  double cc_threshold = 0.4;   ///< Tc (Fig. 6a sweeps 0.40..0.48)
  double sim_threshold = 0.33; ///< Ts (Fig. 6b sweeps 0.33..0.85)
  std::size_t bp_max_iterations = 10;
  Parallelism parallelism{};   ///< day-path threads + ingest shards
};

/// Everything computed about one day before any thresholding.
struct DayAnalysis {
  util::Day day = 0;
  graph::DayGraph graph;
  std::unordered_set<graph::DomainId> rare;
  features::AutomationAnalysis automation;
  features::WhoisDefaults whois_defaults;
  std::size_t event_count = 0;
  std::size_t new_domains = 0;    ///< new regardless of popularity
  std::size_t total_domains = 0;
};

/// A detected domain with its provenance, reported by name so results
/// survive the per-day interning.
struct DetectedDomain {
  std::string name;
  double score = 0.0;
  LabelReason reason = LabelReason::Similarity;
  std::size_t iteration = 0;
};

struct BpRunReport {
  std::vector<DetectedDomain> domains;  ///< newly labeled (seeds excluded)
  std::vector<std::string> hosts;       ///< expanded compromised set
  std::size_t iterations = 0;
};

/// Score assigned to one automated rare domain (Fig. 5 / Fig. 6a series).
struct ScoredDomain {
  std::string name;
  double score = 0.0;
  double period = 0.0;
  std::size_t auto_hosts = 0;
};

struct DayReport {
  util::Day day = 0;
  std::size_t events = 0;
  std::size_t hosts = 0;
  std::size_t domains = 0;
  std::size_t rare_domains = 0;
  std::size_t automated_pairs = 0;
  std::vector<ScoredDomain> automated_scores;  ///< all rare automated domains
  std::vector<ScoredDomain> cc_domains;        ///< score >= Tc
  BpRunReport nohint;
  BpRunReport sochints;
};

/// SOC-provided seeds for the hints mode.
struct SocSeeds {
  std::vector<std::string> hosts;
  std::vector<std::string> domains;
};

/// Intelligence label callback: true when the feed (VirusTotal in the
/// paper) reports the domain malicious.
using LabelFn = std::function<bool(const std::string& domain)>;

/// Incremental builder for one day's analysis. Obtain from
/// Pipeline::begin_day(), feed events in any number of chunks, then hand
/// back to Pipeline::finish_day(). Only the day graph grows while chunks
/// arrive — events route lock-free into host-hash shard builders — so the
/// result is identical for any chunking of the same event sequence AND any
/// shard count: finalize (deterministic shard merge), rare extraction and
/// automation all run in finish_day().
class DayAccumulator {
 public:
  void add(const logs::ConnEvent& event) {
    graph_.add_event(event);
    ++events_;
  }

  /// Ingest one chunk: sharded interning/aggregation runs in parallel
  /// across the shard builders (see DayGraph::add_events); the span only
  /// needs to outlive this call.
  void add_chunk(std::span<const logs::ConnEvent> events) {
    graph_.add_events(events);
    events_ += events.size();
  }

  util::Day day() const { return day_; }
  std::size_t event_count() const { return events_; }

 private:
  friend class Pipeline;
  DayAccumulator(util::Day day, std::size_t shards,
                 std::shared_ptr<util::Executor> executor)
      : day_(day), graph_(shards, std::move(executor)) {}

  util::Day day_;
  graph::DayGraph graph_;
  std::size_t events_ = 0;
};

/// Incremental collector for the profiling stage (bootstrap month): only
/// the day's distinct domains and distinct (UA, host) pairs are retained,
/// so memory stays O(distinct) for arbitrarily large days. Histories are
/// committed at end-of-day by Pipeline::finish_profile(), preserving the
/// "today's traffic does not mask today's new destinations" contract.
class ProfileAccumulator {
 public:
  void add(const logs::ConnEvent& event) {
    ++events_;
    domains_.insert(event.domain);
    if (!event.has_http_context || event.user_agent.empty()) return;
    auto& hosts = ua_hosts_[event.user_agent];
    // A UA with `ua_cap_` distinct hosts in one day is popular regardless
    // of prior history, so further hosts add no information.
    if (ua_cap_ == 0 || hosts.size() < ua_cap_) hosts.insert(event.host);
  }

  void add_chunk(std::span<const logs::ConnEvent> events) {
    for (const auto& event : events) add(event);
  }

  std::size_t event_count() const { return events_; }

 private:
  friend class Pipeline;
  explicit ProfileAccumulator(std::size_t ua_cap) : ua_cap_(ua_cap) {}

  std::size_t ua_cap_;
  std::size_t events_ = 0;
  std::unordered_set<std::string> domains_;
  std::unordered_map<std::string, std::unordered_set<std::string>> ua_hosts_;
};

/// Outcome of finalize_training(), for reporting regression diagnostics
/// (§VI-A: coefficient signs and significance).
struct TrainingReport {
  ml::LinearModel cc_model;
  ml::LinearModel sim_model;
  std::size_t cc_rows = 0;
  std::size_t cc_positive = 0;
  std::size_t sim_rows = 0;
  std::size_t sim_positive = 0;
  /// (score, reported?) pairs over the C&C training rows — the Fig. 5 CDFs.
  std::vector<std::pair<double, bool>> cc_training_scores;
};

class Pipeline {
 public:
  Pipeline(PipelineConfig config, const features::WhoisSource& whois);

  // ---- Training ----

  /// Stage 2 (bootstrap month): update histories only.
  void profile_day(const std::vector<logs::ConnEvent>& events);

  /// Streaming profiling: begin a day, feed chunks, commit at day end.
  ProfileAccumulator begin_profile() const {
    return ProfileAccumulator(config_.ua_rare_threshold);
  }
  void finish_profile(ProfileAccumulator&& accumulator);

  /// Stages 3-4: accumulate labeled regression rows for one day, then
  /// update histories.
  void train_day(const std::vector<logs::ConnEvent>& events, util::Day day,
                 const LabelFn& intel);

  /// Stages 3-4 for an already-computed analysis: accumulate labeled
  /// regression rows only. The caller owns the end-of-day history update
  /// (update_histories() with the day's events or graph).
  void train_from_analysis(const DayAnalysis& analysis, const LabelFn& intel);

  /// Fit the C&C and similarity regressions from the accumulated rows.
  TrainingReport finalize_training();

  /// Install externally-fit models (tests, ablations, or models restored
  /// from a checkpoint, storage/state.h).
  void set_models(ScoredModel cc, ScoredModel sim);

  /// Install a global-popularity whitelist (§II-A): rare destinations on
  /// the list are excluded from analysis. Pass nullptr to clear. The list
  /// must outlive the pipeline.
  void set_top_sites(const profile::TopSitesList* top_sites) {
    top_sites_ = top_sites;
  }

  const profile::TopSitesList* top_sites() const { return top_sites_; }

  // ---- Checkpoint/restore hooks (storage/state.h) ----

  /// WHOIS aggregates accumulated while training. They seed the per-day
  /// WhoisDefaults of every later analysis, so checkpoints must carry them
  /// for restored runs to be bit-identical.
  struct WhoisTrainingStats {
    double age_sum = 0.0;
    double validity_sum = 0.0;
    std::size_t samples = 0;
  };

  WhoisTrainingStats whois_training_stats() const {
    return {whois_age_sum_, whois_validity_sum_, whois_samples_};
  }

  void restore_whois_training_stats(const WhoisTrainingStats& stats) {
    whois_age_sum_ = stats.age_sum;
    whois_validity_sum_ = stats.validity_sum;
    whois_samples_ = stats.samples;
  }

  /// Replace the configuration wholesale (checkpoint restore). The WHOIS
  /// source reference and accumulated histories are unchanged; the worker
  /// pool is resized to the restored Parallelism.
  void set_config(const PipelineConfig& config) {
    config_ = config;
    rebuild_executor();
  }

  /// Replace both histories with restored state.
  void restore_histories(profile::DomainHistory domains, profile::UaHistory uas) {
    domain_history_ = std::move(domains);
    ua_history_ = std::move(uas);
  }

  /// Move both histories out, leaving them empty; restore_histories() puts
  /// them back. Lets a checkpoint apply work on the month-scale histories
  /// without copying them.
  std::pair<profile::DomainHistory, profile::UaHistory> release_histories() {
    return {std::exchange(domain_history_, {}),
            std::exchange(ua_history_,
                          profile::UaHistory(config_.ua_rare_threshold))};
  }

  /// Like set_models(), but also restores whether training had been
  /// finalized when the state was saved.
  void restore_models(ScoredModel cc, ScoredModel sim, bool ready) {
    cc_model_ = std::move(cc);
    sim_model_ = std::move(sim);
    models_ready_ = ready;
  }

  bool models_ready() const { return models_ready_; }

  // ---- Delta-checkpoint hooks (storage/delta.h) ----

  /// Start (or stop) journaling history mutations for delta saves.
  void set_history_journaling(bool on) {
    domain_history_.set_journaling(on);
    ua_history_.set_journaling(on);
  }

  /// History changes since the last drain (or since journaling started).
  struct HistoryDelta {
    std::vector<std::string> new_domains;  ///< first-seen, in arrival order
    std::vector<std::string> touched_uas;  ///< mutated entries, first-touch
  };

  HistoryDelta drain_history_journal() {
    return {domain_history_.drain_journal(), ua_history_.drain_journal()};
  }

  /// Bulk history building (benchmarks, tests): insert the domains, set
  /// the absolute day counter.
  void absorb_domain_delta(std::span<const std::string> domains,
                           std::size_t days_ingested) {
    domain_history_.absorb(domains, days_ingested);
  }

  /// Replace one UA entry wholesale (bulk history building).
  void absorb_ua_entry(std::string_view ua, bool popular,
                       std::span<const std::string_view> hosts) {
    ua_history_.restore_entry(ua, popular, hosts);
  }

  /// Accumulated training-row counts, for delta saves that only ship the
  /// rows appended since the previous frame.
  std::size_t cc_training_rows() const { return cc_labels_.size(); }
  std::size_t sim_training_rows() const { return sim_labels_.size(); }

  /// Flatten accumulated training rows starting at the given row indices
  /// (row-major, features::kCcFeatureCount / kSimFeatureCount columns).
  /// The storage layer cannot see the fixed-width arrays, so flat double
  /// vectors are the interchange format.
  void export_training_rows(std::size_t cc_first, std::size_t sim_first,
                            std::vector<double>& cc,
                            std::vector<double>& cc_labels,
                            std::vector<double>& sim,
                            std::vector<double>& sim_labels) const;

  /// Append restored training rows (mid-training crash resume). False when
  /// the flat data is not a whole number of rows of the expected width.
  bool import_training_rows(std::span<const double> cc,
                            std::span<const double> cc_labels,
                            std::span<const double> sim,
                            std::span<const double> sim_labels);

  /// Drop accumulated training rows (checkpoint restore replaces them).
  void clear_training_rows() {
    cc_rows_.clear();
    cc_labels_.clear();
    sim_rows_.clear();
    sim_labels_.clear();
  }

  // ---- Operation ----

  /// Steps 1-2 + feature analysis, no thresholding, no history update.
  /// Adapter over begin_day/finish_day for callers with a materialized day.
  DayAnalysis analyze_day(const std::vector<logs::ConnEvent>& events,
                          util::Day day) const;

  /// Start incremental analysis of one day (streaming ingestion). The
  /// accumulator shards by host hash per config().parallelism.shards and
  /// shares the pipeline's worker pool (it keeps the pool alive, so a
  /// concurrent set_parallelism cannot pull it out from under a day in
  /// flight).
  DayAccumulator begin_day(util::Day day) const {
    return DayAccumulator(day, config_.parallelism.shards, executor_);
  }

  /// Retune the parallel knobs without rebuilding the pipeline (results
  /// are bit-identical for any values, so this is always safe). Resizes
  /// the worker pool.
  void set_parallelism(Parallelism parallelism) {
    config_.parallelism = parallelism;
    rebuild_executor();
  }

  /// The persistent worker pool behind every parallel stage — nullptr for
  /// a fully sequential configuration (threads, shards and pipeline_depth
  /// all 1), where every fan-out degrades to an inline loop.
  util::Executor* executor() const { return executor_.get(); }

  /// Finalize an incremental day: graph views, rare extraction, automation
  /// analysis, WHOIS defaults. Identical to analyze_day() over the
  /// concatenation of every chunk fed to the accumulator.
  DayAnalysis finish_day(DayAccumulator&& accumulator) const;

  /// finish_day for callers that assembled the day graph themselves — the
  /// rt engine's incremental window merge hands a graph built from cached
  /// per-bucket partials (optionally already finalized via
  /// finalize_snapshot; finalize here is idempotent). `events` is the
  /// ingested event count the graph represents. Identical to finish_day on
  /// an accumulator fed the same event sequence.
  DayAnalysis finish_day_graph(util::Day day, graph::DayGraph&& graph,
                               std::size_t events) const;

  /// A bare un-finalized ingest graph wired to the pipeline's worker pool,
  /// for callers that maintain their own partial graphs (the rt bucket
  /// cache). `shards` is pinned by the caller: partials that will be
  /// absorbed into each other must share one shard count, so the rt engine
  /// captures it once rather than chasing set_parallelism.
  graph::DayGraph make_ingest_graph(std::size_t shards) const {
    return graph::DayGraph(shards, executor_);
  }

  /// All automated rare domains of the day with their scores, unthresholded
  /// (the Fig. 5 / Fig. 6a series).
  std::vector<ScoredDomain> score_automated(const DayAnalysis& analysis) const;

  /// Step 3: C&C sweep at threshold Tc (config default when unset).
  std::vector<ScoredDomain> detect_cc(
      const DayAnalysis& analysis,
      std::optional<double> tc = std::nullopt) const;

  /// Step 4, no-hint mode: seed BP with the C&C detections.
  BpRunReport run_bp_nohint(const DayAnalysis& analysis,
                            const std::vector<ScoredDomain>& cc_domains,
                            std::optional<double> ts = std::nullopt) const;

  /// Step 4, SOC-hints mode.
  BpRunReport run_bp_sochints(const DayAnalysis& analysis, const SocSeeds& seeds,
                              std::optional<double> ts = std::nullopt) const;

  /// End-of-day profile update (operation step 2, "histories are updated").
  void update_histories(const std::vector<logs::ConnEvent>& events);

  /// End-of-day profile update from a finalized day graph — the streaming
  /// path, where the raw events are gone but the graph holds the day's
  /// distinct domains and (host, UA) pairs. Equivalent to the event form.
  void update_histories(const graph::DayGraph& graph);

  /// Thresholding + both BP modes over an already-computed analysis, no
  /// history update.
  DayReport report_day(const DayAnalysis& analysis, const SocSeeds& seeds) const;

  /// Convenience: analyze + detect + both BP modes + history update.
  DayReport run_day(const std::vector<logs::ConnEvent>& events, util::Day day,
                    const SocSeeds& seeds);

  const PipelineConfig& config() const { return config_; }
  const profile::DomainHistory& domain_history() const { return domain_history_; }
  const profile::UaHistory& ua_history() const { return ua_history_; }
  const ScoredModel& cc_model() const { return cc_model_; }
  const ScoredModel& sim_model() const { return sim_model_; }

 private:
  DayState make_state(const DayAnalysis& analysis) const;
  BpRunReport report_from(const graph::DayGraph& graph,
                          const BpResult& result) const;
  void rebuild_executor();

  PipelineConfig config_;
  /// Shared with live DayAccumulators (begin_day) so reconfiguration never
  /// destroys a pool that still has a day's shards wired to it.
  std::shared_ptr<util::Executor> executor_;
  const features::WhoisSource& whois_;
  const profile::TopSitesList* top_sites_ = nullptr;
  profile::DomainHistory domain_history_;
  profile::UaHistory ua_history_;

  // Accumulated training rows.
  std::vector<std::array<double, features::kCcFeatureCount>> cc_rows_;
  std::vector<double> cc_labels_;
  std::vector<std::array<double, features::kSimFeatureCount>> sim_rows_;
  std::vector<double> sim_labels_;
  double whois_age_sum_ = 0.0;
  double whois_validity_sum_ = 0.0;
  std::size_t whois_samples_ = 0;

  ScoredModel cc_model_;
  ScoredModel sim_model_;
  bool models_ready_ = false;
};

}  // namespace eid::core
