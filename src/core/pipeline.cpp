#include "core/pipeline.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/executor.h"

namespace eid::core {
namespace {

/// Stage timing on the process registry, fed by the stages' TraceSpans
/// for every day any Pipeline in the process analyzes — the one per-stage
/// record benches and the /metrics exposition both read.
struct PipelineMetrics {
  obs::Counter& days = obs::metrics().counter("eid_pipeline_days_finished_total");
  obs::Counter& events = obs::metrics().counter("eid_pipeline_day_events_total");
  obs::Histogram& finalize = obs::metrics().histogram(
      "eid_pipeline_finalize_seconds", obs::duration_buckets());
  obs::Histogram& rare = obs::metrics().histogram("eid_pipeline_rare_seconds",
                                                  obs::duration_buckets());
  obs::Histogram& automation = obs::metrics().histogram(
      "eid_pipeline_automation_seconds", obs::duration_buckets());
  obs::Histogram& report = obs::metrics().histogram(
      "eid_pipeline_report_seconds", obs::duration_buckets());
  obs::Histogram& history = obs::metrics().histogram(
      "eid_pipeline_history_commit_seconds", obs::duration_buckets());
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

ml::Matrix to_matrix(
    const std::vector<std::array<double, features::kCcFeatureCount>>& rows) {
  ml::Matrix x(rows.size(), features::kCcFeatureCount);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < features::kCcFeatureCount; ++c) {
      x.at(r, c) = rows[r][c];
    }
  }
  return x;
}

ml::Matrix to_matrix_sim(
    const std::vector<std::array<double, features::kSimFeatureCount>>& rows) {
  ml::Matrix x(rows.size(), features::kSimFeatureCount);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < features::kSimFeatureCount; ++c) {
      x.at(r, c) = rows[r][c];
    }
  }
  return x;
}

}  // namespace

Pipeline::Pipeline(PipelineConfig config, const features::WhoisSource& whois)
    : config_(config),
      whois_(whois),
      ua_history_(config.ua_rare_threshold) {
  cc_model_.threshold = config.cc_threshold;
  sim_model_.threshold = config.sim_threshold;
  rebuild_executor();
}

void Pipeline::rebuild_executor() {
  const Parallelism& p = config_.parallelism;
  // The widest fan-out is max(threads, shards) ranges, one of which the
  // calling thread runs itself; day pipelining needs one more worker to
  // carry the in-flight commit while the caller ingests.
  std::size_t workers = std::max({p.threads, p.shards, std::size_t{1}}) - 1;
  if (p.pipeline_depth > 1) ++workers;
  if (workers == 0) {
    executor_.reset();
    return;
  }
  if (executor_ && executor_->worker_count() == workers) return;
  executor_ = std::make_shared<util::Executor>(workers);
}

void Pipeline::profile_day(const std::vector<logs::ConnEvent>& events) {
  update_histories(events);
}

void Pipeline::finish_profile(ProfileAccumulator&& accumulator) {
  const obs::TraceSpan span("profile_commit", pipeline_metrics().history);
  domain_history_.update(
      {accumulator.domains_.begin(), accumulator.domains_.end()});
  for (const auto& [ua, hosts] : accumulator.ua_hosts_) {
    for (const auto& host : hosts) ua_history_.observe(ua, host);
  }
}

void Pipeline::update_histories(const std::vector<logs::ConnEvent>& events) {
  std::unordered_set<std::string> domains;
  for (const auto& event : events) domains.insert(event.domain);
  domain_history_.update({domains.begin(), domains.end()});
  ua_history_.observe_day(events);
}

void Pipeline::update_histories(const graph::DayGraph& graph) {
  const obs::TraceSpan span("history_commit", pipeline_metrics().history);
  profile::update_history(domain_history_, graph);
  // for_each_edge visits in (host, domain) order; the histories only take
  // set unions, so they never depended on the old hash iteration order.
  graph.for_each_edge([this, &graph](graph::HostId host, graph::DomainId,
                                     const graph::EdgeData& edge) {
    for (const graph::UaId ua : edge.user_agents) {
      ua_history_.observe(graph.ua_name(ua), graph.host_name(host));
    }
  });
}

DayAnalysis Pipeline::analyze_day(const std::vector<logs::ConnEvent>& events,
                                  util::Day day) const {
  DayAccumulator accumulator = begin_day(day);
  accumulator.add_chunk(events);
  return finish_day(std::move(accumulator));
}

DayAnalysis Pipeline::finish_day(DayAccumulator&& accumulator) const {
  return finish_day_graph(accumulator.day_, std::move(accumulator.graph_),
                          accumulator.events_);
}

DayAnalysis Pipeline::finish_day_graph(util::Day day, graph::DayGraph&& graph,
                                       std::size_t events) const {
  const std::size_t threads = config_.parallelism.threads;
  PipelineMetrics& metrics = pipeline_metrics();
  const obs::TraceSpan day_span("finish_day");

  DayAnalysis analysis;
  analysis.day = day;
  analysis.event_count = events;
  analysis.graph = std::move(graph);
  {
    const obs::TraceSpan span("csr_finalize", metrics.finalize);
    analysis.graph.finalize(threads);
  }

  profile::RareExtraction rare;
  {
    const obs::TraceSpan span("rare_extraction", metrics.rare);
    rare = profile::extract_rare_destinations(
        analysis.graph, domain_history_, config_.popularity_threshold, threads,
        executor_.get());
    if (top_sites_ != nullptr) {
      rare.rare_domains = profile::filter_top_sites(analysis.graph,
                                                    rare.rare_domains,
                                                    *top_sites_);
    }
    analysis.rare.insert(rare.rare_domains.begin(), rare.rare_domains.end());
    analysis.new_domains = rare.new_domains;
    analysis.total_domains = rare.total_domains;
  }

  {
    const obs::TraceSpan span("automation_scan", metrics.automation);
    const timing::PeriodicityDetector detector(config_.periodicity);
    analysis.automation = features::AutomationAnalysis::analyze(
        analysis.graph, rare.rare_domains, detector, threads, executor_.get());
  }
  metrics.days.add(1);
  metrics.events.add(analysis.event_count);
  if (whois_samples_ > 0) {
    analysis.whois_defaults.age_days =
        whois_age_sum_ / static_cast<double>(whois_samples_);
    analysis.whois_defaults.validity_days =
        whois_validity_sum_ / static_cast<double>(whois_samples_);
  }
  return analysis;
}

DayState Pipeline::make_state(const DayAnalysis& analysis) const {
  return DayState{analysis.graph, analysis.rare,     analysis.automation,
                  ua_history_,    whois_,            analysis.day,
                  analysis.whois_defaults};
}

void Pipeline::train_day(const std::vector<logs::ConnEvent>& events, util::Day day,
                         const LabelFn& intel) {
  train_from_analysis(analyze_day(events, day), intel);
  update_histories(events);
}

void Pipeline::train_from_analysis(const DayAnalysis& analysis,
                                   const LabelFn& intel) {
  const util::Day day = analysis.day;

  // C&C rows: every rare automated domain, labeled by the intel feed.
  std::vector<graph::DomainId> reported_automated;
  for (const graph::DomainId domain : analysis.automation.automated_domains()) {
    if (!analysis.rare.contains(domain)) continue;
    const features::CcFeatureRow row = features::extract_cc_features(
        analysis.graph, domain, analysis.automation, ua_history_, whois_, day,
        analysis.whois_defaults);
    if (row.whois_resolved) {
      whois_age_sum_ += row.dom_age;
      whois_validity_sum_ += row.dom_validity;
      ++whois_samples_;
    }
    const bool reported = intel(analysis.graph.domain_name(domain));
    cc_rows_.push_back(row.as_array());
    cc_labels_.push_back(reported ? 1.0 : 0.0);
    if (reported) reported_automated.push_back(domain);
  }

  // Similarity rows: rare non-automated domains contacted by hosts of the
  // confirmed (reported) C&C domains, with features relative to that set.
  if (!reported_automated.empty()) {
    std::unordered_set<graph::HostId> compromised;
    for (const graph::DomainId domain : reported_automated) {
      for (const graph::HostId host : analysis.graph.domain_hosts(domain)) {
        compromised.insert(host);
      }
    }
    std::unordered_set<graph::DomainId> candidates;
    for (const graph::HostId host : compromised) {
      for (const graph::DomainId domain : analysis.graph.host_domains(host)) {
        if (!analysis.rare.contains(domain)) continue;
        if (analysis.automation.is_automated(domain)) continue;
        candidates.insert(domain);
      }
    }
    std::vector<graph::DomainId> ordered(candidates.begin(), candidates.end());
    std::sort(ordered.begin(), ordered.end());
    for (const graph::DomainId domain : ordered) {
      const features::SimilarityFeatureRow row =
          features::extract_similarity_features(analysis.graph, domain,
                                                reported_automated, ua_history_,
                                                whois_, day,
                                                analysis.whois_defaults);
      sim_rows_.push_back(row.as_array());
      sim_labels_.push_back(intel(analysis.graph.domain_name(domain)) ? 1.0 : 0.0);
    }
  }
}

TrainingReport Pipeline::finalize_training() {
  TrainingReport report;
  report.cc_rows = cc_rows_.size();
  report.sim_rows = sim_rows_.size();
  for (const double l : cc_labels_) report.cc_positive += l > 0.5 ? 1 : 0;
  for (const double l : sim_labels_) report.sim_positive += l > 0.5 ? 1 : 0;

  if (cc_rows_.size() > features::kCcFeatureCount + 1) {
    const ml::Matrix raw = to_matrix(cc_rows_);
    cc_model_.scaler.fit(raw);
    const ml::Matrix scaled = cc_model_.scaler.transform(raw);
    cc_model_.model = ml::fit_linear_regression(scaled, cc_labels_);
    report.cc_model = cc_model_.model;
    // Normalize so training scores span [0, 1] (see ScoredModel).
    std::vector<double> raw_scores(cc_rows_.size());
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t r = 0; r < cc_rows_.size(); ++r) {
      std::array<double, features::kCcFeatureCount> row;
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = scaled.at(r, c);
      raw_scores[r] = cc_model_.model.predict(row);
      if (r == 0 || raw_scores[r] < lo) lo = raw_scores[r];
      if (r == 0 || raw_scores[r] > hi) hi = raw_scores[r];
    }
    cc_model_.score_offset = lo;
    cc_model_.score_scale = hi - lo > 1e-12 ? hi - lo : 1.0;
    for (std::size_t r = 0; r < cc_rows_.size(); ++r) {
      report.cc_training_scores.emplace_back(
          (raw_scores[r] - cc_model_.score_offset) / cc_model_.score_scale,
          cc_labels_[r] > 0.5);
    }
  }
  if (sim_rows_.size() > features::kSimFeatureCount + 1) {
    const ml::Matrix raw = to_matrix_sim(sim_rows_);
    sim_model_.scaler.fit(raw);
    const ml::Matrix scaled = sim_model_.scaler.transform(raw);
    sim_model_.model = ml::fit_linear_regression(scaled, sim_labels_);
    report.sim_model = sim_model_.model;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t r = 0; r < sim_rows_.size(); ++r) {
      std::array<double, features::kSimFeatureCount> row;
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = scaled.at(r, c);
      const double s = sim_model_.model.predict(row);
      if (r == 0 || s < lo) lo = s;
      if (r == 0 || s > hi) hi = s;
    }
    sim_model_.score_offset = lo;
    sim_model_.score_scale = hi - lo > 1e-12 ? hi - lo : 1.0;
  }
  models_ready_ = true;
  return report;
}

void Pipeline::set_models(ScoredModel cc, ScoredModel sim) {
  cc_model_ = std::move(cc);
  sim_model_ = std::move(sim);
  models_ready_ = true;
}

std::vector<ScoredDomain> Pipeline::score_automated(
    const DayAnalysis& analysis) const {
  const DayState state = make_state(analysis);
  ScoredModel sweep = cc_model_;
  sweep.threshold = -1e18;  // keep every automated rare domain
  std::vector<ScoredDomain> out;
  for (const CcDetection& det : detect_cc_domains(state, sweep)) {
    out.push_back(ScoredDomain{analysis.graph.domain_name(det.domain), det.score,
                               det.period, det.auto_hosts});
  }
  return out;
}

std::vector<ScoredDomain> Pipeline::detect_cc(const DayAnalysis& analysis,
                                              std::optional<double> tc) const {
  const DayState state = make_state(analysis);
  ScoredModel sweep = cc_model_;
  sweep.threshold = tc.value_or(config_.cc_threshold);
  std::vector<ScoredDomain> out;
  for (const CcDetection& det : detect_cc_domains(state, sweep)) {
    out.push_back(ScoredDomain{analysis.graph.domain_name(det.domain), det.score,
                               det.period, det.auto_hosts});
  }
  return out;
}

BpRunReport Pipeline::report_from(const graph::DayGraph& graph,
                                  const BpResult& result) const {
  BpRunReport report;
  report.iterations = result.iterations;
  for (const BpEvent& event : result.trace) {
    if (event.reason == LabelReason::Seed) continue;
    DetectedDomain det;
    det.name = graph.domain_name(event.domain);
    det.score = event.score;
    det.reason = event.reason;
    det.iteration = event.iteration;
    report.domains.push_back(std::move(det));
  }
  for (const graph::HostId host : result.hosts) {
    report.hosts.push_back(graph.host_name(host));
  }
  return report;
}

BpRunReport Pipeline::run_bp_nohint(const DayAnalysis& analysis,
                                    const std::vector<ScoredDomain>& cc_domains,
                                    std::optional<double> ts) const {
  const DayState state = make_state(analysis);
  ScoredModel sim = sim_model_;
  sim.threshold = ts.value_or(config_.sim_threshold);
  const EnterpriseScorer scorer(state, cc_model_, sim);

  std::vector<graph::DomainId> seeds;
  for (const ScoredDomain& det : cc_domains) {
    const graph::DomainId id = analysis.graph.find_domain(det.name);
    if (id != graph::kNoId) seeds.push_back(id);
  }
  BpConfig bp;
  bp.sim_threshold = sim.threshold;
  bp.max_iterations = config_.bp_max_iterations;
  const BpResult result =
      belief_propagation(analysis.graph, analysis.rare, {}, seeds, scorer, bp);
  return report_from(analysis.graph, result);
}

BpRunReport Pipeline::run_bp_sochints(const DayAnalysis& analysis,
                                      const SocSeeds& seeds,
                                      std::optional<double> ts) const {
  const DayState state = make_state(analysis);
  ScoredModel sim = sim_model_;
  sim.threshold = ts.value_or(config_.sim_threshold);
  const EnterpriseScorer scorer(state, cc_model_, sim);

  std::vector<graph::HostId> seed_hosts;
  for (const std::string& host : seeds.hosts) {
    const graph::HostId id = analysis.graph.find_host(host);
    if (id != graph::kNoId) seed_hosts.push_back(id);
  }
  std::vector<graph::DomainId> seed_domains;
  for (const std::string& domain : seeds.domains) {
    const graph::DomainId id = analysis.graph.find_domain(domain);
    if (id != graph::kNoId) seed_domains.push_back(id);
  }
  BpConfig bp;
  bp.sim_threshold = sim.threshold;
  bp.max_iterations = config_.bp_max_iterations;
  const BpResult result = belief_propagation(analysis.graph, analysis.rare,
                                             seed_hosts, seed_domains, scorer, bp);
  return report_from(analysis.graph, result);
}

DayReport Pipeline::report_day(const DayAnalysis& analysis,
                               const SocSeeds& seeds) const {
  const obs::TraceSpan day_span("report_day", pipeline_metrics().report);
  DayReport report;
  report.day = analysis.day;
  report.events = analysis.event_count;
  report.hosts = analysis.graph.host_count();
  report.domains = analysis.graph.domain_count();
  report.rare_domains = analysis.rare.size();
  report.automated_pairs = analysis.automation.pair_count();

  {
    const obs::TraceSpan span("score_automated");
    report.automated_scores = score_automated(analysis);
    report.cc_domains = detect_cc(analysis);
  }
  {
    const obs::TraceSpan span("bp_nohint");
    report.nohint = run_bp_nohint(analysis, report.cc_domains);
  }
  if (!seeds.hosts.empty() || !seeds.domains.empty()) {
    const obs::TraceSpan span("bp_sochints");
    report.sochints = run_bp_sochints(analysis, seeds);
  }
  return report;
}

DayReport Pipeline::run_day(const std::vector<logs::ConnEvent>& events,
                            util::Day day, const SocSeeds& seeds) {
  const DayAnalysis analysis = analyze_day(events, day);
  DayReport report = report_day(analysis, seeds);
  update_histories(events);
  return report;
}

void Pipeline::export_training_rows(std::size_t cc_first, std::size_t sim_first,
                                    std::vector<double>& cc,
                                    std::vector<double>& cc_labels,
                                    std::vector<double>& sim,
                                    std::vector<double>& sim_labels) const {
  cc.clear();
  cc_labels.clear();
  sim.clear();
  sim_labels.clear();
  cc_first = std::min(cc_first, cc_rows_.size());
  sim_first = std::min(sim_first, sim_rows_.size());
  cc.reserve((cc_rows_.size() - cc_first) * features::kCcFeatureCount);
  for (std::size_t i = cc_first; i < cc_rows_.size(); ++i) {
    cc.insert(cc.end(), cc_rows_[i].begin(), cc_rows_[i].end());
  }
  cc_labels.assign(cc_labels_.begin() + static_cast<std::ptrdiff_t>(cc_first),
                   cc_labels_.end());
  sim.reserve((sim_rows_.size() - sim_first) * features::kSimFeatureCount);
  for (std::size_t i = sim_first; i < sim_rows_.size(); ++i) {
    sim.insert(sim.end(), sim_rows_[i].begin(), sim_rows_[i].end());
  }
  sim_labels.assign(sim_labels_.begin() + static_cast<std::ptrdiff_t>(sim_first),
                    sim_labels_.end());
}

bool Pipeline::import_training_rows(std::span<const double> cc,
                                    std::span<const double> cc_labels,
                                    std::span<const double> sim,
                                    std::span<const double> sim_labels) {
  if (cc.size() != cc_labels.size() * features::kCcFeatureCount ||
      sim.size() != sim_labels.size() * features::kSimFeatureCount) {
    return false;
  }
  cc_rows_.reserve(cc_rows_.size() + cc_labels.size());
  for (std::size_t i = 0; i < cc_labels.size(); ++i) {
    std::array<double, features::kCcFeatureCount> row;
    std::copy_n(cc.begin() +
                    static_cast<std::ptrdiff_t>(i * features::kCcFeatureCount),
                features::kCcFeatureCount, row.begin());
    cc_rows_.push_back(row);
  }
  cc_labels_.insert(cc_labels_.end(), cc_labels.begin(), cc_labels.end());
  sim_rows_.reserve(sim_rows_.size() + sim_labels.size());
  for (std::size_t i = 0; i < sim_labels.size(); ++i) {
    std::array<double, features::kSimFeatureCount> row;
    std::copy_n(sim.begin() +
                    static_cast<std::ptrdiff_t>(i * features::kSimFeatureCount),
                features::kSimFeatureCount, row.begin());
    sim_rows_.push_back(row);
  }
  sim_labels_.insert(sim_labels_.end(), sim_labels.begin(), sim_labels.end());
  return true;
}

}  // namespace eid::core
