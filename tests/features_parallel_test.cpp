// The multi-threaded automation scan must be bit-identical to the
// sequential one for any thread count. The fan-outs run on a real worker
// pool, so the TSan job sees them on separate threads.
#include <gtest/gtest.h>

#include "features/automation.h"
#include "test_helpers.h"
#include "util/executor.h"
#include "util/rng.h"

namespace eid::features {
namespace {

util::Executor& pool() {
  static util::Executor executor(3);
  return executor;
}

graph::DayGraph busy_graph() {
  test::DayBuilder builder;
  util::Rng rng(31);
  // 60 domains: a third beaconing, a third bursty, a third sparse.
  for (int d = 0; d < 60; ++d) {
    const std::string domain = "d" + std::to_string(d) + ".com";
    const std::size_t hosts = 1 + rng.index(4);
    for (std::size_t h = 0; h < hosts; ++h) {
      const std::string host = "h" + std::to_string(rng.index(25));
      if (d % 3 == 0) {
        builder.beacon(host, domain, 1000 + static_cast<int>(rng.uniform(5000)),
                       300 + static_cast<double>(rng.uniform(600)), 40);
      } else if (d % 3 == 1) {
        util::TimePoint t = 1000 + static_cast<util::TimePoint>(rng.uniform(5000));
        for (int i = 0; i < 12; ++i) {
          builder.visit(host, domain, t);
          t += 1 + static_cast<util::TimePoint>(rng.exponential(200.0));
        }
      } else {
        builder.visit(host, domain, 1000 + static_cast<int>(rng.uniform(80000)));
      }
    }
  }
  return builder.build();
}

class ParallelAutomation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelAutomation, MatchesSequentialExactly) {
  const graph::DayGraph graph = busy_graph();
  std::vector<graph::DomainId> candidates;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    candidates.push_back(d);
  }
  const timing::PeriodicityDetector detector;
  const AutomationAnalysis sequential =
      AutomationAnalysis::analyze(graph, candidates, detector, 1);
  const AutomationAnalysis parallel = AutomationAnalysis::analyze(
      graph, candidates, detector, GetParam(), &pool());

  EXPECT_EQ(parallel.pair_count(), sequential.pair_count());
  EXPECT_EQ(parallel.automated_domains(), sequential.automated_domains());
  for (const graph::DomainId domain : sequential.automated_domains()) {
    const DomainAutomation* a = sequential.domain(domain);
    const DomainAutomation* b = parallel.domain(domain);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->pairs.size(), b->pairs.size());
    for (std::size_t i = 0; i < a->pairs.size(); ++i) {
      EXPECT_EQ(a->pairs[i].host, b->pairs[i].host);
      EXPECT_EQ(a->pairs[i].period, b->pairs[i].period);
      EXPECT_EQ(a->pairs[i].divergence, b->pairs[i].divergence);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelAutomation,
                         ::testing::Values(2, 3, 4, 8, 64));

TEST(ParallelAutomationTest, MoreThreadsThanCandidates) {
  test::DayBuilder builder;
  builder.beacon("h1", "only.com", 1000, 600, 30);
  const graph::DayGraph graph = builder.build();
  const std::vector<graph::DomainId> candidates = {graph.find_domain("only.com")};
  const timing::PeriodicityDetector detector;
  const AutomationAnalysis analysis =
      AutomationAnalysis::analyze(graph, candidates, detector, 16, &pool());
  EXPECT_EQ(analysis.pair_count(), 1u);
}

TEST(ParallelAutomationTest, EmptyCandidates) {
  const graph::DayGraph graph = busy_graph();
  const timing::PeriodicityDetector detector;
  const AutomationAnalysis analysis =
      AutomationAnalysis::analyze(graph, {}, detector, 8, &pool());
  EXPECT_EQ(analysis.pair_count(), 0u);
}

}  // namespace
}  // namespace eid::features
