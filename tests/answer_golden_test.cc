// Golden answers for the answer-step branches no benchmark workload reaches:
// robust Horvitz-Thompson plus the degree audit under an adversary plan on
// each of the three engines, phase-I reuse with answer-relative
// normalization on the sync engine, an async anytime answer built from
// fewer than two observations, and a scheduler batch under message loss.
//
// Every case builds its own small world from fixed seeds, so the pinned
// numbers depend only on the code. Floating-point fields are compared to a
// relative 1e-9, so a last-bit libm difference on another machine cannot
// flap the test; counts and flags are compared exactly. On a mismatch the
// actual answer is printed as a Golden initializer for re-pinning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/async_engine.h"
#include "core/multi_query.h"
#include "net/adversary.h"
#include "test_common.h"

namespace p2paqp::core {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

struct Golden {
  double estimate;
  double ci_half_width_95;
  double achieved_error;
  double trimmed_mass;
  size_t phase1_peers;
  size_t phase2_peers;
  size_t observations_lost;
  size_t suspected_peers;
  bool degraded;
  bool deadline_hit;
};

void ExpectRelative(double actual, double expected, const char* field) {
  EXPECT_NEAR(actual, expected, 1e-9 * std::fabs(expected)) << field;
}

int FailureCount() {
  return ::testing::UnitTest::GetInstance()
      ->current_test_info()
      ->result()
      ->total_part_count();
}

void ExpectGolden(const ApproximateAnswer& a, const Golden& g) {
  const int failures_before = FailureCount();
  ExpectRelative(a.estimate, g.estimate, "estimate");
  ExpectRelative(a.ci_half_width_95, g.ci_half_width_95, "ci_half_width_95");
  ExpectRelative(a.achieved_error, g.achieved_error, "achieved_error");
  ExpectRelative(a.trimmed_mass, g.trimmed_mass, "trimmed_mass");
  EXPECT_EQ(a.phase1_peers, g.phase1_peers);
  EXPECT_EQ(a.phase2_peers, g.phase2_peers);
  EXPECT_EQ(a.observations_lost, g.observations_lost);
  EXPECT_EQ(a.suspected_peers, g.suspected_peers);
  EXPECT_EQ(a.degraded, g.degraded);
  EXPECT_EQ(a.deadline_hit, g.deadline_hit);
  if (FailureCount() > failures_before) {
    std::printf("actual: {%.17g, %.17g, %.17g, %.17g, %zu, %zu, %zu, %zu, %s, "
                "%s}\n",
                a.estimate, a.ci_half_width_95, a.achieved_error,
                a.trimmed_mass, a.phase1_peers, a.phase2_peers,
                a.observations_lost, a.suspected_peers,
                a.degraded ? "true" : "false",
                a.deadline_hit ? "true" : "false");
  }
}

TestNetworkParams SmallWorld() {
  TestNetworkParams params;
  params.num_peers = 400;
  params.num_edges = 2000;
  params.cut_edges = 100;
  params.tuples_per_peer = 25;
  params.seed = 77;
  return params;
}

query::AggregateQuery Query(query::AggregateOp op, data::Value hi) {
  query::AggregateQuery q;
  q.op = op;
  q.predicate = {1, hi};
  q.required_error = 0.1;
  return q;
}

// Degree inflators that also blow some replies up into outliers: the audit
// has liars to find and the robust estimator has mass to trim.
void InstallAdversaries(TestNetwork& tn) {
  net::AdversaryPlan plan =
      net::MakeBehaviorPlan(net::AdversaryBehavior::kDegreeInflate, 0.1);
  plan.outlier_probability = 0.3;
  plan.immune = {0};
  tn.network.InstallAdversaryPlan(plan, 3);
}

EngineParams RobustEngineParams() {
  EngineParams params;
  params.phase1_peers = 30;
  params.max_phase2_peers = 120;
  params.robustness.estimator = RobustEstimatorKind::kWinsorized;
  params.robustness.trim_fraction = 0.05;
  params.robustness.mad_cutoff = 6.0;
  params.robustness.degree_audit_probes = 3;
  return params;
}

AsyncParams MakeAsyncParams(const TestNetwork& tn,
                            const EngineParams& engine) {
  AsyncParams params;
  params.engine = engine;
  params.walkers = 4;
  params.walk.jump = tn.catalog.suggested_jump;
  params.walk.burn_in = tn.catalog.suggested_burn_in;
  return params;
}

SchedulerParams MakeSchedulerParams(const TestNetwork& tn,
                                    const EngineParams& engine) {
  SchedulerParams params;
  params.engine = engine;
  params.walk.jump = tn.catalog.suggested_jump;
  params.walk.burn_in = tn.catalog.suggested_burn_in;
  return params;
}

TEST(AnswerGoldenTest, SyncRobustAuditUnderAdversaries) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  InstallAdversaries(tn);
  TwoPhaseEngine engine(&tn.network, tn.catalog, RobustEngineParams());
  util::Rng rng(11);
  auto answer = engine.Execute(Query(query::AggregateOp::kCount, 30), 0, rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectGolden(*answer, {2711.2911744775147, 920.9287362840314,
                         0.12590928596345433, 0.04, 30, 52, 0, 2, true, false});
}

TEST(AnswerGoldenTest, AsyncRobustAuditUnderAdversaries) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  InstallAdversaries(tn);
  AsyncQuerySession session(&tn.network, tn.catalog,
                            MakeAsyncParams(tn, RobustEngineParams()));
  util::Rng rng(12);
  auto report =
      session.Execute(Query(query::AggregateOp::kCount, 30), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectGolden(report->answer, {1894.6519256059223, 819.64254913627371,
                                0.087654464128117129, 0.076923076923076927, 30,
                                40, 0, 1, true, false});
}

TEST(AnswerGoldenTest, SchedulerRobustAuditUnderAdversaries) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  InstallAdversaries(tn);
  FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog,
                           MakeSchedulerParams(tn, RobustEngineParams()),
                           &cache);
  util::Rng rng(13);
  BatchResult batch = scheduler.ExecuteBatch(
      {Query(query::AggregateOp::kCount, 30),
       Query(query::AggregateOp::kSum, 60)},
      0, rng);
  ASSERT_EQ(batch.answers.size(), 2u);
  ASSERT_TRUE(batch.answers[0].ok()) << batch.answers[0].status().ToString();
  ASSERT_TRUE(batch.answers[1].ok()) << batch.answers[1].status().ToString();
  ExpectGolden(*batch.answers[0], {2528.6063640685488, 1576.8376370290823,
                                   0.13381766656703292, 0.095238095238095233,
                                   30, 23, 0, 2, true, false});
  ExpectGolden(*batch.answers[1], {137415.80994169231, 61869.168794162193,
                                   0.11941982587013836, 0.07407407407407407, 30,
                                   31, 0, 4, true, false});
}

TEST(AnswerGoldenTest, SyncPhaseOneReuseWithAnswerNormalization) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  EngineParams params;
  params.phase1_peers = 30;
  params.max_phase2_peers = 120;
  params.include_phase1_observations = true;
  params.normalization = ErrorNormalization::kQueryAnswer;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(14);
  auto answer = engine.Execute(Query(query::AggregateOp::kSum, 40), 0, rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectGolden(*answer, {87829.766866881269, 18977.111315932812,
                         0.29312596298620114, 0, 30, 120, 0, 0, false, false});
}

TEST(AnswerGoldenTest, AsyncDeadlineWithFewerThanTwoObservations) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  EngineParams engine;
  engine.phase1_peers = 30;
  engine.max_phase2_peers = 120;
  // Phase I delivers exactly one observation by this deadline: no plan,
  // no phase II, and no spread to build an interval from.
  engine.deadline_ms = 9240.0;
  AsyncQuerySession session(&tn.network, tn.catalog,
                            MakeAsyncParams(tn, engine));
  util::Rng rng(15);
  auto report =
      session.Execute(Query(query::AggregateOp::kCount, 30), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectGolden(report->answer, {190.47619047619048, 0, 1, 0, 1, 0, 29, 0, true,
                                true});
}

TEST(AnswerGoldenTest, SchedulerBatchUnderMessageDrops) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  net::FaultPlan faults;
  faults.drop_probability = 0.15;
  tn.network.InstallFaultPlan(faults, 5);
  EngineParams engine;
  engine.phase1_peers = 30;
  engine.max_phase2_peers = 120;
  engine.reply_retransmits = 0;
  FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog,
                           MakeSchedulerParams(tn, engine), &cache);
  util::Rng rng(16);
  BatchResult batch = scheduler.ExecuteBatch(
      {Query(query::AggregateOp::kCount, 30),
       Query(query::AggregateOp::kSum, 60)},
      0, rng);
  ASSERT_EQ(batch.answers.size(), 2u);
  ASSERT_TRUE(batch.answers[0].ok()) << batch.answers[0].status().ToString();
  ASSERT_TRUE(batch.answers[1].ok()) << batch.answers[1].status().ToString();
  ExpectGolden(*batch.answers[0], {2870.309427301891, 911.05459242636653,
                                   0.099698917703210502, 0, 24, 62, 12, 0, true,
                                   false});
  ExpectGolden(*batch.answers[1], {190627.64072922952, 106737.60763095386,
                                   0.27015792132534677, 0, 24, 21, 6, 0, true,
                                   false});
}

}  // namespace
}  // namespace p2paqp::core
