// Median/quantile (Sec. 5.6) and distinct-value estimation tests.
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "core/distinct.h"
#include "core/median.h"
#include "test_common.h"
#include "util/statistics.h"

namespace p2paqp::core {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

// Rank error of `estimate` as a fraction of N: |rank(est) - phi*N| / N.
double RankError(const net::SimulatedNetwork& network, double estimate,
                 double phi) {
  int64_t below = 0;
  int64_t total = 0;
  for (graph::NodeId p = 0; p < network.num_peers(); ++p) {
    if (!network.IsAlive(p)) continue;
    for (const data::Tuple& t : network.peer(p).database().tuples()) {
      ++total;
      if (static_cast<double>(t.value) < estimate) ++below;
    }
  }
  double rank = static_cast<double>(below) / static_cast<double>(total);
  return std::fabs(rank - phi);
}

TEST(WeightedRankTest, FractionBasics) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> weights = {1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(WeightedRankFraction(values, weights, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(WeightedRankFraction(values, weights, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(WeightedRankFraction(values, weights, 99.0), 1.0);
}

TEST(WeightedRankTest, WeightsShiftRank) {
  std::vector<double> values = {1.0, 10.0};
  std::vector<double> weights = {3.0, 1.0};
  EXPECT_DOUBLE_EQ(WeightedRankFraction(values, weights, 5.0), 0.75);
}

TEST(MedianTest, EstimatesTrueMedianWithinRequiredRankError) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kMedian;
  q.required_error = 0.1;
  util::RunningStat errors;
  int violations = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    auto answer = engine.Execute(q, 0, rng);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    double err = RankError(tn.network, answer->estimate, 0.5);
    errors.Add(err);
    if (err > 0.1) ++violations;
  }
  // Per-run tails allowed (sigma-targeted sizing); the average must comply.
  EXPECT_LE(violations, 2);
  EXPECT_LE(errors.mean(), 0.1);
}

TEST(MedianTest, WorksOnPerfectlyClusteredData) {
  // CL = 0 is the hard case: local medians span the whole domain.
  TestNetworkParams net_params;
  net_params.cluster_level = 0.0;
  TestNetwork tn = MakeTestNetwork(net_params);
  EngineParams params;
  params.phase1_peers = 80;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kMedian;
  q.required_error = 0.1;
  util::Rng rng(7);
  auto answer = engine.Execute(q, 0, rng);
  ASSERT_TRUE(answer.ok());
  EXPECT_LT(RankError(tn.network, answer->estimate, 0.5), 0.12);
}

TEST(QuantileTest, ArbitraryPhi) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  for (double phi : {0.25, 0.75}) {
    query::AggregateQuery q;
    q.op = query::AggregateOp::kQuantile;
    q.quantile_phi = phi;
    q.required_error = 0.1;
    util::Rng rng(11);
    auto answer = engine.Execute(q, 0, rng);
    ASSERT_TRUE(answer.ok());
    EXPECT_LT(RankError(tn.network, answer->estimate, phi), 0.12)
        << "phi " << phi;
  }
}

TEST(MedianTest, HealthBoardStartsFreshForEveryQuery) {
  // With the straggler health breaker on, each query must walk on a board
  // sized and cleared for it: a MEDIAN answered right after a COUNT on the
  // same engine has to replay the same MEDIAN on a fresh engine exactly.
  // In this slow-coalition regime a board leaked from the COUNT changes
  // the MEDIAN's walk.
  TestNetworkParams net_params;
  net_params.num_peers = 400;
  net_params.num_edges = 2000;
  net_params.cut_edges = 100;
  TestNetwork tn = MakeTestNetwork(net_params);
  net::FaultPlan faults;
  faults.slow_fraction = 0.1;
  faults.slow_factor = 40.0;
  const std::mt19937_64 transport_state = tn.network.rng().engine();
  // Every query below replays against the same transport draws.
  auto rewind = [&]() {
    tn.network.rng().engine() = transport_state;
    tn.network.InstallFaultPlan(faults, 9);
  };
  EngineParams params;
  params.phase1_peers = 80;
  params.max_phase2_peers = 400;
  params.straggler.health_tracking = true;
  query::AggregateQuery median;
  median.op = query::AggregateOp::kMedian;
  median.predicate = {1, 100};
  median.required_error = 0.05;
  // A tight COUNT walks far enough to trip breakers on the slow peers.
  query::AggregateQuery count;
  count.op = query::AggregateOp::kCount;
  count.predicate = {1, 100};
  count.required_error = 0.05;

  rewind();
  TwoPhaseEngine fresh(&tn.network, tn.catalog, params);
  util::Rng fresh_rng(5);
  auto expected = fresh.Execute(median, 0, fresh_rng);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  TwoPhaseEngine reused(&tn.network, tn.catalog, params);
  rewind();
  util::Rng count_rng(5);
  ASSERT_TRUE(reused.Execute(count, 0, count_rng).ok());
  rewind();
  util::Rng median_rng(5);
  auto after_count = reused.Execute(median, 0, median_rng);
  ASSERT_TRUE(after_count.ok()) << after_count.status().ToString();
  EXPECT_EQ(after_count->estimate, expected->estimate);
  EXPECT_EQ(after_count->cost.walker_hops, expected->cost.walker_hops);
}

TEST(QuantileTest, RejectsDegeneratePhi) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  TwoPhaseEngine engine(&tn.network, tn.catalog, EngineParams{});
  query::AggregateQuery q;
  q.op = query::AggregateOp::kQuantile;
  q.quantile_phi = 0.0;
  util::Rng rng(13);
  EXPECT_FALSE(engine.Execute(q, 0, rng).ok());
}

TEST(ChaoTest, ExactWhenEverythingSeenTwice) {
  std::vector<data::Value> sample = {1, 1, 2, 2, 3, 3};
  EXPECT_DOUBLE_EQ(ChaoDistinctEstimate(sample), 3.0);
}

TEST(ChaoTest, SingletonsInflateEstimate) {
  std::vector<data::Value> sample = {1, 2, 3, 4, 5};  // All singletons.
  EXPECT_GT(ChaoDistinctEstimate(sample), 5.0);
}

TEST(ChaoTest, EmptySampleIsZero) {
  EXPECT_DOUBLE_EQ(ChaoDistinctEstimate({}), 0.0);
}

TEST(ChaoTest, MixedFrequencies) {
  // d_obs = 3, f1 = 1 ({3}), f2 = 1 ({2}): 3 + 1/2 = 3.5.
  std::vector<data::Value> sample = {1, 1, 1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(ChaoDistinctEstimate(sample), 3.5);
}

TEST(DistinctTest, RecoversDomainSize) {
  // Domain [1, 100] well covered: the estimate lands near 100.
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kDistinct;
  q.predicate = {1, 100};
  q.required_error = 0.1;
  util::Rng rng(17);
  auto answer = engine.Execute(q, 0, rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  // Ground truth: distinct values actually present.
  std::set<data::Value> truth;
  for (graph::NodeId p = 0; p < tn.network.num_peers(); ++p) {
    for (const data::Tuple& t : tn.network.peer(p).database().tuples()) {
      truth.insert(t.value);
    }
  }
  // Chao is a biased (typically upward with Zipf tails) richness
  // estimator; 30% is its realistic envelope at this sample size.
  EXPECT_NEAR(answer->estimate, static_cast<double>(truth.size()),
              static_cast<double>(truth.size()) * 0.3);
}

TEST(DistinctTest, SelectivePredicateShrinksEstimate) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kDistinct;
  q.predicate = {1, 10};
  q.required_error = 0.1;
  util::Rng rng(19);
  auto answer = engine.Execute(q, 0, rng);
  ASSERT_TRUE(answer.ok());
  EXPECT_LE(answer->estimate, 15.0);
  EXPECT_GE(answer->estimate, 5.0);
}

TEST(DistinctTest, ShipsRawTupleBytes) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 40;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery count_q;
  count_q.op = query::AggregateOp::kCount;
  count_q.predicate = {1, 100};
  count_q.required_error = 0.15;
  query::AggregateQuery distinct_q = count_q;
  distinct_q.op = query::AggregateOp::kDistinct;
  util::Rng rng_a(23);
  util::Rng rng_b(23);
  auto count_answer = engine.Execute(count_q, 0, rng_a);
  auto distinct_answer = engine.Execute(distinct_q, 0, rng_b);
  ASSERT_TRUE(count_answer.ok());
  ASSERT_TRUE(distinct_answer.ok());
  // Distinct must ship more bytes per visited peer (raw samples vs scalar).
  double count_bpp = static_cast<double>(count_answer->cost.bytes_shipped) /
                     static_cast<double>(count_answer->cost.peers_visited);
  double distinct_bpp =
      static_cast<double>(distinct_answer->cost.bytes_shipped) /
      static_cast<double>(distinct_answer->cost.peers_visited);
  EXPECT_GT(distinct_bpp, count_bpp + 20.0);
}

}  // namespace
}  // namespace p2paqp::core
