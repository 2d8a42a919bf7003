// Cross-module property tests: parameterized sweeps asserting structural
// and statistical invariants that must hold for *every* configuration, not
// just the defaults the unit tests pin down.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/aqp.h"
#include "graph/algorithms.h"
#include "graph/metrics.h"
#include "test_common.h"
#include "util/statistics.h"

namespace p2paqp {
namespace {

// ---------------------------------------------------------------------------
// Graph generators: handshake lemma, symmetry, simplicity, connectivity.
// ---------------------------------------------------------------------------

using GraphGenParam = std::tuple<topology::TopologyKind, size_t, size_t>;

class GraphGeneratorProperties
    : public ::testing::TestWithParam<GraphGenParam> {};

TEST_P(GraphGeneratorProperties, StructuralInvariants) {
  auto [kind, nodes, edges] = GetParam();
  util::Rng rng(31337);
  topology::TopologyConfig config;
  config.kind = kind;
  config.num_nodes = nodes;
  config.num_edges = edges;
  config.num_subgraphs = 2;
  config.cut_edges = std::max<size_t>(2, edges / 50);
  auto topo = topology::MakeTopology(config, rng);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  const graph::Graph& g = topo->graph;

  EXPECT_EQ(g.num_nodes(), nodes);

  // Handshake lemma: degree sum equals twice the edge count.
  size_t degree_sum = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());

  // Symmetry + simplicity.
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    graph::NodeId prev = graph::kInvalidNode;
    for (graph::NodeId v : g.neighbors(u)) {
      EXPECT_NE(v, u) << "self loop at " << u;
      EXPECT_NE(v, prev) << "parallel edge " << u << "-" << v;
      EXPECT_TRUE(g.HasEdge(v, u)) << "asymmetric edge " << u << "-" << v;
      prev = v;
    }
  }

  // Single component: every generator must produce a usable overlay.
  EXPECT_TRUE(graph::IsConnected(g));

  // Stationary probabilities form a distribution.
  double total_prob = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    total_prob += g.StationaryProbability(v);
  }
  EXPECT_NEAR(total_prob, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GraphGeneratorProperties,
    ::testing::Combine(
        ::testing::Values(topology::TopologyKind::kPowerLaw,
                          topology::TopologyKind::kClustered,
                          topology::TopologyKind::kErdosRenyi,
                          topology::TopologyKind::kGnutella),
        ::testing::Values(size_t{200}, size_t{997}),
        ::testing::Values(size_t{1500}, size_t{4000})),
    [](const auto& info) {
      return std::string(
                 topology::TopologyKindToString(std::get<0>(info.param))) +
             "_n" + std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// The answer step (BuildAnswer) on generated observation sets: COUNT and
// SUM, plain and robust HT, with and without loss. The degree audit stays
// off: its probes draw per peer in observation order.
// ---------------------------------------------------------------------------

using AnswerStepParam =
    std::tuple<query::AggregateOp, bool /*robust*/, bool /*loss*/>;

class AnswerStepProperties
    : public ::testing::TestWithParam<AnswerStepParam> {
 protected:
  static constexpr uint64_t kCases = 60;

  struct Case {
    core::EngineParams params;
    core::PhaseTwoPlan plan;
    double total_weight = 0.0;
    std::vector<core::PeerObservation> phase1;
    std::vector<core::PeerObservation> phase2;
    core::TwoPhaseEngine::CollectionStats phase1_stats;
    core::TwoPhaseEngine::CollectionStats phase2_stats;
  };

  // Degree-weighted selections with a heavy right tail of values and some
  // predicate misses, like the HT contributions a walk collects.
  static std::vector<core::PeerObservation> Observations(size_t n,
                                                         util::Rng& rng) {
    std::vector<core::PeerObservation> observations(n);
    for (size_t i = 0; i < n; ++i) {
      core::PeerObservation& obs = observations[i];
      obs.peer = static_cast<graph::NodeId>(rng.UniformIndex(500));
      obs.degree = static_cast<uint32_t>(1 + rng.UniformIndex(40));
      obs.stationary_weight = static_cast<double>(obs.degree);
      obs.selection_seq = i;
      const double u = rng.UniformDouble();
      const double count = rng.Bernoulli(0.2) ? 0.0 : 1.0 + 300.0 * u * u * u;
      obs.aggregate.count_value = count;
      obs.aggregate.sum_value = count * rng.UniformDouble(1.0, 100.0);
      obs.aggregate.total_sum_value =
          obs.aggregate.sum_value + rng.UniformDouble(0.0, 5000.0);
      obs.aggregate.local_tuples = 1 + rng.UniformIndex(400);
    }
    return observations;
  }

  static core::TwoPhaseEngine::CollectionStats Delivered(size_t delivered,
                                                         size_t lost) {
    core::TwoPhaseEngine::CollectionStats stats;
    stats.requested = delivered + lost;
    stats.delivered = delivered;
    stats.lost = lost;
    return stats;
  }

  Case Generate(uint64_t seed) const {
    auto [op, robust, loss] = GetParam();
    util::Rng rng(seed);
    Case c;
    if (robust) {
      c.params.robustness.estimator = core::RobustEstimatorKind::kWinsorized;
      c.params.robustness.trim_fraction = 0.1;
      c.params.robustness.mad_cutoff = 3.0;
    }
    c.total_weight = rng.UniformDouble(1000.0, 50000.0);
    c.phase1 = Observations(4 + rng.UniformIndex(40), rng);
    c.phase2 = Observations(2 + rng.UniformIndex(80), rng);
    const size_t lost1 = loss ? rng.UniformIndex(10) : 0;
    const size_t lost2 = loss ? 1 + rng.UniformIndex(20) : 0;
    c.phase1_stats = Delivered(c.phase1.size(), lost1);
    c.phase2_stats = Delivered(c.phase2.size(), lost2);
    c.plan.peers = c.phase2_stats.requested;
    c.plan.estimated_total = rng.UniformDouble(1e3, 1e6);
    c.plan.cv_error_relative = rng.UniformDouble(0.0, 1.0);
    return c;
  }

  static util::Result<core::ApproximateAnswer> Answer(const Case& c) {
    // No draws with the audit off; a fixed stream keeps it that way.
    util::Rng rng(1);
    return core::BuildAnswer(nullptr, c.params, std::get<0>(GetParam()),
                             /*sink=*/0, c.total_weight, c.plan, c.phase1,
                             c.phase1_stats, c.phase2, c.phase2_stats, rng);
  }

  static void ExpectRelative(double actual, double expected,
                             const char* what) {
    EXPECT_LE(std::fabs(actual - expected),
              1e-12 * std::max(std::fabs(actual), std::fabs(expected)))
        << what << ": " << actual << " vs " << expected;
  }
};

TEST_P(AnswerStepProperties, AnswerDoesNotDependOnObservationOrder) {
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Case c = Generate(seed);
    auto in_order = Answer(c);
    ASSERT_TRUE(in_order.ok()) << in_order.status().ToString();
    util::Rng shuffle(seed + 1000);
    shuffle.Shuffle(c.phase1);
    shuffle.Shuffle(c.phase2);
    auto shuffled = Answer(c);
    ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
    ExpectRelative(shuffled->estimate, in_order->estimate, "estimate");
    ExpectRelative(shuffled->ci_half_width_95, in_order->ci_half_width_95,
                   "ci_half_width_95");
    ExpectRelative(shuffled->achieved_error, in_order->achieved_error,
                   "achieved_error");
    EXPECT_EQ(shuffled->trimmed_mass, in_order->trimmed_mass);
    EXPECT_EQ(shuffled->observations_lost, in_order->observations_lost);
  }
}

TEST_P(AnswerStepProperties, ScalingValuesScalesEstimateAndInterval) {
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = Generate(seed);
    auto base = Answer(c);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    for (double factor : {0.013, 0.37, 12.5, 4096.0}) {
      SCOPED_TRACE("factor " + std::to_string(factor));
      Case scaled = c;
      for (auto* set : {&scaled.phase1, &scaled.phase2}) {
        for (core::PeerObservation& obs : *set) {
          obs.aggregate.count_value *= factor;
          obs.aggregate.sum_value *= factor;
          obs.aggregate.total_sum_value *= factor;
        }
      }
      scaled.plan.estimated_total *= factor;
      auto answer = Answer(scaled);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ExpectRelative(answer->estimate, factor * base->estimate, "estimate");
      ExpectRelative(answer->ci_half_width_95,
                     factor * base->ci_half_width_95, "ci_half_width_95");
      ExpectRelative(answer->achieved_error, base->achieved_error,
                     "achieved_error");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountSumPlainRobustLoss, AnswerStepProperties,
    ::testing::Combine(::testing::Values(query::AggregateOp::kCount,
                                         query::AggregateOp::kSum),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == query::AggregateOp::kSum
                             ? "sum"
                             : "count") +
             (std::get<1>(info.param) ? "_robust" : "_plain") +
             (std::get<2>(info.param) ? "_lossy" : "_lossless");
    });

// ---------------------------------------------------------------------------
// Partitioner: tuple conservation under every (CL, sizing) combination.
// ---------------------------------------------------------------------------

using PartitionParam = std::tuple<double, data::PartitionParams::SizePolicy>;

class PartitionerProperties
    : public ::testing::TestWithParam<PartitionParam> {};

TEST_P(PartitionerProperties, ConservesTuplesExactly) {
  auto [cluster_level, policy] = GetParam();
  util::Rng rng(17);
  auto graph = topology::MakeBarabasiAlbert(150, 3, rng);
  ASSERT_TRUE(graph.ok());
  data::DatasetParams dataset;
  dataset.num_tuples = 7321;  // Deliberately not divisible by peers.
  auto table = data::GenerateDataset(dataset, rng);
  ASSERT_TRUE(table.ok());

  data::PartitionParams params;
  params.cluster_level = cluster_level;
  params.size_policy = policy;
  auto dbs = data::PartitionAcrossPeers(*table, *graph, params, rng);
  ASSERT_TRUE(dbs.ok());

  std::map<data::Value, int64_t> expected;
  for (const data::Tuple& t : *table) ++expected[t.value];
  std::map<data::Value, int64_t> actual;
  size_t total = 0;
  for (const data::LocalDatabase& db : *dbs) {
    total += db.size();
    for (const data::Tuple& t : db.tuples()) ++actual[t.value];
  }
  EXPECT_EQ(total, table->size());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, PartitionerProperties,
    ::testing::Combine(
        ::testing::Values(0.0, 0.25, 0.5, 1.0),
        ::testing::Values(data::PartitionParams::SizePolicy::kUniform,
                          data::PartitionParams::SizePolicy::
                              kDegreeProportional)));

// ---------------------------------------------------------------------------
// Random walk: selection frequencies track the stationary distribution on
// every topology kind.
// ---------------------------------------------------------------------------

class WalkStationarityProperty
    : public ::testing::TestWithParam<topology::TopologyKind> {};

TEST_P(WalkStationarityProperty, SelectionFrequencyMatchesDegreeLaw) {
  util::Rng rng(23);
  topology::TopologyConfig config;
  config.kind = GetParam();
  config.num_nodes = 60;
  config.num_edges = 240;
  config.num_subgraphs = 2;
  config.cut_edges = 12;
  auto topo = topology::MakeTopology(config, rng);
  ASSERT_TRUE(topo.ok());
  auto network = net::SimulatedNetwork::Make(std::move(topo->graph), {},
                                             net::NetworkParams{}, 1);
  ASSERT_TRUE(network.ok());
  sampling::RandomWalk walk(
      &*network, sampling::WalkParams{.jump = 8, .burn_in = 60});
  util::Rng walk_rng(29);
  const size_t kSelections = 40000;
  auto visits = walk.Collect(0, kSelections, walk_rng);
  ASSERT_TRUE(visits.ok());
  std::vector<double> observed(network->num_peers(), 0.0);
  for (const sampling::PeerVisit& v : *visits) {
    observed[v.peer] += 1.0 / static_cast<double>(kSelections);
  }
  // Total variation between empirical and stationary distribution.
  double tv = 0.0;
  for (graph::NodeId p = 0; p < network->num_peers(); ++p) {
    tv += std::fabs(observed[p] - network->graph().StationaryProbability(p));
  }
  EXPECT_LT(tv / 2.0, 0.05)
      << topology::TopologyKindToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WalkStationarityProperty,
                         ::testing::Values(topology::TopologyKind::kPowerLaw,
                                           topology::TopologyKind::kClustered,
                                           topology::TopologyKind::kErdosRenyi,
                                           topology::TopologyKind::kGnutella),
                         [](const auto& info) {
                           return topology::TopologyKindToString(info.param);
                         });

// ---------------------------------------------------------------------------
// Local executor: the scaled count is an unbiased estimate of the local
// count for every sub-sampling budget.
// ---------------------------------------------------------------------------

class ExecutorScalingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorScalingProperty, ScaledCountIsUnbiased) {
  uint64_t t = GetParam();
  // 200 tuples, 60 of which match.
  data::Table table;
  for (int i = 0; i < 200; ++i) table.push_back({i < 60 ? 10 : 90});
  data::LocalDatabase db(std::move(table));
  query::AggregateQuery q;
  q.predicate = {1, 50};
  util::Rng rng(t + 1);
  util::RunningStat stat;
  const int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    stat.Add(query::ExecuteLocal(db, q, t, rng).count_value);
  }
  double se = stat.stddev() / std::sqrt(static_cast<double>(kTrials));
  EXPECT_NEAR(stat.mean(), 60.0, std::max(4.0 * se, 1e-9)) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Budgets, ExecutorScalingProperty,
                         ::testing::Values(0, 10, 25, 100, 199, 200, 500));

// ---------------------------------------------------------------------------
// Engine: every aggregate op returns positive estimates with coherent cost
// accounting on every topology kind.
// ---------------------------------------------------------------------------

using EngineParam = std::tuple<topology::TopologyKind, query::AggregateOp>;

class EngineCoverageProperty : public ::testing::TestWithParam<EngineParam> {
};

TEST_P(EngineCoverageProperty, AnswersWithCoherentCosts) {
  auto [kind, op] = GetParam();
  util::Rng rng(41);
  topology::TopologyConfig config;
  config.kind = kind;
  config.num_nodes = 600;
  config.num_edges = 3000;
  config.num_subgraphs = 2;
  config.cut_edges = 100;
  auto topo = topology::MakeTopology(config, rng);
  ASSERT_TRUE(topo.ok());
  data::DatasetParams dataset;
  dataset.num_tuples = 30000;
  auto table = data::GenerateDataset(dataset, rng);
  ASSERT_TRUE(table.ok());
  auto dbs = data::PartitionAcrossPeers(*table, topo->graph,
                                        data::PartitionParams{}, rng);
  ASSERT_TRUE(dbs.ok());
  auto network = net::SimulatedNetwork::Make(std::move(topo->graph),
                                             std::move(*dbs),
                                             net::NetworkParams{}, 2);
  ASSERT_TRUE(network.ok());
  core::SystemCatalog catalog = core::MakeCatalog(network->graph(), 10, 30);
  core::EngineParams params;
  params.phase1_peers = 30;
  core::TwoPhaseEngine engine(&*network, catalog, params);

  query::AggregateQuery q;
  q.op = op;
  q.predicate = {1, 100};
  q.required_error = 0.2;
  auto answer = engine.Execute(q, 0, rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(answer->estimate, 0.0);
  EXPECT_EQ(answer->phase1_peers, 30u);
  EXPECT_GE(answer->phase2_peers, params.min_phase2_peers);
  EXPECT_GT(answer->cost.messages, 0u);
  EXPECT_GT(answer->cost.tuples_scanned, 0u);
  EXPECT_GT(answer->cost.latency_ms, 0.0);
  EXPECT_GE(answer->cost.bytes_shipped, 23 * answer->cost.messages);
}

INSTANTIATE_TEST_SUITE_P(
    OpsByTopology, EngineCoverageProperty,
    ::testing::Combine(
        ::testing::Values(topology::TopologyKind::kPowerLaw,
                          topology::TopologyKind::kClustered,
                          topology::TopologyKind::kGnutella),
        ::testing::Values(query::AggregateOp::kCount, query::AggregateOp::kSum,
                          query::AggregateOp::kAvg,
                          query::AggregateOp::kMedian,
                          query::AggregateOp::kDistinct)),
    [](const auto& info) {
      return std::string(
                 topology::TopologyKindToString(std::get<0>(info.param))) +
             "_" + query::AggregateOpToString(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Overlay evolution end-to-end: grow/shrink the overlay, re-snapshot, and
// verify queries remain accurate against the surviving data.
// ---------------------------------------------------------------------------

TEST(OverlayEvolutionProperty, QueriesTrackTheEvolvedOverlay) {
  util::Rng rng(53);
  auto seed_graph = topology::MakeBarabasiAlbert(800, 5, rng);
  ASSERT_TRUE(seed_graph.ok());
  data::DatasetParams dataset;
  dataset.num_tuples = 40000;
  auto table = data::GenerateDataset(dataset, rng);
  ASSERT_TRUE(table.ok());
  auto dbs = data::PartitionAcrossPeers(*table, *seed_graph,
                                        data::PartitionParams{}, rng);
  ASSERT_TRUE(dbs.ok());

  // Evolve: 150 departures, 200 joins (new peers bring fresh data).
  net::OverlayManager overlay(*seed_graph);
  std::vector<data::LocalDatabase> databases = std::move(*dbs);
  for (int i = 0; i < 150; ++i) {
    auto victim =
        static_cast<graph::NodeId>(rng.UniformIndex(overlay.num_nodes()));
    if (overlay.IsActive(victim) && overlay.Degree(victim) > 0) {
      overlay.Leave(victim);
      databases[victim].Clear();  // Its data departs with it.
    }
  }
  auto zipf = util::ZipfGenerator::Make(100, 0.2);
  for (int i = 0; i < 200; ++i) {
    auto id = overlay.Join(5, rng);
    ASSERT_TRUE(id.ok());
    data::Table fresh;
    for (int k = 0; k < 50; ++k) {
      fresh.push_back({static_cast<data::Value>(zipf->Sample(rng))});
    }
    databases.emplace_back(std::move(fresh));
  }
  ASSERT_EQ(databases.size(), overlay.num_nodes());

  // Rebuild the simulated network from the evolved snapshot.
  graph::Graph evolved = overlay.Snapshot();
  auto network = net::SimulatedNetwork::Make(std::move(evolved),
                                             std::move(databases),
                                             net::NetworkParams{}, 3);
  ASSERT_TRUE(network.ok());
  // Departed peers are isolated in the snapshot; mark them down.
  for (graph::NodeId v = 0; v < network->num_peers(); ++v) {
    if (!overlay.IsActive(v)) network->SetAlive(v, false);
  }

  core::SystemCatalog catalog =
      core::MakeLiveCatalog(*network, /*jump=*/10, /*burn_in=*/40);
  core::EngineParams params;
  params.phase1_peers = 60;
  params.include_phase1_observations = true;
  core::TwoPhaseEngine engine(&*network, catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, 30};
  q.required_error = 0.1;
  graph::NodeId sink = 0;
  ASSERT_TRUE(network->IsAlive(sink));
  util::Rng query_rng(59);
  auto answer = engine.Execute(q, sink, query_rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  double truth = static_cast<double>(network->ExactCount(1, 30));
  double total = static_cast<double>(network->TotalTuples());
  EXPECT_LT(std::fabs(answer->estimate - truth) / total, 0.12);
}

}  // namespace
}  // namespace p2paqp
